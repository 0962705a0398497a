package engine

import (
	"testing"

	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/sched"
	"ssmis/internal/xrand"
)

// kernelTestRule opts the local 2-state rule into the bit-sliced kernel.
// testRule itself deliberately does not implement KernelRule, so every other
// engine test keeps exercising the scalar path.
type kernelTestRule struct{ testRule }

var kernelTestProg = kernel.MustCompile(kernel.Spec{
	StateOf: [4]uint8{tWhite, tBlack, 0, 0},
	Active:  kernel.TruthTable(func(code int, a, _ bool) bool { return (code&1 == 1) == a }),
	Touched: kernel.TruthTable(func(code int, a, _ bool) bool { return (code&1 == 1) == a }),
	CoinHi:  [4]uint8{1, 1, 0, 0},
	CoinLo:  [4]uint8{0, 0, 0, 0},
})

func (kernelTestRule) LaneProgram() *kernel.Program { return kernelTestProg }

// newKernelCore mirrors newTestCore (same seed → same initial state and
// per-vertex streams) with the kernel-eligible rule.
func newKernelCore(g *graph.Graph, seed uint64, opts Options) *Core {
	master := xrand.New(seed)
	n := g.N()
	state := make([]uint8, n)
	init := master.Split(uint64(n) + 1)
	for u := range state {
		state[u] = tWhite
		if init.Bit() {
			state[u] = tBlack
		}
	}
	rngs := make([]*xrand.Rand, n)
	for u := range rngs {
		rngs[u] = master.Split(uint64(u))
	}
	if opts.Bias == 0 {
		opts.Bias = 0.5
	}
	return New(g, kernelTestRule{}, state, rngs, opts)
}

// lockstep drives kernel and scalar cores together for up to maxRounds,
// requiring byte-identical states, counts, bits, and coverage stamps after
// every single round, plus a clean integrity probe on the kernel core.
func lockstep(t *testing.T, name string, kern, scal *Core, maxRounds int) {
	t.Helper()
	if !kern.Kernel() {
		t.Fatalf("%s: kernel core did not engage the kernel", name)
	}
	if scal.Kernel() {
		t.Fatalf("%s: scalar core engaged the kernel", name)
	}
	for r := 0; r < maxRounds && !kern.Stabilized(); r++ {
		kern.Step()
		scal.Step()
		if !statesEqual(kern, scal) {
			t.Fatalf("%s: states diverged at round %d", name, kern.Round())
		}
		if kern.Bits() != scal.Bits() {
			t.Fatalf("%s: round %d bits %d vs %d", name, kern.Round(), kern.Bits(), scal.Bits())
		}
		if kern.ActiveCount() != scal.ActiveCount() {
			t.Fatalf("%s: round %d active %d vs %d", name, kern.Round(), kern.ActiveCount(), scal.ActiveCount())
		}
		if err := kern.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if kern.Round() != scal.Round() || kern.Stabilized() != scal.Stabilized() {
		t.Fatalf("%s: round/stabilization diverged (%d,%v) vs (%d,%v)",
			name, kern.Round(), kern.Stabilized(), scal.Round(), scal.Stabilized())
	}
	for u, ka := range kern.CoveredAt() {
		if sa := scal.CoveredAt()[u]; ka != sa {
			t.Fatalf("%s: coveredAt stamp of %d is %d, scalar %d", name, u, ka, sa)
		}
	}
}

// The kernel must be coin-for-coin bit-identical to the scalar engine on
// random graphs, with and without the frontier.
func TestKernelMatchesScalarEngine(t *testing.T) {
	master := xrand.New(41)
	for trial := 0; trial < 12; trial++ {
		r := master.Split(uint64(trial))
		n := 2 + r.Intn(300)
		g := graph.Gnp(n, r.Float64()*0.15, r)
		kern := newKernelCore(g, uint64(trial), Options{NoopWhenIdle: true})
		scal := newTestCore(g, uint64(trial), Options{NoopWhenIdle: true, Scalar: true})
		lockstep(t, "frontier", kern, scal, 4*n+200)
		kern = newKernelCore(g, uint64(trial), Options{NoopWhenIdle: true, FullRescan: true})
		scal = newTestCore(g, uint64(trial), Options{NoopWhenIdle: true})
		lockstep(t, "full-rescan", kern, scal, 4*n+200)
	}
}

// A biased coin draws one 64-bit Bernoulli sample per vertex on both paths.
func TestKernelMatchesScalarBiased(t *testing.T) {
	master := xrand.New(43)
	for trial := 0; trial < 6; trial++ {
		r := master.Split(uint64(trial))
		n := 2 + r.Intn(200)
		g := graph.Gnp(n, 0.08, r)
		bias := 0.2 + r.Float64()*0.6
		kern := newKernelCore(g, uint64(trial), Options{Bias: bias, NoopWhenIdle: true})
		scal := newTestCore(g, uint64(trial), Options{Bias: bias, NoopWhenIdle: true})
		lockstep(t, "biased", kern, scal, 8*n+400)
	}
}

// The complete-graph fast path (class totals, dirtyAll rescans) must agree
// with both the scalar engine and the kernel's generic counter path.
func TestKernelCompleteFastPath(t *testing.T) {
	g := graph.Complete(257) // odd size: partial tail word
	for seed := uint64(0); seed < 3; seed++ {
		kern := newKernelCore(g, seed, Options{NoopWhenIdle: true})
		if !kern.Complete() {
			t.Fatal("complete fast path not engaged")
		}
		scal := newTestCore(g, seed, Options{NoopWhenIdle: true})
		lockstep(t, "complete", kern, scal, 4000)

		generic := newKernelCore(g, seed, Options{NoopWhenIdle: true})
		generic.DisableCompleteFastPath()
		scal2 := newTestCore(g, seed, Options{NoopWhenIdle: true})
		lockstep(t, "complete-generic", generic, scal2, 4000)
	}
}

// Daemon scheduling runs through the kernel's commit and refresh; under the
// synchronous daemon it must replay the kernel's Step execution exactly.
func TestKernelDaemonSynchronousMatchesStep(t *testing.T) {
	master := xrand.New(47)
	for trial := 0; trial < 6; trial++ {
		r := master.Split(uint64(trial))
		n := 2 + r.Intn(150)
		g := graph.Gnp(n, 0.1, r)
		step := newKernelCore(g, uint64(trial), Options{NoopWhenIdle: true})
		daemon := newKernelCore(g, uint64(trial), Options{NoopWhenIdle: true})
		dRng := xrand.New(999)
		for i := 0; i < 4*n+200 && !step.Stabilized(); i++ {
			step.Step()
			daemon.DaemonStep(sched.Synchronous{}, dRng)
			if !statesEqual(step, daemon) {
				t.Fatalf("trial %d: daemon diverged at round %d", trial, step.Round())
			}
			if err := daemon.CheckIntegrity(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if step.Bits() != daemon.Bits() {
			t.Fatalf("trial %d: bits %d vs %d", trial, step.Bits(), daemon.Bits())
		}
	}
}

// A RunContext recycled across graphs of different sizes must lease lanes
// that carry no stale bits, and context-backed runs must match context-free
// ones exactly.
func TestKernelRunContextRecycling(t *testing.T) {
	ctx := NewRunContext()
	master := xrand.New(53)
	for trial := 0; trial < 8; trial++ {
		r := master.Split(uint64(trial))
		n := 2 + r.Intn(250) // sizes shrink and grow across trials
		g := graph.Gnp(n, 0.1, r)
		kern := newKernelCore(g, uint64(trial), Options{NoopWhenIdle: true, Ctx: ctx})
		scal := newTestCore(g, uint64(trial), Options{NoopWhenIdle: true})
		lockstep(t, "ctx", kern, scal, 4*n+200)
	}
}

// Rebuild after external state corruption must re-derive the lanes from the
// mutated vector and keep the execution equivalent to a scalar core rebuilt
// the same way.
func TestKernelRebuildAfterCorruption(t *testing.T) {
	master := xrand.New(59)
	r := master.Split(0)
	g := graph.Gnp(150, 0.1, r)
	kern := newKernelCore(g, 7, Options{NoopWhenIdle: true})
	scal := newTestCore(g, 7, Options{NoopWhenIdle: true})
	for i := 0; i < 5; i++ {
		kern.Step()
		scal.Step()
	}
	// Flip a handful of states identically on both cores.
	mut := master.Split(1)
	for i := 0; i < 10; i++ {
		u := mut.Intn(g.N())
		ns := tWhite + uint8(mut.Intn(2))
		kern.States()[u] = ns
		scal.States()[u] = ns
	}
	kern.Rebuild()
	scal.Rebuild()
	if err := kern.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	lockstep(t, "post-corruption", kern, scal, 2000)
}

// Options.Scalar must disable the kernel even for an eligible rule.
func TestScalarOptionDisablesKernel(t *testing.T) {
	g := graph.Gnp(100, 0.1, xrand.New(1))
	if c := newKernelCore(g, 1, Options{Scalar: true}); c.Kernel() {
		t.Fatal("Scalar option did not disable the kernel")
	}
	if c := newKernelCore(g, 1, Options{}); !c.Kernel() {
		t.Fatal("kernel not auto-selected for an eligible rule")
	}
	if c := newTestCore(g, 1, Options{}); c.Kernel() {
		t.Fatal("kernel engaged for a rule without a lane program")
	}
}
