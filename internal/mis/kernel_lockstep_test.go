package mis

import (
	"fmt"
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/sched"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// The kernel-vs-scalar lockstep matrix for the multi-lane rules: the
// 3-state and 3-color processes auto-select the bit-sliced kernel, and
// every configuration — frontier/full-rescan ×
// sparse/dense/complete — must replay the scalar interface path
// coin-for-coin, round by round: colors, full states (black0 vs black1,
// switch levels), active counts, bit accounting, and the final coveredAt
// stamps. The 2-state rows of this matrix live in refresh_test.go.
func TestKernelLockstepMatrix(t *testing.T) {
	type mk func(g *graph.Graph, opts ...Option) Process
	procs := []struct {
		name string
		mk   mk
		// stateOf exposes the full per-vertex state (beyond the Black
		// projection) for the round-by-round comparison.
		stateOf func(p Process, u int) int
	}{
		{
			"3-state",
			func(g *graph.Graph, opts ...Option) Process { return NewThreeState(g, opts...) },
			func(p Process, u int) int { return int(p.(*ThreeState).State(u)) },
		},
		{
			"3-color",
			func(g *graph.Graph, opts ...Option) Process { return NewThreeColor(g, opts...) },
			func(p Process, u int) int {
				tc := p.(*ThreeColor)
				return int(tc.ColorOf(u))<<8 | int(tc.SwitchLevel(u))
			},
		},
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-sparse", graph.Gnp(400, 0.01, xrand.New(1))},
		{"gnp-dense", graph.Gnp(200, 0.2, xrand.New(2))},
		{"complete", graph.Complete(257)}, // odd order: partial tail word
		// Weight-sorted power-law ids: a populated hub prefix, so the
		// counter-layout axis below exercises the hub/tail split for real.
		{"powerlaw", graph.ChungLu(1500, 2.0, 8, xrand.New(6))},
	}
	// The relabel axis runs the kernel over the degree-bucketed locality
	// ordering; the layout axis forces each counter-plane geometry (flat,
	// narrow lanes, hub/tail split). Either way the run must replay the
	// identity-ordered, auto-layout scalar reference coin for coin.
	axes := []struct {
		relabel bool
		layout  engine.CounterLayout
	}{
		{false, engine.LayoutAuto},
		{true, engine.LayoutAuto},
		{false, engine.LayoutFlat},
		{false, engine.LayoutNarrow},
		{false, engine.LayoutSplit},
	}
	for _, pr := range procs {
		for _, gc := range graphs {
			cap := 4 * DefaultRoundCap(gc.g.N())
			scal := pr.mk(gc.g, WithSeed(99), WithLocalTimes(), WithScalarEngine())
			if kernelEngaged(scal) {
				t.Fatalf("%s/%s: scalar process engaged the kernel", pr.name, gc.name)
			}
			scalRes := Run(scal, cap)
			if !scalRes.Stabilized {
				t.Fatalf("%s/%s: scalar run did not stabilize", pr.name, gc.name)
			}
			if err := verify.MIS(gc.g, scal.Black); err != nil {
				t.Fatalf("%s/%s: %v", pr.name, gc.name, err)
			}
			for _, rescan := range []bool{false, true} {
				for _, ax := range axes {
					name := fmt.Sprintf("%s/%s/rescan=%v relabel=%v layout=%v",
						pr.name, gc.name, rescan, ax.relabel, ax.layout)
					opts := []Option{WithSeed(99), WithLocalTimes(), WithCounterLayout(ax.layout)}
					if rescan {
						opts = append(opts, WithFullRescan())
					}
					if ax.relabel {
						opts = append(opts, WithDegreeOrder())
					}
					kern := pr.mk(gc.g, opts...)
					if !kernelEngaged(kern) {
						t.Fatalf("%s: kernel did not engage", name)
					}
					// Round-by-round, against a fresh scalar twin, so a
					// divergence is pinned to the exact round it appears.
					twin := pr.mk(gc.g, WithSeed(99), WithLocalTimes(), WithScalarEngine())
					for !kern.Stabilized() && kern.Round() < cap {
						kern.Step()
						twin.Step()
						if kern.ActiveCount() != twin.ActiveCount() || kern.RandomBits() != twin.RandomBits() {
							t.Fatalf("%s: round %d active/bits diverged (%d,%d) vs (%d,%d)",
								name, kern.Round(), kern.ActiveCount(), kern.RandomBits(),
								twin.ActiveCount(), twin.RandomBits())
						}
						for u := 0; u < gc.g.N(); u++ {
							if pr.stateOf(kern, u) != pr.stateOf(twin, u) {
								t.Fatalf("%s: state of %d diverged at round %d", name, u, kern.Round())
							}
						}
					}
					if res := (Result{kern.Round(), kern.Stabilized(), kern.RandomBits()}); res != scalRes {
						t.Fatalf("%s: summary %+v, scalar %+v", name, res, scalRes)
					}
					type timed interface{ StabilizationTimes() []int }
					kt := kern.(timed).StabilizationTimes()
					for u, st := range scal.(timed).StabilizationTimes() {
						if kt[u] != st {
							t.Fatalf("%s: coveredAt stamp of %d is %d, scalar %d", name, u, kt[u], st)
						}
					}
				}
			}
		}
	}
}

// kernelEngaged reports whether the process's engine core runs the
// bit-sliced kernel.
func kernelEngaged(p Process) bool {
	switch q := p.(type) {
	case *TwoState:
		return q.core.Kernel()
	case *ThreeState:
		return q.core.Kernel()
	case *ThreeColor:
		return q.core.Kernel()
	default:
		return false
	}
}

// Daemon scheduling on a kernel-backed 3-state process routes every commit
// and refresh through the lanes; under each fair daemon it must replay the
// scalar engine's execution move for move.
func TestKernelDaemonLockstep(t *testing.T) {
	g := graph.Gnp(150, 0.05, xrand.New(3))
	daemons := []sched.Daemon{sched.Synchronous{}, sched.CentralRandom{}, sched.DistributedRandom{}}
	for _, d := range daemons {
		kern := NewThreeState(g, WithSeed(5))
		scal := NewThreeState(g, WithSeed(5), WithScalarEngine())
		if !kernelEngaged(kern) || kernelEngaged(scal) {
			t.Fatalf("%s: kernel engagement wrong", d.Name())
		}
		cap := DefaultDaemonStepCap(g.N())
		for i := 0; i < cap && !kern.Stabilized(); i++ {
			kern.DaemonStep(d)
			scal.DaemonStep(d)
			if kern.Moves() != scal.Moves() || kern.RandomBits() != scal.RandomBits() {
				t.Fatalf("%s: step %d moves/bits diverged", d.Name(), i)
			}
		}
		if !kern.Stabilized() || !scal.Stabilized() {
			t.Fatalf("%s: did not stabilize", d.Name())
		}
		for u := 0; u < g.N(); u++ {
			if kern.State(u) != scal.State(u) {
				t.Fatalf("%s: state of %d diverged", d.Name(), u)
			}
		}
		if err := verify.MIS(g, kern.Black); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
	}
}

// Mid-run corruption followed by Rebuild must re-derive the lanes (states,
// both neighbor counters, and the 3-color gate) identically on the kernel
// and scalar paths.
func TestKernelRebuildLockstep(t *testing.T) {
	g := graph.Gnp(180, 0.06, xrand.New(4))
	mut := xrand.New(7)

	kern3s := NewThreeState(g, WithSeed(11))
	scal3s := NewThreeState(g, WithSeed(11), WithScalarEngine())
	kern3c := NewThreeColor(g, WithSeed(11))
	scal3c := NewThreeColor(g, WithSeed(11), WithScalarEngine())
	if !kernelEngaged(kern3s) || !kernelEngaged(kern3c) {
		t.Fatal("kernel did not engage")
	}
	for i := 0; i < 6; i++ {
		kern3s.Step()
		scal3s.Step()
		kern3c.Step()
		scal3c.Step()
	}
	for i := 0; i < 12; i++ {
		u := mut.Intn(g.N())
		ts := TriState(1 + mut.Intn(3))
		kern3s.Corrupt(u, ts)
		scal3s.Corrupt(u, ts)
		c := Color(1 + mut.Intn(3))
		lvl := uint8(mut.Intn(6))
		kern3c.Corrupt(u, c, lvl)
		scal3c.Corrupt(u, c, lvl)
	}
	cap := 4 * DefaultRoundCap(g.N())
	r1, r2 := Run(kern3s, cap), Run(scal3s, cap)
	if r1 != r2 {
		t.Fatalf("3-state post-corruption: kernel %+v vs scalar %+v", r1, r2)
	}
	r3, r4 := Run(kern3c, cap), Run(scal3c, cap)
	if r3 != r4 {
		t.Fatalf("3-color post-corruption: kernel %+v vs scalar %+v", r3, r4)
	}
	for u := 0; u < g.N(); u++ {
		if kern3s.State(u) != scal3s.State(u) {
			t.Fatalf("3-state: state of %d diverged after rebuild", u)
		}
		if kern3c.ColorOf(u) != scal3c.ColorOf(u) || kern3c.SwitchLevel(u) != scal3c.SwitchLevel(u) {
			t.Fatalf("3-color: state of %d diverged after rebuild", u)
		}
	}
}

// A run context leased across rule switches (2-state → 3-state → 3-color →
// back) must reconfigure the lanes without leaking bits between rules: each
// context-backed run must equal its context-free (and hence its scalar)
// execution exactly. The sizes shrink and grow so stale words beyond the
// new tail would be caught.
func TestKernelRunContextRuleSwitch(t *testing.T) {
	ctx := engine.NewRunContext()
	sizes := []int{300, 100, 257, 64, 130}
	mks := []func(g *graph.Graph, opts ...Option) Process{
		func(g *graph.Graph, opts ...Option) Process { return NewTwoState(g, opts...) },
		func(g *graph.Graph, opts ...Option) Process { return NewThreeState(g, opts...) },
		func(g *graph.Graph, opts ...Option) Process { return NewThreeColor(g, opts...) },
	}
	for i, n := range sizes {
		for j, mk := range mks {
			g := graph.Gnp(n, 0.05, xrand.New(uint64(10+i)))
			seed := uint64(3*i + j)
			cap := 4 * DefaultRoundCap(n)
			ref := Run(mk(g, WithSeed(seed)), cap)
			got := Run(mk(g, WithSeed(seed), WithRunContext(ctx)), cap)
			if got != ref {
				t.Fatalf("size %d proc %d: context-backed %+v vs fresh %+v", n, j, got, ref)
			}
		}
	}
}
