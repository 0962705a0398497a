package engine

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/sched"
	"ssmis/internal/xrand"
)

// testRule is the 2-state MIS rule, restated locally so the engine package
// tests do not depend on internal/mis.
type testRule struct{}

const (
	tWhite uint8 = 1
	tBlack uint8 = 2
)

func (testRule) NumStates() int { return 2 }
func (testRule) Class(s uint8) uint8 {
	if s == tBlack {
		return ClassA
	}
	return 0
}
func (testRule) Black(s uint8) bool { return s == tBlack }
func (testRule) Active(_ int, s uint8, a, _ int32) bool {
	if s == tBlack {
		return a > 0
	}
	return a == 0
}
func (r testRule) Touched(u int, s uint8, a, b int32) bool { return r.Active(u, s, a, b) }
func (testRule) Evaluate(u int, _ uint8, _, _ int32, d *Draw) uint8 {
	if d.Coin(u) {
		return tBlack
	}
	return tWhite
}

func newTestCore(g *graph.Graph, seed uint64, opts Options) *Core {
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
	return New(g, testRule{}, state, rngs, opts)
}

func statesEqual(a, b *Core) bool {
	for u, s := range a.States() {
		if b.States()[u] != s {
			return false
		}
	}
	return true
}

// The frontier worklist must reproduce the full-rescan execution exactly:
// same states, same activity counts, same stabilization round, same bits.
func TestFrontierMatchesFullRescan(t *testing.T) {
	master := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		r := master.Split(uint64(trial))
		n := 2 + r.Intn(120)
		g := graph.Gnp(n, r.Float64()*0.2, r)
		frontier := newTestCore(g, uint64(trial), Options{NoopWhenIdle: true})
		rescan := newTestCore(g, uint64(trial), Options{NoopWhenIdle: true, FullRescan: true})
		for i := 0; i < 4000 && !frontier.Stabilized(); i++ {
			frontier.Step()
			rescan.Step()
			if !statesEqual(frontier, rescan) {
				t.Fatalf("trial %d round %d: states diverged", trial, frontier.Round())
			}
			if frontier.ActiveCount() != rescan.ActiveCount() {
				t.Fatalf("trial %d round %d: active %d vs %d",
					trial, frontier.Round(), frontier.ActiveCount(), rescan.ActiveCount())
			}
			if err := frontier.CheckIntegrity(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if !frontier.Stabilized() || !rescan.Stabilized() {
			t.Fatalf("trial %d: stabilization mismatch", trial)
		}
		if frontier.Bits() != rescan.Bits() {
			t.Fatalf("trial %d: bits %d vs %d", trial, frontier.Bits(), rescan.Bits())
		}
	}
}

// Under the synchronous daemon the daemon-scheduled execution coincides with
// the synchronous Step loop, coin for coin.
func TestDaemonSynchronousMatchesStep(t *testing.T) {
	g := graph.Gnp(80, 0.06, xrand.New(9))
	sync := newTestCore(g, 3, Options{NoopWhenIdle: true})
	daem := newTestCore(g, 3, Options{NoopWhenIdle: true})
	rng := xrand.New(99)
	for i := 0; i < 4000 && !sync.Stabilized(); i++ {
		sync.Step()
		daem.DaemonStep(sched.Synchronous{}, rng)
		if !statesEqual(sync, daem) {
			t.Fatalf("round %d: synchronous daemon diverged from Step", sync.Round())
		}
	}
	if !daem.Stabilized() || sync.Bits() != daem.Bits() {
		t.Fatalf("stabilized=%v bits %d vs %d", daem.Stabilized(), sync.Bits(), daem.Bits())
	}
}

// Central daemons move one vertex per step and must still stabilize, with
// exact move/step accounting and intact incremental structures.
func TestDaemonCentralStabilizes(t *testing.T) {
	daemons := []sched.Daemon{
		sched.CentralAdversarial{},
		sched.CentralRandom{},
		sched.DistributedRandom{},
		&sched.RoundRobin{},
	}
	for _, d := range daemons {
		g := graph.Gnp(60, 0.08, xrand.New(10))
		e := newTestCore(g, 4, Options{NoopWhenIdle: true})
		rng := xrand.New(5)
		steps, ok := e.DaemonRun(d, rng, 200000)
		if !ok {
			t.Fatalf("%s: did not stabilize in %d steps", d.Name(), steps)
		}
		if e.Steps() != steps || e.Moves() == 0 {
			t.Fatalf("%s: accounting steps=%d/%d moves=%d", d.Name(), e.Steps(), steps, e.Moves())
		}
		if err := e.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
	}
}

func TestNoopWhenIdle(t *testing.T) {
	// Path(2), both vertices black: stabilizes to a single black. After
	// stabilization Step must not advance the round counter.
	g := graph.Gnp(30, 0.2, xrand.New(11))
	e := newTestCore(g, 5, Options{NoopWhenIdle: true})
	for i := 0; i < 4000 && !e.Stabilized(); i++ {
		e.Step()
	}
	if !e.Stabilized() {
		t.Fatal("did not stabilize")
	}
	round, bits := e.Round(), e.Bits()
	e.Step()
	if e.Round() != round || e.Bits() != bits {
		t.Fatal("Step on quiescent engine advanced the execution")
	}
}

func TestCompleteFastPathMatchesGeneric(t *testing.T) {
	g := graph.Complete(48)
	fast := newTestCore(g, 6, Options{NoopWhenIdle: true})
	slow := newTestCore(g, 6, Options{NoopWhenIdle: true})
	slow.DisableCompleteFastPath()
	if !fast.Complete() || slow.Complete() {
		t.Fatal("fast-path flags wrong")
	}
	for i := 0; i < 100000 && !fast.Stabilized(); i++ {
		fast.Step()
		slow.Step()
		if !statesEqual(fast, slow) {
			t.Fatalf("round %d: fast path diverged", fast.Round())
		}
	}
	if !slow.Stabilized() || fast.Bits() != slow.Bits() {
		t.Fatal("fast/generic accounting mismatch")
	}
}

func TestOptionValidation(t *testing.T) {
	g := graph.Path(3)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero bias", func() { newTestCore(g, 1, Options{Bias: -1}) })
	mustPanic("bias 1", func() { newTestCore(g, 1, Options{Bias: 1}) })
	mustPanic("short state", func() {
		New(graph.Path(3), testRule{}, make([]uint8, 2),
			make([]*xrand.Rand, 3), Options{Bias: 0.5})
	})
}

// DaemonRun's budget is relative to the current position: a second call
// after a capped run must execute further steps, not return immediately.
func TestDaemonRunBudgetIsRelative(t *testing.T) {
	g := graph.Gnp(80, 0.06, xrand.New(12))
	e := newTestCore(g, 7, Options{NoopWhenIdle: true})
	rng := xrand.New(3)
	steps, ok := e.DaemonRun(sched.CentralAdversarial{}, rng, 5)
	if ok || steps != 5 {
		t.Fatalf("first capped run: steps=%d ok=%v", steps, ok)
	}
	for !ok {
		before := e.Steps()
		steps, ok = e.DaemonRun(sched.CentralAdversarial{}, rng, 50)
		if !ok && e.Steps() != before+50 {
			t.Fatalf("retry did not extend the run: %d -> %d", before, e.Steps())
		}
		if e.Steps() > 100000 {
			t.Fatal("no stabilization")
		}
	}
	if err := e.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
