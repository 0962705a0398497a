package mis

import (
	"runtime"
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// A context-backed 3-color run must be bit-identical to a fresh-allocation
// run — including the switch sub-process, whose level arrays now lease
// from the context too.
func TestThreeColorRunContextBitIdentical(t *testing.T) {
	ctx := engine.NewRunContext()
	// Interleave sizes so stale clock buffers from a larger previous run
	// cannot leak into a smaller one.
	graphs := []*graph.Graph{
		graph.Gnp(300, 0.02, xrand.New(1)),
		graph.Gnp(60, 0.2, xrand.New(2)),
		graph.Gnp(300, 0.02, xrand.New(1)),
	}
	for trial, g := range graphs {
		seed := uint64(50 + trial)
		fresh := NewThreeColor(g, WithSeed(seed))
		leased := NewThreeColor(g, WithRunContext(ctx), WithSeed(seed))
		cap := 4 * DefaultRoundCap(g.N())
		fr := Run(fresh, cap)
		lr := Run(leased, cap)
		if fr != lr {
			t.Fatalf("trial %d: fresh %+v vs leased %+v", trial, fr, lr)
		}
		for u := 0; u < g.N(); u++ {
			if fresh.ColorOf(u) != leased.ColorOf(u) || fresh.SwitchLevel(u) != leased.SwitchLevel(u) {
				t.Fatalf("trial %d: vertex %d diverged (color %v/%v, level %d/%d)", trial, u,
					fresh.ColorOf(u), leased.ColorOf(u), fresh.SwitchLevel(u), leased.SwitchLevel(u))
			}
		}
	}
}

// The pool-backed 3-color clock closes the last per-run O(n) allocation of
// the 18-state process: with a warm run context, a full construct-and-run
// cycle must stay O(1) allocations (ROADMAP "pool-backed 3-color clock").
func TestThreeColorRunContextAmortizesAllocations(t *testing.T) {
	g := graph.Gnp(1024, 0.008, xrand.New(9))
	ctx := engine.NewRunContext()
	runOnce := func(seed uint64) {
		p := NewThreeColor(g, WithRunContext(ctx), WithSeed(seed))
		if res := Run(p, 4*DefaultRoundCap(g.N())); !res.Stabilized {
			t.Fatal("did not stabilize")
		}
	}
	runOnce(1) // warm the context to steady-state capacity
	avg := testing.AllocsPerRun(10, func() { runOnce(2) })
	// A fresh run pays O(n) allocations (vertex streams, state, bitsets,
	// clock level arrays); a context-backed run must not scale with n.
	if avg > 24 {
		t.Fatalf("context-backed 3-color run averaged %.1f allocations, want O(1)", avg)
	}
}

// With a warm run context, a round of the 3-state process allocates
// nothing. The graph is an id-scrambled Chung-Lu instance (hubs scattered
// through the id space, the shape of perfbench's chunglu1m-3state-par
// workload at a test size), and the process is built with WithWorkers(2)
// as that workload builds it: the deprecated option must not bring back a
// per-round cost.
func TestThreeStateStepAllocationFree(t *testing.T) {
	g := graph.ChungLu(8192, 2.5, 10, xrand.New(5))
	g = graph.Relabel(g, randPermI32(g.N(), xrand.New(6)))
	ctx := engine.NewRunContext()
	mk := func() *ThreeState { return NewThreeState(g, WithRunContext(ctx), WithSeed(3), WithWorkers(2)) }
	// Warm the context on the same execution that is measured, so every
	// append-grown buffer already has the capacity the measured rounds need.
	res := Run(mk(), 4*DefaultRoundCap(g.N()))
	if !res.Stabilized || res.Rounds < 2 {
		t.Fatalf("warm-up run %+v", res)
	}
	p := mk()
	// AllocsPerRun calls Step once more than asked: res.Rounds steps in all.
	if avg := testing.AllocsPerRun(res.Rounds-1, p.Step); avg != 0 {
		t.Fatalf("Step averaged %.2f allocations per round on a warm context, want 0", avg)
	}
	if !p.Stabilized() || p.Round() != res.Rounds {
		t.Fatalf("measured run at round %d (stabilized=%v), warm-up %+v", p.Round(), p.Stabilized(), res)
	}
}

// With a warm run context, a round of the 3-color process allocates
// nothing: the engine's scratch and the event-driven switch's bitsets and
// change list all lease from the context. The graph is a test-size
// G(n, avg degree 10), the family of perfbench's gnp30k-3color workload.
func TestThreeColorStepAllocationFree(t *testing.T) {
	g := graph.GnpAvgDegree(4096, 10, xrand.New(7))
	ctx := engine.NewRunContext()
	mk := func() *ThreeColor { return NewThreeColor(g, WithRunContext(ctx), WithSeed(4)) }
	// Warm the context on the same execution that is measured, so every
	// append-grown buffer already has the capacity the measured rounds need.
	res := Run(mk(), 4*DefaultRoundCap(g.N()))
	if !res.Stabilized || res.Rounds < 2 {
		t.Fatalf("warm-up run %+v", res)
	}
	// Count every allocation of a whole run rather than AllocsPerRun's
	// per-round average, which rounds down: one buffer growth in a
	// thousand rounds must fail too. MemStats counts process-wide, so a
	// background goroutine of the runtime or the test framework can land
	// in a window now and then; the run is repeated (the same execution on
	// the same warm context) and the fewest allocations must be zero. As
	// in AllocsPerRun, one P keeps other goroutines mostly out.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := ^uint64(0)
	for attempt := 0; attempt < 3 && fewest != 0; attempt++ {
		p := mk()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < res.Rounds; i++ {
			p.Step()
		}
		runtime.ReadMemStats(&after)
		if !p.Stabilized() || p.Round() != res.Rounds {
			t.Fatalf("measured run at round %d (stabilized=%v), warm-up %+v", p.Round(), p.Stabilized(), res)
		}
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	if fewest != 0 {
		t.Fatalf("%d rounds made at least %d allocations on a warm context, want 0", res.Rounds, fewest)
	}
}
