package engine

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// newCtxCore mirrors newTestCore but leases all scratch (including the
// per-vertex streams and the state vector) from a RunContext.
func newCtxCore(g *graph.Graph, seed uint64, ctx *RunContext, opts Options) *Core {
	master := xrand.New(seed)
	n := g.N()
	state := ctx.Uint8Buf(n)
	init := master.Split(uint64(n) + 1)
	for u := range state {
		state[u] = tWhite
		if init.Bit() {
			state[u] = tBlack
		}
	}
	if opts.Bias == 0 {
		opts.Bias = 0.5
	}
	opts.Ctx = ctx
	return New(g, testRule{}, state, ctx.VertexStreams(n, master), opts)
}

// run advances e to stabilization (bounded) and returns (rounds, bits, states copy).
func runToStable(t *testing.T, e *Core) (int, int64, []uint8) {
	t.Helper()
	for i := 0; !e.Stabilized() && i < 1<<20; i++ {
		e.Step()
	}
	if !e.Stabilized() {
		t.Fatal("engine did not stabilize")
	}
	return e.Round(), e.Bits(), append([]uint8(nil), e.States()...)
}

// A context-backed execution must be bit-identical to a fresh-allocation
// execution — across back-to-back runs of different sizes and densities on
// ONE context, so stale scratch from a larger previous run cannot leak.
func TestRunContextBitIdentical(t *testing.T) {
	ctx := NewRunContext()
	master := xrand.New(99)
	// Deliberately interleave sizes (large, small, large) and include a
	// complete graph so the fast path runs on recycled scratch too.
	graphs := []*graph.Graph{
		graph.Gnp(300, 0.02, master.Split(1)),
		graph.Complete(64),
		graph.Gnp(50, 0.2, master.Split(2)),
		graph.Gnp(300, 0.02, master.Split(1)),
		graph.Path(17),
	}
	for trial, g := range graphs {
		seed := uint64(1000 + trial)
		fresh := newTestCore(g, seed, Options{NoopWhenIdle: true})
		fr, fb, fs := runToStable(t, fresh)

		leased := newCtxCore(g, seed, ctx, Options{NoopWhenIdle: true})
		lr, lb, ls := runToStable(t, leased)
		if fr != lr || fb != lb {
			t.Fatalf("trial %d: fresh (rounds=%d bits=%d) vs leased (rounds=%d bits=%d)",
				trial, fr, fb, lr, lb)
		}
		for u := range fs {
			if fs[u] != ls[u] {
				t.Fatalf("trial %d: state of %d differs", trial, u)
			}
		}
		if err := leased.CheckIntegrity(); err != nil {
			t.Fatalf("trial %d: leased integrity: %v", trial, err)
		}
	}
}

// Reusing a context across many runs must not allocate per run beyond the
// engine core struct itself (the amortization claim behind internal/batch).
func TestRunContextAmortizesAllocations(t *testing.T) {
	g := graph.Gnp(400, 0.02, xrand.New(5))
	ctx := NewRunContext()
	// Warm the context to its steady-state capacity.
	runToStable(t, newCtxCore(g, 1, ctx, Options{NoopWhenIdle: true}))
	avg := testing.AllocsPerRun(20, func() {
		e := newCtxCore(g, 2, ctx, Options{NoopWhenIdle: true})
		for i := 0; !e.Stabilized() && i < 1<<20; i++ {
			e.Step()
		}
	})
	// A fresh-allocation run costs O(n) allocations (one per vertex stream
	// alone); a context-backed run must stay O(1).
	if avg > 16 {
		t.Fatalf("context-backed run averaged %.1f allocations, want O(1)", avg)
	}
}
