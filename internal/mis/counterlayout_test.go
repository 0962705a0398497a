package mis

import (
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// counterPlaneOf exposes the engine's resolved counter-plane geometry for a
// process (the zero Info on the complete-graph fast path).
func counterPlaneOf(p Process) engine.CounterPlaneInfo {
	switch q := p.(type) {
	case *TwoState:
		return q.core.CounterPlane()
	case *ThreeState:
		return q.core.CounterPlane()
	case *ThreeColor:
		return q.core.CounterPlane()
	default:
		return engine.CounterPlaneInfo{}
	}
}

// The auto layout policy, observed through the public geometry: a star packs
// one hub and a unit-degree tail (split, byte lanes); a bounded-degree
// caterpillar has no hub prefix (narrow); weight-sorted power-law ids pack a
// whole lane word of hubs first (split, populated prefix); the complete
// graph runs its fast path with no plane at all.
func TestCounterLayoutAuto(t *testing.T) {
	cases := []struct {
		name      string
		g         *graph.Graph
		layout    engine.CounterLayout
		widthBits int
		minHub    int
	}{
		{"star", graph.Star(700), engine.LayoutSplit, 8, 1},
		{"caterpillar", graph.Caterpillar(120, 5), engine.LayoutNarrow, 8, 0},
		{"powerlaw", graph.ChungLu(8000, 2.0, 10, xrand.New(42)), engine.LayoutSplit, 8, 64},
	}
	for _, c := range cases {
		info := counterPlaneOf(NewTwoState(c.g, WithSeed(1)))
		if !info.Active || info.FellBack {
			t.Fatalf("%s: plane inactive or fell back: %+v", c.name, info)
		}
		if info.Layout != c.layout || info.WidthBits != c.widthBits || info.HubLen < c.minHub {
			t.Fatalf("%s: resolved %+v, want layout=%v width=%d hub>=%d",
				c.name, info, c.layout, c.widthBits, c.minHub)
		}
	}
	if info := counterPlaneOf(NewTwoState(graph.Complete(256), WithSeed(1))); info.Active {
		t.Fatalf("complete graph configured a counter plane: %+v", info)
	}
}

// The loud fallback: forcing narrow lanes on a star whose center degree
// exceeds 16 bits cannot honor a sub-32-bit width, so the plane must fall
// back to int32 and say so — and the fallback execution must still replay
// the flat layout bit for bit. A forced split on the same graph needs no
// fallback: the center lands in the hub prefix and the tail is unit-degree.
func TestCounterLayoutOverflowFallback(t *testing.T) {
	g := graph.Star(70000) // center degree 69999 > 0xFFFF
	cap := 4 * DefaultRoundCap(g.N())

	flat := NewTwoState(g, WithSeed(9), WithCounterLayout(engine.LayoutFlat))
	if info := counterPlaneOf(flat); !info.Active || info.WidthBits != 32 || info.FellBack {
		t.Fatalf("flat plane: %+v", info)
	}
	flatRes := Run(flat, cap)
	if !flatRes.Stabilized {
		t.Fatal("flat run did not stabilize")
	}

	narrow := NewTwoState(g, WithSeed(9), WithCounterLayout(engine.LayoutNarrow))
	info := counterPlaneOf(narrow)
	if !info.Active || !info.FellBack || info.WidthBits != 32 || info.HubLen != 0 {
		t.Fatalf("forced narrow on star(70000) resolved %+v, want a loud int32 fallback", info)
	}
	if res := Run(narrow, cap); res != flatRes {
		t.Fatalf("fallback run %+v, flat %+v", res, flatRes)
	}
	for u := 0; u < g.N(); u++ {
		if narrow.Black(u) != flat.Black(u) {
			t.Fatalf("color of %d diverged between fallback and flat", u)
		}
	}

	split := NewTwoState(g, WithSeed(9), WithCounterLayout(engine.LayoutSplit))
	if info := counterPlaneOf(split); !info.Active || info.FellBack || info.WidthBits != 8 || info.HubLen != 1 {
		t.Fatalf("forced split on star(70000) resolved %+v, want hub=1 byte tail", info)
	}
	if res := Run(split, cap); res != flatRes {
		t.Fatalf("split run %+v, flat %+v", res, flatRes)
	}
}

// A run context leased across graphs whose planes resolve to different
// layouts (split -> narrow -> flat fallback -> split) must reconfigure the
// plane without leaking cells between runs: each context-backed run must
// equal its context-free execution exactly. CheckIntegrity-style layout
// invariants are enforced inside the engine; here the observable contract
// is checked end to end.
func TestCounterLayoutRunContextReuse(t *testing.T) {
	ctx := engine.NewRunContext()
	graphs := []*graph.Graph{
		graph.ChungLu(8000, 2.0, 10, xrand.New(42)), // split, byte tail
		graph.Caterpillar(200, 3),                   // narrow, byte lanes
		graph.Star(70000),                           // narrow request would fall back; auto picks split
		graph.Gnp(500, 0.05, xrand.New(8)),          // narrow
	}
	for i, g := range graphs {
		seed := uint64(20 + i)
		cap := 4 * DefaultRoundCap(g.N())
		ref := Run(NewThreeState(g, WithSeed(seed)), cap)
		got := Run(NewThreeState(g, WithSeed(seed), WithRunContext(ctx)), cap)
		if got != ref {
			t.Fatalf("graph %d: context-backed %+v vs fresh %+v", i, got, ref)
		}
	}
}

// Forced layouts must keep checkpoint/restore exact: a run checkpointed
// mid-flight under the split plane and restored under flat (and vice versa)
// continues the identical execution — the plane is storage, not state.
func TestCounterLayoutCheckpointCrossLayout(t *testing.T) {
	g := graph.ChungLu(3000, 2.0, 8, xrand.New(7))
	cap := 4 * DefaultRoundCap(g.N())
	for _, pair := range [][2]engine.CounterLayout{
		{engine.LayoutSplit, engine.LayoutFlat},
		{engine.LayoutFlat, engine.LayoutNarrow},
	} {
		ref := NewTwoState(g, WithSeed(33), WithCounterLayout(pair[0]))
		for i := 0; i < 3 && !ref.Stabilized(); i++ {
			ref.Step()
		}
		ck, err := ref.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		refRes := Run(ref, cap)
		restored, err := RestoreTwoState(g, ck, WithCounterLayout(pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		if res := Run(restored, cap); res != refRes {
			t.Fatalf("%v->%v: restored %+v, reference %+v", pair[0], pair[1], res, refRes)
		}
		for u := 0; u < g.N(); u++ {
			if restored.Black(u) != ref.Black(u) {
				t.Fatalf("%v->%v: color of %d diverged", pair[0], pair[1], u)
			}
		}
	}
}
