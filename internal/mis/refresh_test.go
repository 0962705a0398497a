package mis

import (
	"fmt"
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// Determinism matrix for the engine's membership refresh: every process ×
// forced uneven frontiers (star: one hub word saturates, leaf words go
// quiet; caterpillar: churn concentrates on the spine; complete: dirtyAll
// forces the O(n) full rescan every changing round) × frontier/full-rescan.
// Summaries, per-vertex colors, and the coveredAt stamps behind the
// local-times instrument must be byte-identical to the frontier run.
func TestRefreshDeterminismMatrix(t *testing.T) {
	type proc struct {
		name string
		mk   func(g *graph.Graph, opts ...Option) Process
	}
	procs := []proc{
		{"2-state", func(g *graph.Graph, opts ...Option) Process { return NewTwoState(g, opts...) }},
		{"3-state", func(g *graph.Graph, opts ...Option) Process { return NewThreeState(g, opts...) }},
		{"3-color", func(g *graph.Graph, opts ...Option) Process { return NewThreeColor(g, opts...) }},
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(700)},
		{"caterpillar", graph.Caterpillar(120, 5)},
		{"complete", graph.Complete(256)},
		// Weight-sorted power-law ids pack >= 64 hubs first, so the counter
		// plane resolves to the hub/tail split with a whole pure-hub lane
		// word.
		{"powerlaw", graph.ChungLu(8000, 2.0, 10, xrand.New(42))},
	}
	type timed interface{ StabilizationTimes() []int }
	for _, pr := range procs {
		for _, gc := range graphs {
			cap := 4 * DefaultRoundCap(gc.g.N())
			base := pr.mk(gc.g, WithSeed(77), WithLocalTimes())
			baseRes := Run(base, cap)
			if !baseRes.Stabilized {
				t.Fatalf("%s/%s: frontier run did not stabilize", pr.name, gc.name)
			}
			if err := verify.MIS(gc.g, base.Black); err != nil {
				t.Fatalf("%s/%s: %v", pr.name, gc.name, err)
			}
			baseTimes := base.(timed).StabilizationTimes()
			name := fmt.Sprintf("%s/%s/full-rescan", pr.name, gc.name)
			p := pr.mk(gc.g, WithSeed(77), WithLocalTimes(), WithFullRescan())
			if res := Run(p, cap); res != baseRes {
				t.Fatalf("%s: summary %+v, frontier %+v", name, res, baseRes)
			}
			for u := 0; u < gc.g.N(); u++ {
				if p.Black(u) != base.Black(u) {
					t.Fatalf("%s: color of %d diverged", name, u)
				}
			}
			pts := p.(timed).StabilizationTimes()
			for u, bt := range baseTimes {
				if pts[u] != bt {
					t.Fatalf("%s: coveredAt stamp of %d is %d, frontier %d", name, u, pts[u], bt)
				}
			}
		}
	}

	// Kernel-vs-scalar and relabel axes. All three processes above execute
	// on the bit-sliced kernel (auto-selected); here the scalar interface
	// path in original vertex order is forced as the golden reference and
	// every kernel configuration — frontier and
	// full-rescan, with and without the degree-bucketed locality
	// relabeling — must reproduce it byte for byte: summaries, colors, and
	// the coveredAt stamps.
	for _, pr := range procs {
		for _, gc := range graphs {
			cap := 4 * DefaultRoundCap(gc.g.N())
			scal := pr.mk(gc.g, WithSeed(77), WithLocalTimes(), WithScalarEngine(), WithIdentityOrder())
			scalRes := Run(scal, cap)
			if !scalRes.Stabilized {
				t.Fatalf("%s/%s: scalar run did not stabilize", pr.name, gc.name)
			}
			scalTimes := scal.(timed).StabilizationTimes()
			for _, rescan := range []bool{false, true} {
				for _, relabel := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/kernel rescan=%v relabel=%v",
						pr.name, gc.name, rescan, relabel)
					opts := []Option{WithSeed(77), WithLocalTimes()}
					if rescan {
						opts = append(opts, WithFullRescan())
					}
					if relabel {
						opts = append(opts, WithDegreeOrder())
					} else {
						opts = append(opts, WithIdentityOrder())
					}
					p := pr.mk(gc.g, opts...)
					if !kernelEngaged(p) {
						t.Fatalf("%s: kernel did not engage", name)
					}
					if res := Run(p, cap); res != scalRes {
						t.Fatalf("%s: summary %+v, scalar %+v", name, res, scalRes)
					}
					for u := 0; u < gc.g.N(); u++ {
						if p.Black(u) != scal.Black(u) {
							t.Fatalf("%s: color of %d diverged", name, u)
						}
					}
					for u, st := range scalTimes {
						if pt := p.(timed).StabilizationTimes()[u]; pt != st {
							t.Fatalf("%s: coveredAt stamp of %d is %d, scalar %d", name, u, pt, st)
						}
					}
				}
			}
			// Counter-layout axis: every forced plane layout — flat, narrow,
			// width-adaptive lanes, hub/tail split — on the frontier and
			// full-rescan refresh paths must reproduce the same scalar golden
			// byte for byte: summaries, colors, coveredAt stamps. The plane
			// changes where counters are stored, never what a read returns.
			for _, layout := range []engine.CounterLayout{engine.LayoutFlat, engine.LayoutNarrow, engine.LayoutSplit} {
				for _, rescan := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/kernel layout=%v rescan=%v",
						pr.name, gc.name, layout, rescan)
					opts := []Option{WithSeed(77), WithLocalTimes(), WithIdentityOrder(), WithCounterLayout(layout)}
					if rescan {
						opts = append(opts, WithFullRescan())
					}
					p := pr.mk(gc.g, opts...)
					if info := counterPlaneOf(p); info.Active && info.Layout != layout {
						t.Fatalf("%s: plane resolved to %v", name, info.Layout)
					}
					if res := Run(p, cap); res != scalRes {
						t.Fatalf("%s: summary %+v, scalar %+v", name, res, scalRes)
					}
					for u := 0; u < gc.g.N(); u++ {
						if p.Black(u) != scal.Black(u) {
							t.Fatalf("%s: color of %d diverged", name, u)
						}
					}
					for u, st := range scalTimes {
						if pt := p.(timed).StabilizationTimes()[u]; pt != st {
							t.Fatalf("%s: coveredAt stamp of %d is %d, scalar %d", name, u, pt, st)
						}
					}
				}
			}
		}
	}
}
