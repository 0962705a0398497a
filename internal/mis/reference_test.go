package mis

// Differential tests: the optimized simulators must agree with the naive
// reference transcriptions of the paper's definitions on every state of
// every round, across random graphs, seeds and adversarial initializations.

import (
	"testing"
	"testing/quick"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

func TestTwoStateMatchesReference(t *testing.T) {
	master := xrand.New(71)
	f := func(seed uint64) bool {
		r := master.Split(seed)
		n := 2 + r.Intn(60)
		g := graph.Gnp(n, r.Float64()*0.4, r)
		opt := NewTwoState(g, WithSeed(seed))
		ref := NewRefTwoState(g, seed, opt.BlackMask())
		for i := 0; i < 200 && !opt.Stabilized(); i++ {
			opt.Step()
			ref.Step()
			for u := 0; u < n; u++ {
				if opt.Black(u) != ref.Black(u) {
					return false
				}
			}
			if opt.Stabilized() != ref.Stabilized() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoStateCompleteFastPathMatchesReference(t *testing.T) {
	// The clique fast path (global black count instead of per-vertex
	// counters) against the oracle.
	g := graph.Complete(48)
	for seed := uint64(0); seed < 10; seed++ {
		opt := NewTwoState(g, WithSeed(seed))
		ref := NewRefTwoState(g, seed, opt.BlackMask())
		for i := 0; i < 500 && !opt.Stabilized(); i++ {
			opt.Step()
			ref.Step()
			for u := 0; u < g.N(); u++ {
				if opt.Black(u) != ref.Black(u) {
					t.Fatalf("seed %d round %d: fast path diverged at %d", seed, i+1, u)
				}
			}
		}
		if !opt.Stabilized() || !ref.Stabilized() {
			t.Fatalf("seed %d: stabilization mismatch", seed)
		}
	}
}

func TestThreeStateMatchesReference(t *testing.T) {
	master := xrand.New(72)
	f := func(seed uint64) bool {
		r := master.Split(seed)
		n := 2 + r.Intn(50)
		g := graph.Gnp(n, r.Float64()*0.4, r)
		opt := NewThreeState(g, WithSeed(seed))
		initial := make([]TriState, n)
		for u := 0; u < n; u++ {
			initial[u] = opt.State(u)
		}
		ref := NewRefThreeState(g, seed, initial)
		for i := 0; i < 200; i++ {
			opt.Step()
			ref.Step()
			for u := 0; u < n; u++ {
				if opt.State(u) != ref.State(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestThreeColorMatchesReference(t *testing.T) {
	master := xrand.New(73)
	f := func(seed uint64) bool {
		r := master.Split(seed)
		n := 2 + r.Intn(40)
		g := graph.Gnp(n, r.Float64()*0.5, r)
		opt := NewThreeColor(g, WithSeed(seed))
		colors := make([]Color, n)
		levels := make([]uint8, n)
		for u := 0; u < n; u++ {
			colors[u] = opt.ColorOf(u)
			levels[u] = opt.SwitchLevel(u)
		}
		ref := NewRefThreeColor(g, seed, colors, levels)
		for i := 0; i < 300; i++ {
			opt.Step()
			ref.Step()
			for u := 0; u < n; u++ {
				if opt.ColorOf(u) != ref.ColorOf(u) || opt.SwitchLevel(u) != ref.Level(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Several full switch cycles on a mid-size sparse graph, with a burst of
// mid-run corruption: the event-driven clock evaluates only top vertices
// and the neighborhoods of last round's level changes, and Corrupt must
// invalidate that candidate set. Both vertex orders (the relabeled clock
// lives in relabeled ids) must replay the oracle color for color and
// level for level every round.
func TestThreeColorMatchesReferenceLong(t *testing.T) {
	g := graph.GnpAvgDegree(2000, 6, xrand.New(74))
	const rounds, corruptAt = 1600, 700
	for _, order := range []struct {
		name string
		opt  Option
	}{{"identity", WithIdentityOrder()}, {"degree", WithDegreeOrder()}} {
		t.Run(order.name, func(t *testing.T) {
			const seed = 75
			opt := NewThreeColor(g, WithSeed(seed), order.opt)
			colors := make([]Color, g.N())
			levels := make([]uint8, g.N())
			for u := range colors {
				colors[u] = opt.ColorOf(u)
				levels[u] = opt.SwitchLevel(u)
			}
			ref := NewRefThreeColor(g, seed, colors, levels)
			mut := xrand.New(76)
			for i := 1; i <= rounds; i++ {
				if i == corruptAt {
					for k := 0; k < 40; k++ {
						u, c, l := mut.Intn(g.N()), Color(1+mut.Intn(3)), uint8(mut.Intn(6))
						opt.Corrupt(u, c, l)
						ref.color[u], ref.level[u] = c, l
					}
				}
				opt.Step()
				ref.Step()
				for u := 0; u < g.N(); u++ {
					if opt.ColorOf(u) != ref.ColorOf(u) || opt.SwitchLevel(u) != ref.Level(u) {
						t.Fatalf("round %d: vertex %d is (%v, %d), oracle (%v, %d)", i, u,
							opt.ColorOf(u), opt.SwitchLevel(u), ref.ColorOf(u), ref.Level(u))
					}
				}
			}
		})
	}
}

func TestThreeColorCliqueFastPathMatchesReference(t *testing.T) {
	// The phase clock takes a global-max fast path on complete graphs; the
	// oracle never does. They must still agree.
	g := graph.Complete(24)
	for seed := uint64(0); seed < 5; seed++ {
		opt := NewThreeColor(g, WithSeed(seed))
		colors := make([]Color, g.N())
		levels := make([]uint8, g.N())
		for u := 0; u < g.N(); u++ {
			colors[u] = opt.ColorOf(u)
			levels[u] = opt.SwitchLevel(u)
		}
		ref := NewRefThreeColor(g, seed, colors, levels)
		for i := 0; i < 400; i++ {
			opt.Step()
			ref.Step()
			for u := 0; u < g.N(); u++ {
				if opt.ColorOf(u) != ref.ColorOf(u) || opt.SwitchLevel(u) != ref.Level(u) {
					t.Fatalf("seed %d round %d: clique fast path diverged at %d", seed, i+1, u)
				}
			}
		}
	}
}
