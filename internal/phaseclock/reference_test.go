package phaseclock

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// refClock is the clock rule as a verbatim full sweep: every vertex, every
// round, reads the closed-neighborhood max into a second level array. The
// event-driven Clock must replay it level for level and coin for coin.
type refClock struct {
	g            *graph.Graph
	top          uint8
	zetaLog2     uint
	levels, next []uint8
	bits         int64
}

func newRefClock(g *graph.Graph, d int, zetaLog2 uint, levels []uint8) *refClock {
	return &refClock{
		g:        g,
		top:      uint8(d + 2),
		zetaLog2: zetaLog2,
		levels:   append([]uint8(nil), levels...),
		next:     make([]uint8, len(levels)),
	}
}

func (r *refClock) step(rngs []*xrand.Rand) {
	for u, l := range r.levels {
		stayTop := false
		if l == r.top {
			stayTop = !rngs[u].BernoulliPow2(r.zetaLog2)
			r.bits += int64(r.zetaLog2)
		}
		if stayTop || l == 0 {
			r.next[u] = r.top
			continue
		}
		m := l
		for _, v := range r.g.Neighbors(u) {
			if r.levels[v] > m {
				m = r.levels[v]
			}
		}
		r.next[u] = m - 1
	}
	r.levels, r.next = r.next, r.levels
}

// splitStreams returns n per-vertex streams split from seed.
func splitStreams(n int, seed uint64) []*xrand.Rand {
	master := xrand.New(seed)
	rngs := make([]*xrand.Rand, n)
	for u := range rngs {
		rngs[u] = master.Split(uint64(u))
	}
	return rngs
}

// fuzzGraph builds one of the differential's graph families: Gnp (sparse
// to dense), path, star or complete.
func fuzzGraph(family uint8, n int, density uint8, rng *xrand.Rand) *graph.Graph {
	switch family % 4 {
	case 0:
		return graph.Gnp(n, float64(density%64+1)/256, rng)
	case 1:
		return graph.Path(n)
	case 2:
		return graph.Star(n)
	default:
		return graph.Complete(n)
	}
}

// runDifferential drives a Clock and the full-sweep reference in lockstep
// over the given graph, from random levels, with mid-run SetLevel and
// Rebind events drawn from seed, and fails on the first round whose levels
// or bit count differ.
func runDifferential(t *testing.T, g *graph.Graph, d int, zetaLog2 uint, rounds, events int, seed uint64, rebindTo func(rng *xrand.Rand) *graph.Graph) {
	t.Helper()
	n := g.N()
	rng := xrand.New(seed)
	c := New(g, WithD(d), WithZetaLog2(zetaLog2))
	c.RandomizeLevels(rng.Split(1))
	levels := make([]uint8, n)
	for u := range levels {
		levels[u] = c.Level(u)
	}
	ref := newRefClock(g, d, zetaLog2, levels)
	crngs, rrngs := splitStreams(n, seed), splitStreams(n, seed)
	ev := rng.Split(2)
	eventAt := make(map[int]int) // round → number of events fired before it
	for i := 0; i < events; i++ {
		eventAt[ev.Intn(rounds)]++
	}
	for r := 0; r < rounds; r++ {
		for k := 0; k < eventAt[r]; k++ {
			if rebindTo != nil && ev.Intn(4) == 0 {
				h := rebindTo(ev)
				c.Rebind(h)
				ref.g = h
				continue
			}
			u, l := ev.Intn(n), uint8(ev.Intn(int(c.Top())+1))
			c.SetLevel(u, l)
			ref.levels[u] = l
		}
		c.Step(func(u int) *xrand.Rand { return crngs[u] })
		ref.step(rrngs)
		if c.RandomBits() != ref.bits {
			t.Fatalf("round %d: bits %d, reference %d", r, c.RandomBits(), ref.bits)
		}
		for u := 0; u < n; u++ {
			if c.Level(u) != ref.levels[u] {
				t.Fatalf("round %d: level(%d) = %d, reference %d", r, u, c.Level(u), ref.levels[u])
			}
		}
	}
}

// FuzzClockMatchesReference is the native differential for the
// event-driven clock: Gnp, path, star and complete graphs, D in 1..6, ζ in
// 2^-1..2^-7, random initial levels, and mid-run SetLevel and Rebind (to a
// fresh graph of a random family, which may flip the complete-graph path).
// Levels and random bits must equal the full sweep after every round.
func FuzzClockMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(120), uint8(2), uint8(6), uint8(4), uint8(3))
	f.Add(uint64(2), uint8(1), uint16(40), uint8(0), uint8(2), uint8(0), uint8(5))
	f.Add(uint64(3), uint8(2), uint16(33), uint8(5), uint8(3), uint8(0), uint8(2))
	f.Add(uint64(4), uint8(3), uint16(17), uint8(2), uint8(1), uint8(0), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, family uint8, nRaw uint16, dRaw, zRaw, density, events uint8) {
		n := 1 + int(nRaw%200)
		d := 1 + int(dRaw%6)
		zetaLog2 := 1 + uint(zRaw%7)
		g := fuzzGraph(family, n, density, xrand.New(seed))
		rebind := func(rng *xrand.Rand) *graph.Graph { return fuzzGraph(uint8(rng.Intn(4)), n, density, rng) }
		runDifferential(t, g, d, zetaLog2, 300, int(events%12), seed, rebind)
	})
}

// Larger instances than the fuzz bounds, over several full clock cycles:
// the paper's D = 3, ζ = 2^-7 switch on sparse and dense random graphs,
// with SetLevel and Rebind events mid-run.
func TestClockMatchesReferenceLarge(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		rounds int
	}{
		{"gnp-avg10", graph.GnpAvgDegree(5000, 10, xrand.New(1)), 1500},
		{"gnp-dense", graph.Gnp(600, 0.05, xrand.New(2)), 1500},
		{"gnp-sparse", graph.Gnp(2000, 0.001, xrand.New(3)), 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			rebind := func(rng *xrand.Rand) *graph.Graph { return graph.GnpAvgDegree(n, 8, rng) }
			runDifferential(t, tc.g, 3, DefaultZetaLog2, tc.rounds, 6, 7, rebind)
		})
	}
}
