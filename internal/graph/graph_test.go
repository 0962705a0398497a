package graph

import (
	"math"
	"testing"
	"testing/quick"

	"ssmis/internal/xrand"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("got n=%d m=%d, want 4, 4", g.N(), g.M())
	}
	for u := 0; u < 4; u++ {
		if g.Degree(u) != 2 {
			t.Fatalf("vertex %d degree %d, want 2", u, g.Degree(u))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d after duplicate edges, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatal("duplicate edges inflated degrees")
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"self-loop":    func() { NewBuilder(3).AddEdge(1, 1) },
		"out-of-range": func() { NewBuilder(3).AddEdge(0, 3) },
		"negative":     func() { NewBuilder(3).AddEdge(-1, 0) },
		"negative-n":   func() { NewBuilder(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNeighborsSorted(t *testing.T) {
	rng := xrand.New(1)
	g := Gnp(200, 0.1, rng)
	for u := 0; u < g.N(); u++ {
		nbrs := g.Neighbors(u)
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("neighbors of %d not strictly sorted: %v", u, nbrs)
			}
		}
	}
}

func TestCSRSymmetric(t *testing.T) {
	rng := xrand.New(2)
	g := Gnp(150, 0.05, rng)
	g.Edges(func(u, v int) {
		if !g.HasEdge(v, u) {
			t.Fatalf("edge {%d,%d} not symmetric", u, v)
		}
	})
	// Degree sum equals 2m.
	sum := 0
	for u := 0; u < g.N(); u++ {
		sum += g.Degree(u)
	}
	if sum != 2*g.M() {
		t.Fatalf("degree sum %d != 2m = %d", sum, 2*g.M())
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(10)
	if g.M() != 45 {
		t.Fatalf("K_10 has %d edges, want 45", g.M())
	}
	if d := g.Diameter(); d != 1 {
		t.Fatalf("K_10 diameter %d, want 1", d)
	}
	if g.MaxDegree() != 9 {
		t.Fatal("K_10 max degree wrong")
	}
}

// MaxDegree is memoized at build time (the engine's counter-width selection
// reads it on shared read-only graphs); it must agree with a degree scan on
// every construction path — builder, relabeling, and edge edits.
func TestMaxDegreeMemo(t *testing.T) {
	scan := func(g *Graph) int {
		m := 0
		for u := 0; u < g.N(); u++ {
			if d := g.Degree(u); d > m {
				m = d
			}
		}
		return m
	}
	graphs := []*Graph{
		Path(1), Star(50), Complete(12), Caterpillar(10, 3),
		Gnp(300, 0.03, xrand.New(5)), ChungLu(500, 2.2, 6, xrand.New(5)),
	}
	for i, g := range graphs {
		if got, want := g.MaxDegree(), scan(g); got != want {
			t.Fatalf("graph %d: MaxDegree %d, scan says %d", i, got, want)
		}
		perm := make([]int32, g.N())
		for j := range perm {
			perm[j] = int32(g.N() - 1 - j)
		}
		r := Relabel(g, perm)
		if got, want := r.MaxDegree(), scan(r); got != want {
			t.Fatalf("graph %d relabeled: MaxDegree %d, scan says %d", i, got, want)
		}
	}
	g := Star(6)
	if t1 := g.WithEdgeToggled(1, 2); t1.MaxDegree() != scan(t1) {
		t.Fatal("edge toggle stale memo")
	}
	if t2 := g.WithEdgeToggled(0, 1); t2.MaxDegree() != scan(t2) {
		t.Fatal("edge removal stale memo")
	}
}

func TestPathCycleStar(t *testing.T) {
	if g := Path(5); g.M() != 4 || g.Diameter() != 4 {
		t.Fatalf("Path(5): m=%d diam=%d", g.M(), g.Diameter())
	}
	if g := Cycle(6); g.M() != 6 || g.Diameter() != 3 {
		t.Fatalf("Cycle(6): m=%d diam=%d", g.M(), g.Diameter())
	}
	if g := Star(7); g.M() != 6 || g.Degree(0) != 6 || g.Diameter() != 2 {
		t.Fatalf("Star(7) wrong")
	}
	if g := Path(1); g.N() != 1 || g.M() != 0 {
		t.Fatal("Path(1) wrong")
	}
}

func TestTreesAreTrees(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{1, 2, 3, 10, 100, 1000} {
		for name, g := range map[string]*Graph{
			"RandomTree":         RandomTree(n, rng),
			"UniformLabeledTree": UniformLabeledTree(n, rng),
		} {
			if g.N() != n {
				t.Fatalf("%s(%d) has %d vertices", name, n, g.N())
			}
			if g.M() != n-1 && n > 0 {
				t.Fatalf("%s(%d) has %d edges, want %d", name, n, g.M(), n-1)
			}
			if !g.Connected() {
				t.Fatalf("%s(%d) disconnected", name, n)
			}
		}
	}
	if g := CompleteBinaryTree(15); g.M() != 14 || !g.Connected() || g.Diameter() != 6 {
		t.Fatal("CompleteBinaryTree(15) wrong")
	}
}

func TestGridTorusHypercube(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 || g.M() != 3*3+2*4 {
		t.Fatalf("Grid(3,4): n=%d m=%d", g.N(), g.M())
	}
	if g.Diameter() != 5 {
		t.Fatalf("Grid(3,4) diameter %d, want 5", g.Diameter())
	}
	tor := Torus(4, 4)
	if tor.M() != 2*16 {
		t.Fatalf("Torus(4,4) m=%d, want 32", tor.M())
	}
	for u := 0; u < tor.N(); u++ {
		if tor.Degree(u) != 4 {
			t.Fatal("Torus not 4-regular")
		}
	}
	h := Hypercube(4)
	if h.N() != 16 || h.M() != 32 || h.Diameter() != 4 {
		t.Fatalf("Hypercube(4): n=%d m=%d diam=%d", h.N(), h.M(), h.Diameter())
	}
}

func TestDisjointCliques(t *testing.T) {
	g := DisjointCliques(4, 5)
	if g.N() != 20 || g.M() != 4*10 {
		t.Fatalf("DisjointCliques(4,5): n=%d m=%d", g.N(), g.M())
	}
	_, count := g.ConnectedComponents()
	if count != 4 {
		t.Fatalf("components = %d, want 4", count)
	}
	if g.Diameter() != -1 {
		t.Fatal("disconnected graph should report diameter -1")
	}
}

func TestCliqueChain(t *testing.T) {
	g := CliqueChain(3, 4)
	if g.N() != 12 || g.M() != 3*6+2 {
		t.Fatalf("CliqueChain(3,4): n=%d m=%d", g.N(), g.M())
	}
	if !g.Connected() {
		t.Fatal("CliqueChain disconnected")
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.N() != 7 || g.M() != 12 || g.Diameter() != 2 {
		t.Fatalf("K_{3,4}: n=%d m=%d diam=%d", g.N(), g.M(), g.Diameter())
	}
}

func TestGnpEdgeCases(t *testing.T) {
	rng := xrand.New(4)
	if g := Gnp(50, 0, rng); g.M() != 0 {
		t.Fatal("Gnp(p=0) has edges")
	}
	if g := Gnp(20, 1, rng); g.M() != 190 {
		t.Fatalf("Gnp(p=1) m=%d, want 190", g.M())
	}
	if g := Gnp(0, 0.5, rng); g.N() != 0 {
		t.Fatal("Gnp(n=0) wrong")
	}
	if g := Gnp(1, 0.5, rng); g.N() != 1 || g.M() != 0 {
		t.Fatal("Gnp(n=1) wrong")
	}
}

func TestGnpEdgeCountConcentrates(t *testing.T) {
	rng := xrand.New(5)
	// Both code paths: sparse (skipping) and dense (enumeration).
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
		const n = 400
		total := float64(n*(n-1)) / 2
		want := p * total
		// Average over a few graphs to tighten.
		sum := 0.0
		const reps = 5
		for i := 0; i < reps; i++ {
			sum += float64(Gnp(n, p, rng).M())
		}
		got := sum / reps
		sigma := sqrtf(total * p * (1 - p) / reps)
		if absf(got-want) > 6*sigma+1 {
			t.Fatalf("Gnp(%d,%.2f) mean edges %.0f, want ≈ %.0f (±%.0f)", n, p, got, want, 6*sigma)
		}
	}
}

func TestGnpPairCoverageUniform(t *testing.T) {
	// Every pair must be reachable by the sparse generator: generate many
	// sparse graphs on a small n and check each pair appears.
	rng := xrand.New(6)
	const n = 12
	seen := make(map[[2]int]bool)
	for i := 0; i < 400; i++ {
		g := Gnp(n, 0.15, rng)
		g.Edges(func(u, v int) { seen[[2]int{u, v}] = true })
	}
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("sparse Gnp covered %d/%d pairs", len(seen), n*(n-1)/2)
	}
}

func TestPairFromIndex(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 100} {
		k := int64(0)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				gu, gv := pairFromIndex(k, n)
				if gu != u || gv != v {
					t.Fatalf("pairFromIndex(%d, n=%d) = (%d,%d), want (%d,%d)", k, n, gu, gv, u, v)
				}
				k++
			}
		}
	}
}

// pairFromIndex maps a linear index k in [0, n(n-1)/2) to the k-th pair
// (u, v), u < v, in row-major order of the strict upper triangle. Gnp once
// mapped every skip index through it (a square root per edge); it stays
// here as the reference for Gnp's incremental pairWalk.
func pairFromIndex(k int64, n int) (int, int) {
	// Row u starts at offset S(u) = u*n - u*(u+3)/2 ... solve incrementally
	// via the quadratic formula on the remaining count.
	// Remaining pairs after row u-1: R(u) = (n-u)(n-u-1)/2. Find largest u
	// with k < S(u+1).
	nn := int64(n)
	// Row u covers linear indices [rowStart(u), rowStart(u+1)) where
	// rowStart(u) = u(n-1) - u(u-1)/2. Estimate u by solving the quadratic,
	// then correct by stepping (the estimate is off by at most a few units).
	rowStart := func(u int64) int64 { return u*(nn-1) - u*(u-1)/2 }
	disc := float64(2*nn-1)*float64(2*nn-1) - 8*float64(k)
	if disc < 0 {
		disc = 0
	}
	u := int64((float64(2*nn-1) - math.Sqrt(disc)) / 2)
	if u < 0 {
		u = 0
	}
	if u > nn-2 {
		u = nn - 2
	}
	for u > 0 && rowStart(u) > k {
		u--
	}
	for rowStart(u+1) <= k {
		u++
	}
	v := u + 1 + (k - rowStart(u))
	return int(u), int(v)
}

func TestPairWalkMatchesPairFromIndex(t *testing.T) {
	// Unit steps visit every index; random skips (some past the end, some
	// huge as after Geometric's clamp) check the row carries.
	rng := xrand.New(21)
	for _, n := range []int{0, 1, 2, 3, 5, 17, 100, 1000} {
		total := int64(n) * int64(n-1) / 2
		for _, maxStep := range []int{1, 3, 40, 5000} {
			w := pairWalk{n: n, u: 0, v: 1}
			k := int64(0)
			step := 0
			for {
				ok := w.advance(step)
				k += int64(step)
				if ok != (k < total) {
					t.Fatalf("n=%d: advance to index %d reported %v, total %d", n, k, ok, total)
				}
				if !ok {
					break
				}
				if u, v := pairFromIndex(k, n); w.u != u || w.v != v {
					t.Fatalf("n=%d index %d: walk at (%d,%d), pairFromIndex (%d,%d)", n, k, w.u, w.v, u, v)
				}
				step = 1 + rng.Intn(maxStep)
			}
		}
		w := pairWalk{n: n, u: 0, v: 1}
		if w.advance(maxSkip) {
			t.Fatalf("n=%d: a clamped skip stayed inside the triangle", n)
		}
	}
}

func TestSkipSamplerMatchesGeometric(t *testing.T) {
	// Draw for draw against xrand.Geometric, at the default band and at
	// band 1 (exact quotient every time): p = 1 draws nothing, p near 1
	// gives mostly zeros, and below ~1.1e-16 1-p rounds to 1 and every
	// sample is the clamp.
	for _, p := range []float64{1, 1 - 1e-16, 0.999, 0.75, 0.5, 0.25, 0.1, 1e-3,
		1e-6, 1e-9, 1e-15, 2e-16, 1e-16, 1e-17, 1e-300, 5e-324} {
		for _, band := range []float64{safetyBand, 1} {
			r1, r2 := xrand.New(3), xrand.New(3)
			s := newSkipSampler(p, band)
			for i := 0; i < 20000; i++ {
				if a, b := s.next(r1), r2.Geometric(p); a != b {
					t.Fatalf("p=%v band=%v draw %d: sampler %d, Geometric %d", p, band, i, a, b)
				}
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("p=%v band=%v: streams diverged", p, band)
			}
		}
	}
}

func TestSkipSamplerNearIntegers(t *testing.T) {
	// Uniforms 1-2^-j with p = 1/2 put log(x)/log(1-p) at (or a rounding
	// from) the integer j, inside the band, where the sampler must take the
	// exact quotient.
	p := 0.5
	s := newSkipSampler(p, safetyBand)
	for j := 0; j <= 53; j++ {
		r := 1 - math.Ldexp(1, -j)
		f := math.Log(1-r) / math.Log(1-p)
		if got := s.of(r); got != int(f) {
			t.Fatalf("r = 1-2^-%d: sampler %d, Geometric's quotient %v", j, got, f)
		}
	}
}

func TestGnpAvgDegree(t *testing.T) {
	rng := xrand.New(7)
	g := GnpAvgDegree(2000, 10, rng)
	if d := g.AvgDegree(); d < 8 || d > 12 {
		t.Fatalf("GnpAvgDegree(2000, 10) average degree %.2f", d)
	}
	if g := GnpAvgDegree(1, 5, rng); g.N() != 1 {
		t.Fatal("GnpAvgDegree(n=1) wrong")
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(8)
	g := RandomRegular(100, 6, rng)
	if g.N() != 100 {
		t.Fatal("RandomRegular wrong n")
	}
	short := 0
	for u := 0; u < g.N(); u++ {
		d := g.Degree(u)
		if d > 6 {
			t.Fatalf("vertex %d degree %d > 6", u, d)
		}
		if d < 6 {
			short++
		}
	}
	if short > 5 {
		t.Fatalf("%d vertices below target degree", short)
	}
}

func TestBoundedDegeneracyRandom(t *testing.T) {
	rng := xrand.New(9)
	g := BoundedDegeneracyRandom(500, 3, rng)
	if d := g.Degeneracy(); d > 3 {
		t.Fatalf("degeneracy %d > 3", d)
	}
	if !g.Connected() {
		t.Fatal("BoundedDegeneracyRandom disconnected")
	}
}

func TestCaterpillarAndLollipop(t *testing.T) {
	g := Caterpillar(5, 3)
	if g.N() != 20 || g.M() != 19 || !g.Connected() {
		t.Fatalf("Caterpillar(5,3): n=%d m=%d", g.N(), g.M())
	}
	if g.MaxDegree() < 4 {
		t.Fatal("Caterpillar spine degree too small")
	}
	l := Lollipop(5, 4)
	if l.N() != 9 || l.M() != 10+4 || !l.Connected() {
		t.Fatalf("Lollipop(5,4): n=%d m=%d", l.N(), l.M())
	}
}

func TestBFSAndComponents(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Fatalf("BFS on path: dist[%d]=%d", i, d)
		}
	}
	g2 := DisjointCliques(2, 3)
	dist2 := g2.BFS(0)
	if dist2[3] != -1 {
		t.Fatal("BFS reached another component")
	}
}

func TestDegeneracy(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty", Empty(5), 0},
		{"path", Path(10), 1},
		{"tree", CompleteBinaryTree(31), 1},
		{"cycle", Cycle(10), 2},
		{"K5", Complete(5), 4},
		{"grid", Grid(5, 5), 2},
		{"K33", CompleteBipartite(3, 3), 3},
	}
	for _, c := range cases {
		if got := c.g.Degeneracy(); got != c.want {
			t.Errorf("%s degeneracy = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDegeneracyOrderingIsValid(t *testing.T) {
	rng := xrand.New(10)
	g := Gnp(300, 0.05, rng)
	d, order := g.DegeneracyOrdering()
	if len(order) != g.N() {
		t.Fatalf("ordering length %d", len(order))
	}
	pos := make([]int, g.N())
	seen := make([]bool, g.N())
	for i, u := range order {
		if seen[u] {
			t.Fatalf("vertex %d repeated in ordering", u)
		}
		seen[u] = true
		pos[u] = i
	}
	// Every vertex has at most d neighbors later in the order.
	for u := 0; u < g.N(); u++ {
		later := 0
		for _, v := range g.Neighbors(u) {
			if pos[v] > pos[u] {
				later++
			}
		}
		if later > d {
			t.Fatalf("vertex %d has %d later neighbors, degeneracy claimed %d", u, later, d)
		}
	}
}

func TestArboricityBounds(t *testing.T) {
	lo, hi := Path(10).ArboricityBounds()
	if lo != 1 || hi != 1 {
		t.Fatalf("path arboricity bounds [%d,%d], want [1,1]", lo, hi)
	}
	lo, hi = Complete(6).ArboricityBounds()
	// arboricity(K6) = 3; degeneracy = 5.
	if lo > 3 || hi < 3 {
		t.Fatalf("K6 arboricity bounds [%d,%d] exclude 3", lo, hi)
	}
	if lo, hi := Empty(4).ArboricityBounds(); lo != 0 || hi != 0 {
		t.Fatal("empty graph arboricity bounds wrong")
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := Complete(6)
	if c := g.CommonNeighbors(0, 1); c != 4 {
		t.Fatalf("K6 common neighbors = %d, want 4", c)
	}
	if m := g.MaxCommonNeighbors(); m != 4 {
		t.Fatalf("K6 max common neighbors = %d, want 4", m)
	}
	p := Path(4)
	if c := p.CommonNeighbors(0, 2); c != 1 {
		t.Fatal("path common neighbors wrong")
	}
	if m := p.MaxCommonNeighbors(); m != 1 {
		t.Fatalf("path max common neighbors = %d, want 1", m)
	}
	if m := Empty(3).MaxCommonNeighbors(); m != 0 {
		t.Fatal("empty graph max common neighbors wrong")
	}
	if m := Star(10).MaxCommonNeighbors(); m != 1 {
		t.Fatalf("star max common neighbors = %d, want 1", m)
	}
}

func TestDiameterAtMostTwo(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"K5", Complete(5), true},
		{"star", Star(20), true},
		{"K33", CompleteBipartite(3, 3), true},
		{"path4", Path(4), false},
		{"cycle5", Cycle(5), true},
		{"cycle6", Cycle(6), false},
		{"disconnected", DisjointCliques(2, 3), false},
		{"single", Empty(1), true},
	}
	for _, c := range cases {
		if got := c.g.DiameterAtMostTwo(); got != c.want {
			t.Errorf("%s DiameterAtMostTwo = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDiameterAtMostTwoMatchesDiameter(t *testing.T) {
	rng := xrand.New(11)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 2 + r.Intn(40)
		g := Gnp(n, 0.3+0.5*r.Float64(), r)
		d := g.Diameter()
		return g.DiameterAtMostTwo() == (d >= 0 && d <= 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(6)
	sub, orig := g.InducedSubgraph([]int{1, 3, 5})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3: n=%d m=%d", sub.N(), sub.M())
	}
	if orig[0] != 1 || orig[1] != 3 || orig[2] != 5 {
		t.Fatalf("orig mapping %v", orig)
	}
	p := Path(5)
	sub2, _ := p.InducedSubgraph([]int{0, 2, 4})
	if sub2.M() != 0 {
		t.Fatal("independent set induced edges")
	}
}

func TestInducedSubgraphDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate vertex")
		}
	}()
	Path(5).InducedSubgraph([]int{1, 1})
}

func TestNeighborhoodClosureAndEdgesBetween(t *testing.T) {
	g := Path(5) // 0-1-2-3-4
	mask := g.NeighborhoodClosure([]int{2})
	want := []bool{false, true, true, true, false}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("closure mask %v, want %v", mask, want)
		}
	}
	s := []bool{true, true, false, false, false}  // {0,1}
	tt := []bool{false, false, true, true, false} // {2,3}
	if c := g.EdgesBetween(s, tt); c != 1 {
		t.Fatalf("EdgesBetween = %d, want 1", c)
	}
}

func TestAvgDegreeOfSubset(t *testing.T) {
	g := Complete(6)
	if d := g.AvgDegreeOfSubset([]int{0, 1, 2}); d != 2 {
		t.Fatalf("avg degree of K3 subset = %v, want 2", d)
	}
	if d := g.AvgDegreeOfSubset(nil); d != 0 {
		t.Fatal("empty subset avg degree wrong")
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := Star(5).DegreeHistogram()
	if h[1] != 4 || h[4] != 1 {
		t.Fatalf("star degree histogram %v", h)
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if g.M() != 2 || g.Degree(1) != 2 {
		t.Fatal("FromEdges wrong")
	}
}

// Property: building from a random edge set reproduces exactly that edge set.
func TestBuildRoundTripProperty(t *testing.T) {
	rng := xrand.New(12)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 2 + r.Intn(50)
		want := make(map[[2]int]bool)
		b := NewBuilder(n)
		for i := 0; i < r.Intn(100); i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			want[[2]int{u, v}] = true
			b.AddEdge(u, v)
		}
		g := b.Build()
		got := make(map[[2]int]bool)
		g.Edges(func(u, v int) { got[[2]int{u, v}] = true })
		if len(got) != len(want) {
			return false
		}
		for e := range want {
			if !got[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkGnpSparse(b *testing.B) {
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Gnp(10000, 0.001, rng)
	}
}

func BenchmarkDegeneracy(b *testing.B) {
	g := Gnp(5000, 0.002, xrand.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Degeneracy()
	}
}
