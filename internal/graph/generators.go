package graph

import (
	"fmt"
	"math"

	"ssmis/internal/xrand"
)

// Complete returns the complete graph K_n (Theorem 8's workload).
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Empty returns the edgeless graph on n vertices.
func Empty(n int) *Graph {
	return NewBuilder(n).Build()
}

// Path returns the path 0-1-...-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u+1 < n; u++ {
		b.AddEdge(u, u+1)
	}
	return b.Build()
}

// Cycle returns the n-cycle (n >= 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n)
	}
	return b.Build()
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for u := 1; u < n; u++ {
		b.AddEdge(0, u)
	}
	return b.Build()
}

// CompleteBinaryTree returns the complete binary tree on n vertices with root
// 0 and children 2i+1, 2i+2 (heap layout).
func CompleteBinaryTree(n int) *Graph {
	b := NewBuilder(n)
	for u := 1; u < n; u++ {
		b.AddEdge(u, (u-1)/2)
	}
	return b.Build()
}

// RandomTree returns a uniformly random recursive tree on n vertices: vertex
// i > 0 attaches to a uniform vertex in [0, i). Such trees have expected
// maximum degree Θ(log n) and arboricity 1, the family of Theorem 11.
func RandomTree(n int, rng *xrand.Rand) *Graph {
	b := NewBuilder(n)
	for u := 1; u < n; u++ {
		b.AddEdge(u, rng.Intn(u))
	}
	return b.Build()
}

// UniformLabeledTree returns a uniformly random labeled tree on n vertices,
// sampled via a random Prüfer sequence (n >= 1).
func UniformLabeledTree(n int, rng *xrand.Rand) *Graph {
	if n <= 2 {
		return Path(n)
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, v := range prufer {
		deg[v]++
	}
	b := NewBuilder(n)
	// ptr/leaf scan (O(n) amortized with the standard two-pointer method).
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		b.AddEdge(leaf, v)
		deg[v]--
		if deg[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	b.AddEdge(leaf, n-1)
	return b.Build()
}

// Grid returns the rows×cols grid graph (4-neighborhood). Arboricity 2.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows×cols torus (wrap-around grid; rows, cols >= 3).
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus requires rows, cols >= 3")
	}
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
			b.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
func Hypercube(d int) *Graph {
	if d < 0 || d > 24 {
		panic("graph: Hypercube dimension out of range [0,24]")
	}
	n := 1 << uint(d)
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << uint(bit))
			if v > u {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// DisjointCliques returns the disjoint union of count cliques each of size
// size (Remark 9's workload: √n cliques K_{√n}).
func DisjointCliques(count, size int) *Graph {
	b := NewBuilder(count * size)
	for c := 0; c < count; c++ {
		base := c * size
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				b.AddEdge(base+u, base+v)
			}
		}
	}
	return b.Build()
}

// CliqueChain returns count cliques of the given size arranged in a chain,
// consecutive cliques joined by a single bridge edge. Useful as a
// high-diameter, locally-dense stress case.
func CliqueChain(count, size int) *Graph {
	b := NewBuilder(count * size)
	for c := 0; c < count; c++ {
		base := c * size
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				b.AddEdge(base+u, base+v)
			}
		}
		if c > 0 {
			b.AddEdge(base-1, base)
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b} with parts [0,a) and [a,a+b).
func CompleteBipartite(a, b int) *Graph {
	bl := NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bl.AddEdge(u, a+v)
		}
	}
	return bl.Build()
}

// Gnp returns an Erdős–Rényi random graph G(n,p): every pair is an edge
// independently with probability p. For p below a density threshold the
// generator uses geometric skipping and runs in O(n + m) time; above it, it
// enumerates pairs.
func Gnp(n int, p float64, rng *xrand.Rand) *Graph {
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		panic(fmt.Sprintf("graph: Gnp probability %v out of [0,1]", p))
	case p == 0:
		return Empty(n)
	case p == 1:
		return Complete(n)
	}
	total := int64(n) * int64(n-1) / 2
	b := NewBuilder(n)
	b.reserve(expectedEdgesCap(p*float64(total), total))
	if p <= 0.25 {
		// Geometric skipping over the linearized strict upper triangle,
		// walked row by row: the pair index advances by 1 + Geometric(p)
		// per edge, and pairs come out in increasing order.
		skip := newSkipSampler(p, safetyBand)
		w := pairWalk{n: n, u: 0, v: 1}
		for ok := w.advance(skip.next(rng)); ok; ok = w.advance(1 + skip.next(rng)) {
			b.AddEdge(w.u, w.v)
		}
	} else {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bernoulli(p) {
					b.AddEdge(u, v)
				}
			}
		}
	}
	return b.Build()
}

// pairWalk is a position (u, v), u < v, in the row-major order of the
// strict upper triangle on n vertices; row u holds v = u+1, ..., n-1.
type pairWalk struct{ n, u, v int }

// advance moves the position s pairs forward, carrying into later rows. It
// reports false once the position passes the last pair (n-2, n-1). A walk
// makes at most n row carries in total, so skipping costs O(n + #advances).
func (w *pairWalk) advance(s int) bool {
	w.v += s
	for w.v >= w.n {
		// Row u ends at v = n-1; row u+1 starts at v = u+2.
		w.u++
		if w.u >= w.n-1 {
			return false
		}
		w.v += w.u + 1 - w.n
	}
	return true
}

// expectedEdgesCap is the edge capacity to reserve for a generator whose
// edge count is a sum of independent indicators with mean mean (at most
// total pairs): the mean plus four standard deviations, so the edge list is
// allocated once in all but rare draws, which fall back to append growth.
// A mean that is not finite comes from degenerate weights (an infinite
// average degree makes every probability NaN), which draw no edges, so
// nothing is reserved.
func expectedEdgesCap(mean float64, total int64) int {
	if math.IsNaN(mean) || math.IsInf(mean, 0) {
		return 0
	}
	c := mean + 4*math.Sqrt(mean) + 16
	if c > float64(total) {
		return int(total)
	}
	return int(c)
}

// safetyBand is the relative margin of the generators' fast paths. A fast
// path computes a value that is within a few roundings (below 1e-15
// relative) of the value an exact expression would give; the decision it
// drives is taken from the fast value only when that value is farther than
// the band from the decision boundary, and from the exact expression
// otherwise. The decisions, and so the draws and the graph, are then exactly
// those of the exact expressions; the band only sets how often the exact one
// is needed (one to four times in all of ChungLu(10^6, 2.5, 10)'s ~2·10^8
// decisions). A band of 1 sends every decision to the exact expression.
const safetyBand = 1e-12

// near reports whether a and b (both nonnegative) lie within band of each
// other relative to the larger: whether comparing them could come out
// differently for values a few roundings away. It is false if either is NaN.
func near(a, b, band float64) bool {
	d, m := a-b, a
	if b > a {
		m = b
	}
	return d <= band*m && -d <= band*m
}

// maxSkip is xrand.Geometric's clamp: a skip at least this large (or a
// degenerate quotient) means "effectively never".
const maxSkip = 1 << 62

// skipSampler draws xrand.Geometric(p) for a fixed p, draw for draw: the
// same single Float64 per sample (none for p = 1) and the same value,
// including the clamp. Geometric computes floor(log(x) / log(1-p)); the
// sampler hoists log(1-p) and its reciprocal and computes log(x)·(1/log(1-p))
// instead, one multiply in place of a log and a division. That product is
// within 3 roundings (about 3.3e-16 relative) of the quotient, so the two
// floors agree unless the product lies within the safety band of an integer
// or near the clamp, where the sampler evaluates Geometric's exact quotient.
type skipSampler struct {
	lq, inv float64 // log(1-p) and 1/log(1-p)
	one     bool    // p == 1: Geometric returns 0 without drawing
	band    float64
}

func newSkipSampler(p, band float64) skipSampler {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("graph: skip probability %v out of (0,1]", p))
	}
	lq := math.Log(1 - p)
	return skipSampler{lq: lq, inv: 1 / lq, one: p == 1, band: band}
}

// next returns the next sample of Geometric(p) from rng.
func (s *skipSampler) next(rng *xrand.Rand) int {
	if s.one {
		return 0
	}
	return s.of(rng.Float64())
}

// of returns the sample of Geometric(p), p < 1, that the draw r = Float64()
// gives.
func (s *skipSampler) of(r float64) int {
	x := math.Log(1 - r) // log of a uniform in (0, 1]
	// When 1-p rounds to 1, lq = 0 and inv = +Inf: f is -Inf or NaN, fails
	// the range test, and exact applies the clamp.
	f := x * s.inv
	if f >= 0 && f < maxSkip/2 {
		i := int(f) // floor: f is nonnegative and in range
		if frac := f - float64(i); frac > s.band*f && 1-frac > s.band*f {
			return i
		}
	}
	return s.exact(x)
}

// exact is Geometric's quotient and clamp for the log x of the uniform.
//
//go:noinline
func (s *skipSampler) exact(x float64) int {
	f := x / s.lq
	if !(f >= 0 && f < maxSkip) { // NaN, ±Inf and overflow, as Geometric
		return maxSkip
	}
	return int(f)
}

// GnpAvgDegree returns G(n, p) with p chosen so that the expected average
// degree is d, i.e. p = d/(n-1).
func GnpAvgDegree(n int, d float64, rng *xrand.Rand) *Graph {
	if n <= 1 {
		return Empty(n)
	}
	p := d / float64(n-1)
	if p > 1 {
		p = 1
	}
	return Gnp(n, p, rng)
}

// RandomRegular returns a d-regular random simple graph via the
// configuration model with repair: stubs are paired uniformly, invalid pairs
// (self-loops, duplicates) are re-paired in further passes, and any remaining
// degree deficits are repaired by double-edge swaps, which preserve all other
// degrees. In rare pathological cases a couple of vertices may end with
// degree d-1; the graph is always simple. n*d must be even.
func RandomRegular(n, d int, rng *xrand.Rand) *Graph {
	if d < 0 || d >= n {
		panic(fmt.Sprintf("graph: RandomRegular degree %d out of range for n=%d", d, n))
	}
	if n*d%2 != 0 {
		panic("graph: RandomRegular requires n*d even")
	}
	type edge struct{ u, v int32 }
	norm := func(u, v int32) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	edgeSet := make(map[edge]bool, n*d/2)
	edgeList := make([]edge, 0, n*d/2)
	deg := make([]int, n)
	addEdge := func(u, v int32) bool {
		if u == v {
			return false
		}
		e := norm(u, v)
		if edgeSet[e] {
			return false
		}
		edgeSet[e] = true
		edgeList = append(edgeList, e)
		deg[u]++
		deg[v]++
		return true
	}

	// Pass 1..k: pair the unmatched stubs; stubs from failed pairs carry
	// over to the next pass.
	stubs := make([]int32, 0, n*d)
	for u := 0; u < n; u++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(u))
		}
	}
	for pass := 0; pass < 200 && len(stubs) > 2; pass++ {
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		leftovers := stubs[:0]
		for i := 0; i+1 < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if !addEdge(u, v) {
				leftovers = append(leftovers, u, v)
			}
		}
		stubs = leftovers
	}

	// Repair remaining deficits with double-edge swaps: to give u and v one
	// more edge each, pick a random existing edge {x,y} with x,y ∉ {u,v},
	// u-x and v-y non-edges, remove it and add {u,x}, {v,y}.
	for attempt := 0; attempt < 100*len(stubs) && len(stubs) >= 2; attempt++ {
		u, v := stubs[len(stubs)-1], stubs[len(stubs)-2]
		if addEdge(u, v) {
			stubs = stubs[:len(stubs)-2]
			continue
		}
		if len(edgeList) == 0 {
			break
		}
		ei := rng.Intn(len(edgeList))
		e := edgeList[ei]
		x, y := e.u, e.v
		if x == u || x == v || y == u || y == v {
			continue
		}
		if edgeSet[norm(u, x)] || edgeSet[norm(v, y)] {
			continue
		}
		delete(edgeSet, e)
		edgeList[ei] = edgeList[len(edgeList)-1]
		edgeList = edgeList[:len(edgeList)-1]
		deg[x]--
		deg[y]--
		addEdge(u, x)
		addEdge(v, y)
		stubs = stubs[:len(stubs)-2]
	}

	b := NewBuilder(n)
	for e := range edgeSet {
		b.AddEdge(int(e.u), int(e.v))
	}
	return b.Build()
}

// BoundedDegeneracyRandom returns a random graph with degeneracy (and hence
// arboricity) at most k: vertex i > 0 connects to min(i, k) uniformly chosen
// earlier vertices without replacement. This is the standard "random k-tree
// relaxation" family used to exercise Theorem 11 beyond trees.
func BoundedDegeneracyRandom(n, k int, rng *xrand.Rand) *Graph {
	if k < 1 {
		panic("graph: BoundedDegeneracyRandom requires k >= 1")
	}
	b := NewBuilder(n)
	picked := make(map[int]bool, k)
	for u := 1; u < n; u++ {
		want := k
		if u < k {
			want = u
		}
		for len(picked) < want {
			picked[rng.Intn(u)] = true
		}
		for v := range picked {
			b.AddEdge(u, v)
			delete(picked, v)
		}
	}
	return b.Build()
}

// Caterpillar returns a caterpillar tree: a spine path of length spine with
// legs pendant leaves attached to every spine vertex. Trees with large
// maximum degree but arboricity 1.
func Caterpillar(spine, legs int) *Graph {
	n := spine + spine*legs
	b := NewBuilder(n)
	for u := 0; u+1 < spine; u++ {
		b.AddEdge(u, u+1)
	}
	next := spine
	for u := 0; u < spine; u++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(u, next)
			next++
		}
	}
	return b.Build()
}

// WattsStrogatz returns a small-world graph: a ring lattice where every
// vertex connects to its k nearest neighbors on each side (2k per vertex),
// with each lattice edge rewired to a uniform random endpoint with
// probability beta. beta = 0 is the pure lattice (high diameter, high
// clustering); beta = 1 approaches a random graph. Classic model for
// ad-hoc/sensor network topologies with shortcuts.
func WattsStrogatz(n, k int, beta float64, rng *xrand.Rand) *Graph {
	if k < 1 || 2*k >= n {
		panic(fmt.Sprintf("graph: WattsStrogatz requires 1 <= k and 2k < n, got n=%d k=%d", n, k))
	}
	if beta < 0 || beta > 1 {
		panic(fmt.Sprintf("graph: WattsStrogatz beta %v outside [0,1]", beta))
	}
	type edge struct{ u, v int32 }
	norm := func(u, v int) edge {
		if u > v {
			u, v = v, u
		}
		return edge{int32(u), int32(v)}
	}
	edges := make(map[edge]bool, n*k)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			edges[norm(u, (u+j)%n)] = true
		}
	}
	// Rewire: for each original lattice edge (u, u+j), with probability
	// beta replace it by (u, w) for uniform w avoiding self-loops and
	// duplicates (skipping the rewire if no valid target is found quickly).
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			if !rng.Bernoulli(beta) {
				continue
			}
			old := norm(u, (u+j)%n)
			if !edges[old] {
				continue // already rewired away by the other endpoint
			}
			for attempt := 0; attempt < 16; attempt++ {
				w := rng.Intn(n)
				if w == u {
					continue
				}
				candidate := norm(u, w)
				if edges[candidate] {
					continue
				}
				delete(edges, old)
				edges[candidate] = true
				break
			}
		}
	}
	b := NewBuilder(n)
	for e := range edges {
		b.AddEdge(int(e.u), int(e.v))
	}
	return b.Build()
}

// ChungLu returns a random graph with expected degree sequence following a
// power law with exponent beta (typically 2 < beta < 3) and average degree
// approximately avgDeg: each pair {u,v} is an edge independently with
// probability min(1, w_u·w_v / Σw), where w_u ∝ (u+1)^(-1/(beta-1)) scaled
// to the requested average. Models the skewed degree distributions of real
// sensor/contact networks, in contrast to the concentrated degrees of
// G(n,p).
func ChungLu(n int, beta, avgDeg float64, rng *xrand.Rand) *Graph {
	return chungLu(n, beta, avgDeg, rng, safetyBand)
}

// chungLu is ChungLu with the fast paths' safety band as a parameter; a band
// of 1 sends every decision through the exact expressions.
func chungLu(n int, beta, avgDeg float64, rng *xrand.Rand, band float64) *Graph {
	if n == 0 {
		return Empty(0)
	}
	if beta <= 1 {
		panic(fmt.Sprintf("graph: ChungLu exponent beta=%v must exceed 1", beta))
	}
	if avgDeg < 0 {
		panic("graph: ChungLu negative average degree")
	}
	if avgDeg == 0 {
		return Empty(n)
	}
	w := make([]float64, n)
	sum := 0.0
	exp := -1.0 / (beta - 1)
	for u := 0; u < n; u++ {
		w[u] = math.Pow(float64(u+1), exp)
		sum += w[u]
	}
	// Scale weights so the expected average degree is avgDeg.
	scale := avgDeg * float64(n) / sum
	for u := range w {
		w[u] *= scale
	}
	totalW := avgDeg * float64(n)
	b := NewBuilder(n)
	// Σ_{u<v} min(1, w_u·w_v/totalW) < totalW/2 bounds the expected edge
	// count.
	b.reserve(expectedEdgesCap(totalW/2, int64(n)*int64(n-1)/2))
	// The fast paths replace the exact per-pair quotients by one multiply
	// with a per-row factor. Their error bounds need every operand and
	// intermediate to be a normal float: with all weights, totalW and the
	// row's pMax in [2^-250, 2^250], every product and quotient lies in
	// [2^-1000, 2^1000]. Rows outside that range (never on practical
	// parameters) run with band 1, i.e. on the exact expressions only.
	normal := func(x float64) bool { return x >= 0x1p-250 && x <= 0x1p250 }
	if !normal(w[0]) || !normal(w[n-1]) || !normal(totalW) {
		band = 1
	}
	// High-weight vertices come first; the weight sequence is decreasing, so
	// for each u the per-pair probability p_uv = w_u·w_v/totalW decreases in
	// v. A row whose first pair has probability >= 1 enumerates its pairs
	// (34 such rows at n = 10^6, β = 2.5, avg 10: 3.4·10^7 pair checks).
	// Every other row proposes pairs by geometric skipping with the row's
	// maximum probability pMax and accepts each with probability
	// p_uv/pMax: about 9.8·10^7 proposals for about 5·10^6 edges at the same
	// parameters, so generation costs O(n + Σ_u pMax_u·(n-u)) draws, well
	// above O(m) on skewed weights.
	for u := 0; u < n; u++ {
		pMax := w[u] * w[u+minInt(1, n-1-u)] / totalW
		switch {
		case pMax >= 1:
			chungLuDenseRow(b, u, w, totalW, rng, band)
		case !(pMax <= 0): // also NaN (infinite weights): one skip draw, as Geometric takes
			rowBand := band
			if !normal(pMax) {
				rowBand = 1
			}
			chungLuSparseRow(b, u, w, totalW, pMax, rng, rowBand)
		}
	}
	return b.Build()
}

// chungLuDenseRow enumerates row u's pairs. The exact decision per pair is:
// accept without a draw if p = w[u]*w[v]/totalW >= 1, else Bernoulli(p),
// one Float64 compared with p. The fast value w[v]*(w[u]/totalW) is within
// 4 roundings of p and decides whenever it is clear of the safety band.
func chungLuDenseRow(b *Builder, u int, w []float64, totalW float64, rng *xrand.Rand, band float64) {
	ku := w[u] / totalW
	for v := u + 1; v < len(w); v++ {
		if q := w[v] * ku; q < 1 && !near(q, 1, band) {
			if r := rng.Float64(); !near(r, q, band) {
				if r < q {
					b.AddEdge(u, v)
				}
			} else if r < w[u]*w[v]/totalW {
				b.AddEdge(u, v)
			}
			continue
		}
		p := w[u] * w[v] / totalW
		if p >= 1 || rng.Bernoulli(p) {
			b.AddEdge(u, v)
		}
	}
}

// chungLuSparseRow proposes row u's pairs by geometric skipping with
// probability pMax and accepts the pair (u, v) with probability
// q = w[u]*w[v]/totalW/pMax. The exact decision is Bernoulli(q): accept
// without a draw if q >= 1 (the pair (u, u+1), whose q is exactly 1), else
// one Float64 compared with q. The fast value w[v]*k, with
// k = w[u]/totalW/pMax hoisted per row, takes 3 roundings against the exact
// quotient's 3: the two are at most ~6 roundings (about 7e-16 relative)
// apart, far inside the safety band.
//
// The weight loads w[v] hit a different cache line per proposal. To overlap
// them, the row is decided in batches: a batch takes a run of uniforms from
// the stream, reads them alternately as skip and acceptance draws (the
// stream's order whenever each proposal's q < 1), computes the proposals,
// and then decides them in order. A proposal whose q is not clearly below 1,
// and the end of the row, rewind the stream to the draw the plain loop
// would be at (every skip and acceptance draw is exactly one Uint64); such a
// proposal is decided by Bernoulli on the exact quotient and the next batch
// starts after it. The draws, and so the graph, are those of the plain loop.
func chungLuSparseRow(b *Builder, u int, w []float64, totalW, pMax float64, rng *xrand.Rand, band float64) {
	const chunk = 16
	var us [2 * chunk]float64
	var vs [chunk]int
	var qs [chunk]float64
	n := len(w)
	k := w[u] / totalW / pMax
	skip := newSkipSampler(pMax, band)
	// Size batches to the row's expected proposal count, pMax per pair, so
	// that short rows do not draw far past their end.
	size := chunk
	if e := pMax * float64(n-1-u); e < chunk-2 {
		size = int(e) + 2
	}
	v := u // the last proposal; the first is u + 1 + skip
batches:
	for {
		start := *rng
		for i := range us[:2*size] {
			us[i] = rng.Float64()
		}
		cnt := 0
		for ; cnt < size; cnt++ {
			v += 1 + skip.of(us[2*cnt])
			if v >= n {
				break
			}
			// The load of w[v] overlaps the following skips' logs.
			vs[cnt], qs[cnt] = v, w[v]*k
		}
		done := cnt < size
		if done {
			rewind(rng, &start, 2*cnt+1)
		}
		for i, x := range vs[:cnt] {
			q := qs[i]
			if !(q < 1 && !near(q, 1, band)) {
				rewind(rng, &start, 2*i+1)
				if rng.Bernoulli(w[u] * w[x] / totalW / pMax) {
					b.AddEdge(u, x)
				}
				v = x
				continue batches
			}
			if r := us[2*i+1]; !near(r, q, band) {
				if r < q {
					b.AddEdge(u, x)
				}
			} else if r < w[u]*w[x]/totalW/pMax {
				b.AddEdge(u, x)
			}
		}
		if done {
			return
		}
	}
}

// rewind sets rng to start advanced by draws values.
func rewind(rng, start *xrand.Rand, draws int) {
	*rng = *start
	for ; draws > 0; draws-- {
		rng.Uint64()
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Lollipop returns a clique of size cliqueSize with a path of length tail
// attached — a classic "dense core, long tail" stress case.
func Lollipop(cliqueSize, tail int) *Graph {
	n := cliqueSize + tail
	b := NewBuilder(n)
	for u := 0; u < cliqueSize; u++ {
		for v := u + 1; v < cliqueSize; v++ {
			b.AddEdge(u, v)
		}
	}
	for i := 0; i < tail; i++ {
		b.AddEdge(cliqueSize-1+i, cliqueSize+i)
	}
	return b.Build()
}
