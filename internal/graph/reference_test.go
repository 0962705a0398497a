package graph

import (
	"math"
	"sort"
	"testing"

	"ssmis/internal/xrand"
)

// References for the differential tests: the draw loops of Gnp and ChungLu
// and the sort-based locality ordering as they were before the fast paths,
// kept verbatim, plus a map-based CSR builder that shares no code with
// Builder. The fast generators must reproduce these draw for draw.

// refEdges collects edges for refCSR; its AddEdge has Builder's signature so
// the reference loops read exactly as they did against a *Builder.
type refEdges struct {
	n     int
	edges [][2]int
}

func (r *refEdges) AddEdge(u, v int) { r.edges = append(r.edges, [2]int{u, v}) }

// refCSR builds the CSR of the simple graph on n vertices with the given
// edges through a set: duplicates in either orientation collapse, and each
// neighbor list is sorted on its own.
func refCSR(n int, edges [][2]int) *Graph {
	set := make(map[[2]int]bool, len(edges))
	nbrs := make([][]int32, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		if u == v || set[[2]int{u, v}] {
			continue
		}
		set[[2]int{u, v}] = true
		nbrs[u] = append(nbrs[u], int32(v))
		nbrs[v] = append(nbrs[v], int32(u))
	}
	offsets := make([]int, n+1)
	var adj []int32
	for u, l := range nbrs {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		adj = append(adj, l...)
		offsets[u+1] = len(adj)
	}
	return &Graph{offsets: offsets, adj: adj, maxDeg: maxDegreeOf(offsets)}
}

// refGnp is Gnp's draw loop over refEdges, mapping every skip index through
// pairFromIndex.
func refGnp(n int, p float64, rng *xrand.Rand) *Graph {
	b := &refEdges{n: n}
	if p == 0 {
		return refCSR(n, nil)
	}
	if p == 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(u, v)
			}
		}
		return refCSR(n, b.edges)
	}
	if p <= 0.25 {
		// Geometric skipping over the linearized strict upper triangle.
		// Pair index k corresponds to (u, v) with u < v.
		total := int64(n) * int64(n-1) / 2
		k := int64(rng.Geometric(p))
		for k < total {
			u, v := pairFromIndex(k, n)
			b.AddEdge(u, v)
			k += 1 + int64(rng.Geometric(p))
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
	return refCSR(n, b.edges)
}

// refChungLu is ChungLu with every pair decided by the exact quotients and
// xrand.Geometric.
func refChungLu(n int, beta, avgDeg float64, rng *xrand.Rand) *Graph {
	if n == 0 || avgDeg == 0 {
		return refCSR(n, nil)
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
	b := &refEdges{n: n}
	// High-weight vertices come first; the weight sequence is decreasing, so
	// for each u the per-pair probability p_uv = w_u·w_v/totalW decreases in
	// v and geometric skipping with the max probability plus rejection keeps
	// generation near O(m).
	for u := 0; u < n; u++ {
		pMax := w[u] * w[u+minInt(1, n-1-u)] / totalW
		if pMax >= 1 {
			// Dense row: enumerate directly.
			for v := u + 1; v < n; v++ {
				p := w[u] * w[v] / totalW
				if p >= 1 || rng.Bernoulli(p) {
					b.AddEdge(u, v)
				}
			}
			continue
		}
		if pMax <= 0 {
			continue
		}
		v := u + 1 + rng.Geometric(pMax)
		for v < n {
			// Accept with the true probability relative to the proposal.
			p := w[u] * w[v] / totalW
			if rng.Bernoulli(p / pMax) {
				b.AddEdge(u, v)
			}
			v += 1 + rng.Geometric(pMax)
		}
	}
	return refCSR(n, b.edges)
}

// refDegreeBucketPerm is DegreeBucketOrder's permutation by comparison sort
// over (bucket desc, rank, id), with refBfsRanks. It returns nil for the
// identity.
func refDegreeBucketPerm(g *Graph) []int32 {
	n := g.N()
	if n == 0 {
		return nil
	}
	rank := make([]int32, n) // within-bucket key
	if g.M() <= 32*n {
		refBfsRanks(g, rank)
	} else {
		for u := range rank {
			rank[u] = int32(u)
		}
	}
	inv := make([]int32, n)
	for i := range inv {
		inv[i] = int32(i)
	}
	sort.Slice(inv, func(i, j int) bool {
		a, b := inv[i], inv[j]
		ba := degreeBucket(g.Degree(int(a)))
		bb := degreeBucket(g.Degree(int(b)))
		if ba != bb {
			return ba > bb // hubs first
		}
		if rank[a] != rank[b] {
			return rank[a] < rank[b]
		}
		return a < b
	})
	identity := true
	for i, u := range inv {
		if int32(i) != u {
			identity = false
			break
		}
	}
	if identity {
		return nil
	}
	perm := make([]int32, n)
	for i, u := range inv {
		perm[u] = int32(i)
	}
	return perm
}

// refBfsRanks fills rank[u] with u's discovery index in the deterministic
// BFS, sources sorted by comparison.
func refBfsRanks(g *Graph, rank []int32) {
	n := g.N()
	seeds := make([]int32, n)
	for i := range seeds {
		seeds[i] = int32(i)
	}
	sort.Slice(seeds, func(i, j int) bool {
		di, dj := g.Degree(int(seeds[i])), g.Degree(int(seeds[j]))
		if di != dj {
			return di > dj
		}
		return seeds[i] < seeds[j]
	})
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	next := int32(0)
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			rank[u] = next
			next++
			for _, v := range g.Neighbors(int(u)) {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
}

// refRelabel is Relabel through refCSR.
func refRelabel(g *Graph, perm []int32) *Graph {
	var edges [][2]int
	g.Edges(func(u, v int) { edges = append(edges, [2]int{int(perm[u]), int(perm[v])}) })
	return refCSR(g.N(), edges)
}

// sameCSR reports whether g and h have identical offsets and adjacency.
func sameCSR(g, h *Graph) bool {
	if len(g.offsets) != len(h.offsets) || len(g.adj) != len(h.adj) || g.maxDeg != h.maxDeg {
		return false
	}
	for i := range g.offsets {
		if g.offsets[i] != h.offsets[i] {
			return false
		}
	}
	for i := range g.adj {
		if g.adj[i] != h.adj[i] {
			return false
		}
	}
	return true
}

// checkOrder compares DegreeBucketOrder(g) with the reference permutation
// and relabeled CSR.
func checkOrder(t *testing.T, name string, g *Graph) {
	t.Helper()
	o, want := DegreeBucketOrder(g), refDegreeBucketPerm(g)
	if (o == nil) != (want == nil) {
		t.Fatalf("%s: identity order %v, reference %v", name, o == nil, want == nil)
	}
	if o == nil {
		return
	}
	for u := range want {
		if o.Perm[u] != want[u] || o.Inv[want[u]] != int32(u) {
			t.Fatalf("%s: vertex %d ordered at %d, reference %d", name, u, o.Perm[u], want[u])
		}
	}
	if !sameCSR(o.G, refRelabel(g, want)) {
		t.Fatalf("%s: relabeled CSR differs from the reference", name)
	}
}

// FuzzGeneratorsMatchReference checks the fast generators, orderings and
// Builder against the references above: Chung–Lu and G(n,p) draw for draw
// (same CSR, same stream position afterwards), DegreeBucketOrder on the
// Chung–Lu graph, and repeated Builds over unsorted, duplicated and
// reversed edges decoded from raw against refCSR of everything added so far.
func FuzzGeneratorsMatchReference(f *testing.F) {
	f.Add(uint16(300), 2.5, 10.0, 0.02, uint64(1), []byte{3, 1, 2, 0, 3, 1, 9, 4})
	f.Add(uint16(90), 2.1, 40.0, 0.3, uint64(2), []byte{})
	f.Add(uint16(2), 3.0, 1.0, 1e-17, uint64(3), []byte{0, 1, 1, 0})
	f.Add(uint16(1500), 1.5, 3.0, 0.25, uint64(4), []byte{7, 7, 8, 9, 255, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, nRaw uint16, beta, avgDeg, p float64, seed uint64, raw []byte) {
		n := int(nRaw % 2000)
		// β in (1, 10], average degree in [0, 60] or +Inf (degenerate
		// weights), p in [0, 1].
		if math.IsNaN(beta) || math.IsInf(beta, 0) {
			beta = 2.5
		}
		beta = 1 + math.Max(1e-3, math.Min(9, math.Abs(beta-1)))
		switch {
		case math.IsNaN(avgDeg):
			avgDeg = 10
		case math.IsInf(avgDeg, 0):
			avgDeg = math.Inf(1)
		default:
			avgDeg = math.Min(60, math.Abs(avgDeg))
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			p = 0.5
		}
		p = math.Min(1, math.Abs(p))

		r1, r2 := xrand.New(seed), xrand.New(seed)
		g := ChungLu(n, beta, avgDeg, r1)
		if want := refChungLu(n, beta, avgDeg, r2); !sameCSR(g, want) || r1.Uint64() != r2.Uint64() {
			t.Fatalf("ChungLu(%d, %v, %v) differs from the reference", n, beta, avgDeg)
		}
		checkOrder(t, "chunglu", g)

		// G(n,p) on at most 600 vertices keeps the dense branch's pair
		// enumeration small; dense draws reach the original-id branch of
		// the ordering.
		gn := n % 600
		r1, r2 = xrand.New(seed), xrand.New(seed)
		h := Gnp(gn, p, r1)
		if want := refGnp(gn, p, r2); !sameCSR(h, want) || r1.Uint64() != r2.Uint64() {
			t.Fatalf("Gnp(%d, %v) differs from the reference", gn, p)
		}
		checkOrder(t, "gnp", h)

		// raw drives a Builder: each byte pair is an edge of a graph on
		// up to 32 vertices, byte 255 triggers a Build in between.
		bn := 1 + n%32
		b := NewBuilder(bn)
		var all [][2]int
		check := func() {
			if got := b.Build(); !sameCSR(got, refCSR(bn, all)) {
				t.Fatalf("Build after %d edges differs from the reference", len(all))
			}
		}
		for i := 0; i+1 < len(raw); i += 2 {
			if raw[i] == 255 {
				check()
				i--
				continue
			}
			u, v := int(raw[i])%bn, int(raw[i+1])%bn
			if u == v {
				continue
			}
			b.AddEdge(u, v)
			all = append(all, [2]int{u, v})
		}
		check()
		check()
	})
}
