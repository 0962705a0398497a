// Package graph provides the graph substrate for the ssmis module: an
// immutable compressed-sparse-row (CSR) graph type, a mutable builder,
// generators for every graph family the paper's analysis touches (complete
// graphs, Erdős–Rényi G(n,p), trees and other bounded-arboricity families,
// disjoint unions of cliques, ...), and structural metrics (components,
// diameter, degeneracy, common neighbors) needed by the experiments and by
// the (n,p)-good-graph checker.
//
// All graphs are simple (no self-loops, no parallel edges) and undirected,
// matching the paper's setting.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable simple undirected graph in CSR form. Vertices are
// integers in [0, N()).
type Graph struct {
	offsets []int   // len n+1; adjacency of u is adj[offsets[u]:offsets[u+1]]
	adj     []int32 // concatenated sorted neighbor lists
	maxDeg  int     // memoized MaxDegree (immutable graph, computed at build)
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return g.offsets[u+1] - g.offsets[u] }

// Neighbors returns the sorted neighbor list of u as a shared, read-only
// slice. Callers must not modify it.
func (g *Graph) Neighbors(u int) []int32 {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// ForNeighbors calls fn for each neighbor of u in increasing order.
func (g *Graph) ForNeighbors(u int, fn func(v int)) {
	for _, v := range g.Neighbors(u) {
		fn(int(v))
	}
}

// HasEdge reports whether {u, v} is an edge, in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return int(nbrs[i]) >= v })
	return i < len(nbrs) && int(nbrs[i]) == v
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
// The value is memoized at construction — the graph is immutable, and the
// engine's counter-width selection, DegreeHistogram, restartmis, and both
// CLIs' banner lines all ask repeatedly.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// maxDegreeOf scans a CSR offset vector for the maximum degree; the two
// graph constructors (Build, Relabel) call it once to fill the memo.
func maxDegreeOf(offsets []int) int {
	max := 0
	for u := 0; u+1 < len(offsets); u++ {
		if d := offsets[u+1] - offsets[u]; d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average vertex degree 2m/n, or 0 for n = 0.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

// Edges calls fn once per undirected edge {u, v} with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				fn(u, int(v))
			}
		}
	}
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

// Builder accumulates edges and produces an immutable Graph. Self-loops are
// rejected immediately by AddEdge; duplicate edges are tolerated and
// deduplicated by Build. The zero value is unusable; create with NewBuilder.
type Builder struct {
	n      int
	edges  [][2]int32
	sorted int // leading edges already sorted and deduplicated by a prior Build
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge records the undirected edge {u, v}. It panics on self-loops or
// out-of-range endpoints. Duplicate edges are tolerated and deduplicated by
// Build.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// reserve grows the edge list's capacity to at least m edges, for
// generators that know their edge count up front.
func (b *Builder) reserve(m int) {
	if m > len(b.edges) {
		b.edges = slices.Grow(b.edges, m-len(b.edges))
	}
}

// Build produces the immutable CSR graph. The builder remains usable (more
// edges may be added and Build called again); the retained edge list stays
// sorted and deduplicated across calls, so a repeat Build only sorts the
// edges appended since the previous one and merges them in — O(k log k + m)
// for k new edges instead of re-sorting all m. Edges added in strictly
// increasing order (every generator that emits row by row) are not sorted
// at all.
func (b *Builder) Build() *Graph {
	b.normalize()

	offsets := make([]int, b.n+1)
	for _, e := range b.edges {
		offsets[e[0]+1]++
		offsets[e[1]+1]++
	}
	for u := 0; u < b.n; u++ {
		offsets[u+1] += offsets[u]
	}
	adj := make([]int32, offsets[b.n])
	cursor := slices.Clone(offsets[:b.n])
	// The edge list is sorted and duplicate-free, so every neighbor list
	// comes out strictly increasing: vertex x first receives the smaller
	// endpoints u of its edges (u, x) in increasing u, then the larger
	// endpoints v of its edges (x, v) in increasing v, and u < x < v.
	for _, e := range b.edges {
		u, v := e[0], e[1]
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	return &Graph{offsets: offsets, adj: adj, maxDeg: maxDegreeOf(offsets)}
}

// edgeCmp orders edges lexicographically by (smaller, larger) endpoint.
func edgeCmp(a, c [2]int32) int {
	if a[0] != c[0] {
		return int(a[0]) - int(c[0])
	}
	return int(a[1]) - int(c[1])
}

// normalize brings b.edges to sorted, deduplicated form. Edges up to
// b.sorted are already normalized by the previous Build, and the normalized
// prefix is first extended over every appended edge that is strictly
// greater than its predecessor; a builder fed in increasing order is done
// there. Otherwise the remaining suffix is sorted and merged into the prefix
// in place, buffering only the prefix, and duplicates are dropped.
func (b *Builder) normalize() {
	k := b.sorted
	if k == 0 && len(b.edges) > 0 {
		k = 1
	}
	for k < len(b.edges) && edgeCmp(b.edges[k-1], b.edges[k]) < 0 {
		k++
	}
	if k < len(b.edges) {
		head, tail := slices.Clone(b.edges[:k]), b.edges[k:]
		slices.SortFunc(tail, edgeCmp)
		// Output slot i+j never passes the next unread tail slot k+j.
		for i, j := 0, 0; i+j < len(b.edges); {
			if j == len(tail) || i < len(head) && edgeCmp(head[i], tail[j]) <= 0 {
				b.edges[i+j] = head[i]
				i++
			} else {
				b.edges[i+j] = tail[j]
				j++
			}
		}
		b.edges = slices.Compact(b.edges)
	}
	b.sorted = len(b.edges)
}

func int32sSorted(s []int32) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

// FromEdges builds a graph on n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// InducedSubgraph returns the induced subgraph G[S] together with the mapping
// from new vertex ids to original ids. S may be in any order; duplicate
// entries panic.
func (g *Graph) InducedSubgraph(s []int) (*Graph, []int) {
	idx := make(map[int]int, len(s))
	orig := make([]int, len(s))
	for i, u := range s {
		if _, dup := idx[u]; dup {
			panic(fmt.Sprintf("graph: duplicate vertex %d in InducedSubgraph", u))
		}
		idx[u] = i
		orig[i] = u
	}
	b := NewBuilder(len(s))
	for i, u := range orig {
		for _, v := range g.Neighbors(u) {
			if j, ok := idx[int(v)]; ok && j > i {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build(), orig
}

// DegreeHistogram returns counts[d] = number of vertices of degree d.
func (g *Graph) DegreeHistogram() []int {
	counts := make([]int, g.MaxDegree()+1)
	for u := 0; u < g.N(); u++ {
		counts[g.Degree(u)]++
	}
	return counts
}
