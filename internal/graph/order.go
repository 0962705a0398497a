package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// Ordering is a relabeling view of a graph: a permutation of the vertex set
// together with the CSR graph rebuilt under it. It exists so the engine's
// hot loops (lane words, neighbor counters, dirty-word tracking) can run
// over a cache-friendlier vertex order while everything observable — random
// streams, daemon selections, checkpoints, colors, summaries — stays keyed
// by original ids, mapped only at the boundary.
//
// Perm maps original ids to relabeled ids (Perm[old] = new); Inv is its
// inverse (Inv[new] = old); G is the relabeled graph: vertex Perm[u] of G
// has exactly the neighbors {Perm[v] : v ~ u}. A nil *Ordering everywhere
// means the identity (no relabeling); NewID and OldID are nil-safe.
type Ordering struct {
	Perm []int32 // Perm[old] = new
	Inv  []int32 // Inv[new] = old
	G    *Graph  // CSR rebuilt under Perm
}

// NewID maps an original vertex id to its relabeled id (identity on a nil
// receiver).
func (o *Ordering) NewID(u int) int {
	if o == nil {
		return u
	}
	return int(o.Perm[u])
}

// OldID maps a relabeled vertex id back to its original id (identity on a
// nil receiver).
func (o *Ordering) OldID(u int) int {
	if o == nil {
		return u
	}
	return int(o.Inv[u])
}

// Rebind returns an ordering holding the same permutation over a new graph
// on the same vertex set (topology churn under a held relabeling). The
// Perm/Inv slices are shared with the receiver, which stays valid.
func (o *Ordering) Rebind(g *Graph) *Ordering {
	if g.N() != len(o.Perm) {
		panic(fmt.Sprintf("graph: Rebind ordering of %d vertices to graph of order %d",
			len(o.Perm), g.N()))
	}
	return &Ordering{Perm: o.Perm, Inv: o.Inv, G: Relabel(g, o.Perm)}
}

// HubDegreeMin is the degree at which a vertex counts as a hub for the
// locality ordering. Below it the bucket structure would only scatter the
// BFS locality of the long tail; hub packing pays exactly for the vertices
// whose neighbor-counter words absorb a super-constant share of the commit
// phase's writes.
const HubDegreeMin = 64

// degreeBucket maps a degree to its locality bucket: geometric (bit-length)
// buckets for hubs, one shared tail bucket (0) for everything below
// HubDegreeMin.
func degreeBucket(deg int) int {
	if deg < HubDegreeMin {
		return 0
	}
	return bits.Len(uint(deg))
}

// DegreeBucketOrder computes the locality ordering used by the engine's
// bit-sliced kernel path: hubs (degree >= HubDegreeMin) are grouped into
// geometric degree buckets (bit length of deg(u)), buckets laid out from
// highest to lowest so the high-degree hubs — whose neighbor-counter words
// absorb most of the commit phase's writes — land packed into the lowest,
// contiguous lane words; the entire low-degree tail shares one bucket
// behind them. On sparse families (m <= 32n) the order within each bucket
// follows a deterministic global BFS (restarted from the highest-degree
// unvisited vertex), which keeps topologically close vertices in nearby
// words; on dense families the within-bucket order keeps original ids,
// where the CSR is already local.
//
// The result is a pure function of the graph. DegreeBucketOrder returns nil
// when the computed order is the identity permutation (nothing to relabel).
func DegreeBucketOrder(g *Graph) *Ordering {
	n := g.N()
	if n == 0 {
		return nil
	}
	// Vertices in within-bucket key order: BFS discovery order on sparse
	// families, original ids on dense ones. The keys are distinct, so a
	// stable counting sort of this sequence by bucket (highest first) is
	// the order by (bucket desc, key).
	var byKey []int32
	if g.M() <= 32*n {
		byKey = bfsOrder(g)
	} else {
		byKey = make([]int32, n)
		for u := range byKey {
			byKey[u] = int32(u)
		}
	}
	var start [bits.UintSize + 1]int // bucket -> first slot
	for _, u := range byKey {
		start[degreeBucket(g.Degree(int(u)))]++
	}
	pos := 0
	for bk := len(start) - 1; bk >= 0; bk-- {
		c := start[bk]
		start[bk] = pos
		pos += c
	}
	inv := make([]int32, n)
	for _, u := range byKey {
		bk := degreeBucket(g.Degree(int(u)))
		inv[start[bk]] = u
		start[bk]++
	}
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
	return &Ordering{Perm: perm, Inv: inv, G: Relabel(g, perm)}
}

// bfsOrder returns the vertices in the discovery order of a deterministic
// breadth-first sweep: sources are taken in decreasing degree (ties by
// ascending id), neighbors expand in ascending id, and every component is
// covered by restarting at the next unvisited source.
func bfsOrder(g *Graph) []int32 {
	n := g.N()
	// Sources by a counting sort on degree, highest first; vertices enter
	// their degree's slot range in ascending id.
	maxDeg := g.MaxDegree()
	start := make([]int, maxDeg+2) // start[maxDeg-d] = first slot of degree d
	for u := 0; u < n; u++ {
		start[maxDeg-g.Degree(u)+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	seeds := make([]int32, n)
	for u := 0; u < n; u++ {
		key := maxDeg - g.Degree(u)
		seeds[start[key]] = int32(u)
		start[key]++
	}
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue, s)
		for head := len(queue) - 1; head < len(queue); head++ {
			for _, v := range g.Neighbors(int(queue[head])) {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return queue
}

// Relabel rebuilds g's CSR under the permutation perm (perm[old] = new):
// vertex perm[u] of the result has neighbor set {perm[v] : v ~ u}, sorted.
// The construction is direct — degrees permuted, prefix sums, lists filled
// and re-sorted — in O(n + m log maxdeg). It panics unless perm is a
// permutation of [0, n).
func Relabel(g *Graph, perm []int32) *Graph {
	n := g.N()
	if len(perm) != n {
		panic(fmt.Sprintf("graph: Relabel permutation of length %d for graph of order %d",
			len(perm), n))
	}
	offsets := make([]int, n+1)
	seen := make([]bool, n)
	for u := 0; u < n; u++ {
		p := perm[u]
		if p < 0 || int(p) >= n || seen[p] {
			panic(fmt.Sprintf("graph: Relabel perm is not a permutation (perm[%d] = %d)", u, p))
		}
		seen[p] = true
		offsets[int(p)+1] = g.Degree(u)
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := make([]int32, len(g.adj))
	for u := 0; u < n; u++ {
		nu := int(perm[u])
		out := adj[offsets[nu]:offsets[nu+1]]
		for i, v := range g.Neighbors(u) {
			out[i] = perm[v]
		}
		if !int32sSorted(out) {
			slices.Sort(out)
		}
	}
	// A relabeling permutes degrees, so the memo carries over unchanged.
	return &Graph{offsets: offsets, adj: adj, maxDeg: g.maxDeg}
}
