package graph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"ssmis/internal/xrand"
)

// Golden fingerprints pin the exact output of every random generator and of
// the locality ordering: the CSR (offsets, then adj), and for generators the
// first value the generator's stream yields after the graph is drawn, which
// pins the number of draws made. The values were captured before the
// generators' fast paths were written; the fast paths must reproduce them
// bit for bit, so any drift here is a change of the drawn graphs and of
// every downstream execution that reads them.

// fingerprint hashes g's CSR with FNV-1a (64-bit).
func fingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, o := range g.offsets {
		binary.LittleEndian.PutUint64(buf[:], uint64(o))
		h.Write(buf[:])
	}
	for _, v := range g.adj {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	return h.Sum64()
}

// fingerprintPerm hashes a permutation with FNV-1a (64-bit).
func fingerprintPerm(perm []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range perm {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

type goldenGraph struct {
	name string
	gen  func(rng *xrand.Rand) *Graph
	m    int    // edge count
	csr  uint64 // fingerprint of the CSR
	next uint64 // rng.Uint64() right after the generator returns
}

var goldenGraphs = []goldenGraph{
	{"chunglu/b2.2/n1", func(r *xrand.Rand) *Graph { return ChungLu(1, 2.2, 10, r) }, 0, 0x88201fb960ff6465, 0xfd3648d3c5927911},
	{"chunglu/b2.2/n2", func(r *xrand.Rand) *Graph { return ChungLu(2, 2.2, 10, r) }, 1, 0xa2d159d5c13a85e7, 0x3bc2f58af5ad9917},
	{"chunglu/b2.2/n90", func(r *xrand.Rand) *Graph { return ChungLu(90, 2.2, 10, r) }, 387, 0xf48a77692b993d86, 0x19a0d2c6f5940eb9},
	{"chunglu/b2.2/n5000", func(r *xrand.Rand) *Graph { return ChungLu(5000, 2.2, 10, r) }, 22843, 0x169a013798d95340, 0x6ffd6c7ad67c21b},
	{"chunglu/b2.2/n100000", func(r *xrand.Rand) *Graph { return ChungLu(100000, 2.2, 10, r) }, 471976, 0x38c93d34a299dc01, 0xf99f5c1b19377732},
	{"chunglu/b2.5/n1", func(r *xrand.Rand) *Graph { return ChungLu(1, 2.5, 10, r) }, 0, 0x88201fb960ff6465, 0xa60a67af37acb5cb},
	{"chunglu/b2.5/n2", func(r *xrand.Rand) *Graph { return ChungLu(2, 2.5, 10, r) }, 1, 0xa2d159d5c13a85e7, 0x639a9b9d6b3bd08c},
	{"chunglu/b2.5/n90", func(r *xrand.Rand) *Graph { return ChungLu(90, 2.5, 10, r) }, 420, 0xfe34667a8b7d391d, 0xf8e603bcd820e8cf},
	{"chunglu/b2.5/n5000", func(r *xrand.Rand) *Graph { return ChungLu(5000, 2.5, 10, r) }, 24800, 0xa17c52bedf3702a8, 0x244a7cbe5359a4c2},
	{"chunglu/b2.5/n100000", func(r *xrand.Rand) *Graph { return ChungLu(100000, 2.5, 10, r) }, 498228, 0xbf2be2d064bf4a43, 0x5c389647e3cc7ede},
	{"chunglu/b3.0/n1", func(r *xrand.Rand) *Graph { return ChungLu(1, 3.0, 10, r) }, 0, 0x88201fb960ff6465, 0xff33b7f902d2aabf},
	{"chunglu/b3.0/n2", func(r *xrand.Rand) *Graph { return ChungLu(2, 3.0, 10, r) }, 1, 0xa2d159d5c13a85e7, 0xd61a9d9add5e3c5f},
	{"chunglu/b3.0/n90", func(r *xrand.Rand) *Graph { return ChungLu(90, 3.0, 10, r) }, 413, 0xdb411cc6b9896a04, 0xf2ddded4c93fc27f},
	{"chunglu/b3.0/n5000", func(r *xrand.Rand) *Graph { return ChungLu(5000, 3.0, 10, r) }, 24871, 0x27f515aac1780c4d, 0xdc4d04d8902957a6},
	{"chunglu/b3.0/n100000", func(r *xrand.Rand) *Graph { return ChungLu(100000, 3.0, 10, r) }, 500312, 0x77606c5b68df6d9, 0x6f0137b1c8cffbdc},
	{"chunglu/b2.1/n3000/avg60", func(r *xrand.Rand) *Graph { return ChungLu(3000, 2.1, 60, r) }, 62440, 0x4d4a609993389240, 0xf5ea74926a86b1be},
	{"gnp/sparse", func(r *xrand.Rand) *Graph { return Gnp(3000, 0.004, r) }, 18088, 0x470c0833ca31a2c, 0xfe6f232dc37c9659},
	{"gnp/p0.25", func(r *xrand.Rand) *Graph { return Gnp(300, 0.25, r) }, 11179, 0xb5d41937b5427e4f, 0x3a656dc6de30f407},
	{"gnp/dense", func(r *xrand.Rand) *Graph { return Gnp(300, 0.4, r) }, 17972, 0x6d735f7af9da8e3c, 0x33d883c256504fe0},
	{"gnp/clamp", func(r *xrand.Rand) *Graph { return Gnp(5000, 1e-17, r) }, 0, 0x44c6d78a74feec5, 0xce01281bc68b9251},
	{"gnp/tiny", func(r *xrand.Rand) *Graph { return Gnp(100000, 1e-9, r) }, 2, 0x6374a00f94d94b5a, 0xab5a557a6cbdb6e6},
	{"gnpavg/n20000/d10", func(r *xrand.Rand) *Graph { return GnpAvgDegree(20000, 10, r) }, 99643, 0xaadd63f7335b5399, 0xa9b0c34dde7be89},
	{"randomtree/n5000", func(r *xrand.Rand) *Graph { return RandomTree(5000, r) }, 4999, 0x562d8f86c9038085, 0x5c07dbcf3e1c30fe},
	{"uniformtree/n5000", func(r *xrand.Rand) *Graph { return UniformLabeledTree(5000, r) }, 4999, 0x8c8cb6f59cb9a94f, 0xebe4a34d9c376ec9},
	{"regular/n1000/d4", func(r *xrand.Rand) *Graph { return RandomRegular(1000, 4, r) }, 2000, 0x530d357dbd76add0, 0xece63027d21ef395},
	{"wattsstrogatz/n2000/k3", func(r *xrand.Rand) *Graph { return WattsStrogatz(2000, 3, 0.2, r) }, 6000, 0x118af6cea5bc2c4, 0x94de548742112880},
	{"degeneracy/n3000/k3", func(r *xrand.Rand) *Graph { return BoundedDegeneracyRandom(3000, 3, r) }, 8994, 0x373d3cb9a0882362, 0x7d3b7cdae345e7be},
	{"complete/n60", func(*xrand.Rand) *Graph { return Complete(60) }, 1770, 0x24938dd1b7b5fe0d, 0xa854f569d70cf13a},
	{"grid/17x23", func(*xrand.Rand) *Graph { return Grid(17, 23) }, 742, 0x59ca121d7282ed8f, 0x4e47cdfc59fa81fc},
	{"torus/9x11", func(*xrand.Rand) *Graph { return Torus(9, 11) }, 198, 0xeb8f51e5cda3fc5, 0xca37e29b7e16d361},
	{"hypercube/d8", func(*xrand.Rand) *Graph { return Hypercube(8) }, 1024, 0xa598fa34c75035ed, 0xe6f75c509f7a7a95},
}

func TestGoldenGenerators(t *testing.T) {
	for i, c := range goldenGraphs {
		rng := xrand.New(uint64(1000 + i))
		g := c.gen(rng)
		m, csr, next := g.M(), fingerprint(g), rng.Uint64()
		if m != c.m || csr != c.csr || next != c.next {
			t.Errorf("%s: got m=%d csr=%#x next=%#x, want m=%d csr=%#x next=%#x",
				c.name, m, csr, next, c.m, c.csr, c.next)
		}
	}
}

type goldenOrder struct {
	name string
	g    func() *Graph
	perm uint64 // fingerprint of Ordering.Perm
	csr  uint64 // fingerprint of Ordering.G
}

// goldenOrders covers both within-bucket branches of DegreeBucketOrder: the
// BFS ranks of sparse graphs (m <= 32n) and original ids on dense ones.
var goldenOrders = []goldenOrder{
	{"bfs/scrambled-chunglu/n20000", func() *Graph {
		rng := xrand.New(77)
		g := ChungLu(20000, 2.5, 10, rng)
		return Relabel(g, randPerm(g.N(), rng))
	}, 0xc89126332c3abac9, 0x9640683786d01c4d},
	{"bfs/gnp-forest/n5000", func() *Graph {
		rng := xrand.New(78)
		return Gnp(5000, 0.0002, rng)
	}, 0xe50ebece40c90b3d, 0xddf29912f61fa45c},
	{"dense/chunglu/n600/avg120", func() *Graph {
		rng := xrand.New(79)
		g := ChungLu(600, 2.2, 120, rng)
		return Relabel(g, randPerm(g.N(), rng))
	}, 0x58947ee95367a881, 0x6295a6988d76d0ac},
	{"dense/gnp/n400/p0.3", func() *Graph { return Gnp(400, 0.3, xrand.New(80)) }, 0x6550c863c5cf0e4d, 0x3b4b5d8958920fba},
}

func TestGoldenDegreeBucketOrder(t *testing.T) {
	for _, c := range goldenOrders {
		g := c.g()
		dense := g.M() > 32*g.N()
		if want := c.name[:5] == "dense"; dense != want {
			t.Fatalf("%s: m=%d n=%d is not on the %s branch", c.name, g.M(), g.N(), c.name[:5])
		}
		o := DegreeBucketOrder(g)
		if o == nil {
			t.Fatalf("%s: identity order", c.name)
		}
		if perm, csr := fingerprintPerm(o.Perm), fingerprint(o.G); perm != c.perm || csr != c.csr {
			t.Errorf("%s: got perm=%#x csr=%#x, want perm=%#x csr=%#x", c.name, perm, csr, c.perm, c.csr)
		}
	}
}
