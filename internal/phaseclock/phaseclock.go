// Package phaseclock implements the randomized phase-clock machinery the
// paper builds its logarithmic switch on.
//
// The generalized clock (RandPhase of Emek and Keren, PODC 2021 [12]) has
// per-vertex levels {0, 1, ..., D+2} updated in synchronous rounds:
//
//	if level(u) = D+2: draw a bit that is 0 with probability ζ
//	if (level(u) = D+2 and the bit is 1) or level(u) = 0: level'(u) = D+2
//	else:                                 level'(u) = max over N+(u) of level − 1
//
// The paper's randomized logarithmic switch (Definition 26) is exactly the
// D = 3 instance (6 states, levels 0..5) with the on/off mapping
// σ(u) = on iff level(u) ≤ 2, and parameter ζ = 2^-7 (so a = 4/ζ = 512).
// Unlike RandPhase, the switch is used as a local, non-synchronized counter:
// the paper only needs properties (S1)–(S3) of Definition 25.
//
// # Event-driven evaluation
//
// Step does not sweep every vertex. Invariant: after a step, a vertex that
// is not at top, and neither it nor any neighbor changed level in that
// step, keeps its level in the next step. Its level l was set to
// max over N+ − 1 with the same neighborhood levels it sees now, so the rule
// gives l again (a level-0 vertex always just changed: level 0 jumps to top
// on the step after it is reached). Each step therefore evaluates only
//
//   - the vertices at top, which draw their ζ-coin in increasing vertex
//     order, exactly as a full sweep does, and
//   - the candidate set: the vertices that changed level in the previous
//     step, plus their neighbors.
//
// Both sets are ⌈n/64⌉-word bitsets swept together in ascending order. New
// levels are computed from the old ones into a change list and applied
// after the sweep, so the rule stays synchronous; applying a change marks
// the vertex and its neighbors as the next step's candidates. New,
// SetLevel, RandomizeLevels and Rebind mark the clock fully dirty, and the
// next step evaluates every vertex. On a complete graph the neighborhood
// max is the global max, so every step evaluates every vertex against it.
package phaseclock

import (
	"fmt"
	"math/bits"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// DefaultZetaLog2 is the paper's switch parameter: ζ = 2^-7, giving
// a = 4/ζ = 512 in Definition 28.
const DefaultZetaLog2 = 7

// SwitchA is the paper's a parameter of the (a,3)-logarithmic switch.
const SwitchA = 512

// Clock is a randomized phase clock over a graph. It is driven externally:
// the owner supplies per-vertex random streams to Step, which lets the
// 3-color MIS process interleave its color coins and switch coins
// deterministically on a single per-vertex stream.
type Clock struct {
	g        *graph.Graph
	d        int // RandPhase parameter D; levels are 0..d+2
	zetaLog2 uint
	onMax    uint8 // σ(u) = on iff level(u) <= onMax
	levels   []uint8
	top      []uint64 // bit u set iff levels[u] == Top
	cand     []uint64 // next step's candidates: last step's changes and their neighbors
	// changes holds one step's pending transitions, u<<8 | new level,
	// applied after the sweep.
	changes   []uint64
	allDirty  bool // the next step evaluates every vertex
	round     int
	bits      int64
	completeG bool // fast path: global max level suffices
}

// Option configures a Clock.
type Option func(*Clock)

// WithD sets the RandPhase parameter D (default 3, the paper's switch).
func WithD(d int) Option {
	return func(c *Clock) { c.d = d }
}

// WithZetaLog2 sets ζ = 2^-k (default k = 7).
func WithZetaLog2(k uint) Option {
	return func(c *Clock) { c.zetaLog2 = k }
}

// WithOnThreshold sets the largest level mapped to "on" (default 2).
func WithOnThreshold(m uint8) Option {
	return func(c *Clock) { c.onMax = m }
}

// WithBuffers builds the clock on caller-owned memory instead of fresh
// allocations — the engine.RunContext lease that keeps a context-backed
// 3-color run free of per-run O(n) allocations. levels must have length
// g.N(), top and cand ⌈g.N()/64⌉ words; New zeroes them. changes is the
// change list's backing: its length is ignored and its capacity reused, so
// a capacity of g.N() (one step never changes more vertices) means the
// clock never allocates. The caller owns the memory: a clock built on
// leased buffers must not be used after the context's next lease.
func WithBuffers(levels []uint8, top, cand, changes []uint64) Option {
	return func(c *Clock) {
		c.levels = levels
		c.top = top
		c.cand = cand
		c.changes = changes[:0]
	}
}

// New creates a clock with all levels zero (they jump to top on the first
// step). Use RandomizeLevels or SetLevel for arbitrary (adversarial)
// initialization — the process is self-stabilizing, so any initial levels
// are legal.
func New(g *graph.Graph, opts ...Option) *Clock {
	c := &Clock{
		g:        g,
		d:        3,
		zetaLog2: DefaultZetaLog2,
		onMax:    2,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.d < 1 {
		panic(fmt.Sprintf("phaseclock: D must be >= 1, got %d", c.d))
	}
	n := g.N()
	words := (n + 63) / 64
	if c.levels == nil {
		c.levels = make([]uint8, n)
		c.top = make([]uint64, words)
		c.cand = make([]uint64, words)
	} else {
		if len(c.levels) != n || len(c.top) != words || len(c.cand) != words {
			panic(fmt.Sprintf("phaseclock: leased buffers of length %d/%d/%d for graph order %d",
				len(c.levels), len(c.top), len(c.cand), n))
		}
		clear(c.levels)
		clear(c.top)
		clear(c.cand)
	}
	c.allDirty = true
	c.completeG = n >= 2 && g.M() == n*(n-1)/2
	return c
}

// Rebind switches the clock to a new graph on the same vertex set, keeping
// all levels (topology churn). It panics on order mismatch.
func (c *Clock) Rebind(g *graph.Graph) {
	if g.N() != c.g.N() {
		panic(fmt.Sprintf("phaseclock: Rebind to order %d != %d", g.N(), c.g.N()))
	}
	c.g = g
	n := g.N()
	c.completeG = n >= 2 && g.M() == n*(n-1)/2
	c.allDirty = true
}

// Top returns the highest level, D+2.
func (c *Clock) Top() uint8 { return uint8(c.d + 2) }

// States returns the number of per-vertex states, D+3.
func (c *Clock) States() int { return c.d + 3 }

// Round returns the number of completed steps.
func (c *Clock) Round() int { return c.round }

// RandomBits returns the total random bits consumed so far (a ζ = 2^-k coin
// costs k bits).
func (c *Clock) RandomBits() int64 { return c.bits }

// SetRandomBits overwrites the bit accounting; used when restoring a clock
// from a checkpoint.
func (c *Clock) SetRandomBits(bits int64) { c.bits = bits }

// Level returns the current level of u.
func (c *Clock) Level(u int) uint8 { return c.levels[u] }

// SetLevel overwrites the level of u (adversarial initialization /
// corruption). It panics if the level exceeds Top.
func (c *Clock) SetLevel(u int, level uint8) {
	if level > c.Top() {
		panic(fmt.Sprintf("phaseclock: level %d > top %d", level, c.Top()))
	}
	c.levels[u] = level
	c.allDirty = true
}

// RandomizeLevels sets every level to an independent uniform value in
// [0, Top], the "arbitrary initial state" of a self-stabilization adversary.
func (c *Clock) RandomizeLevels(rng *xrand.Rand) {
	c.RandomizeLevelsPerm(rng, nil)
}

// RandomizeLevelsPerm is RandomizeLevels under a vertex relabeling: draws
// stay in ORIGINAL vertex order (the u-th draw belongs to original vertex
// u, keeping the rng sequence identical to an unrelabeled clock) but land
// at slot perm[u] of a clock built on the relabeled graph. A nil perm is
// the identity.
func (c *Clock) RandomizeLevelsPerm(rng *xrand.Rand, perm []int32) {
	top := int(c.Top()) + 1
	for u := range c.levels {
		i := u
		if perm != nil {
			i = int(perm[u])
		}
		c.levels[i] = uint8(rng.Intn(top))
	}
	c.allDirty = true
}

// On reports the switch value of u: on iff level(u) <= onMax.
func (c *Clock) On(u int) bool { return c.levels[u] <= c.onMax }

// Step advances the clock one synchronous round. rngAt(u) must return the
// random stream of vertex u; it is consulted only for vertices at the top
// level, in increasing vertex order.
//
// Only the vertices at top and the candidates — the vertices that changed
// level in the previous step plus their neighbors — are evaluated; every
// other vertex provably keeps its level (see the package comment). After a
// New, SetLevel, RandomizeLevels or Rebind, and on a complete graph, every
// vertex is evaluated. New levels are collected first and applied after
// the sweep, so every vertex reads the previous round's levels.
func (c *Clock) Step(rngAt func(u int) *xrand.Rand) {
	top := c.Top()
	full := c.allDirty || c.completeG
	if c.allDirty {
		c.rebuildTop()
		c.allDirty = false
	}
	var globalMax uint8
	if c.completeG {
		for _, l := range c.levels {
			if l > globalMax {
				globalMax = l
			}
		}
	}
	n := len(c.levels)
	c.changes = c.changes[:0]
	for wi := range c.top {
		w := c.top[wi] | c.cand[wi]
		c.cand[wi] = 0
		if full {
			w = ^uint64(0)
			if rem := n - wi*64; rem < 64 {
				w = 1<<uint(rem) - 1
			}
		}
		for base := wi * 64; w != 0; w &= w - 1 {
			u := base + bits.TrailingZeros64(w)
			l := c.levels[u]
			var nl uint8
			switch {
			case l == top:
				// The bit is 0 with probability ζ; on 1 the vertex stays at
				// top. A leaving vertex holds the maximal level, so its
				// neighborhood max is top.
				c.bits += int64(c.zetaLog2)
				if !rngAt(u).BernoulliPow2(c.zetaLog2) {
					continue
				}
				nl = top - 1
			case l == 0:
				nl = top
			default:
				m := l
				if c.completeG {
					m = globalMax
				} else {
					for _, v := range c.g.Neighbors(u) {
						if lv := c.levels[v]; lv > m {
							m = lv
						}
					}
				}
				if nl = m - 1; nl == l {
					continue
				}
			}
			c.changes = append(c.changes, uint64(u)<<8|uint64(nl))
		}
	}
	for _, ch := range c.changes {
		u, nl := int(ch>>8), uint8(ch)
		if c.levels[u] == top {
			c.top[u>>6] &^= 1 << uint(u&63)
		} else if nl == top {
			c.top[u>>6] |= 1 << uint(u&63)
		}
		c.levels[u] = nl
		if !c.completeG {
			c.cand[u>>6] |= 1 << uint(u&63)
			for _, v := range c.g.Neighbors(u) {
				c.cand[v>>6] |= 1 << uint(v&63)
			}
		}
	}
	c.round++
}

// rebuildTop re-derives the top-vertex bitset from the levels after an
// external write.
func (c *Clock) rebuildTop() {
	top := c.Top()
	clear(c.top)
	for u, l := range c.levels {
		if l == top {
			c.top[u>>6] |= 1 << uint(u&63)
		}
	}
}

// Standalone is a clock that owns its per-vertex random streams, split
// from one master seed (stream u = master.Split(u)).
type Standalone struct {
	*Clock
	rngs []*xrand.Rand
}

// NewStandalone wraps a clock with its own per-vertex streams derived from
// seed, for experiments that run the switch in isolation (E8).
func NewStandalone(g *graph.Graph, seed uint64, opts ...Option) *Standalone {
	c := New(g, opts...)
	master := xrand.New(seed)
	rngs := make([]*xrand.Rand, g.N())
	for u := range rngs {
		rngs[u] = master.Split(uint64(u))
	}
	c.RandomizeLevels(master.Split(uint64(g.N()) + 1))
	return &Standalone{Clock: c, rngs: rngs}
}

// Step advances the standalone clock one round.
func (s *Standalone) Step() {
	s.Clock.Step(func(u int) *xrand.Rand { return s.rngs[u] })
}
