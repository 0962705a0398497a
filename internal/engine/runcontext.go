package engine

// Per-worker run contexts. A sweep-scale workload executes thousands of
// independent runs back to back on each worker; constructing a fresh Core
// per run used to allocate every bitset, counter array, coverage stamp
// vector, and per-vertex random stream anew — O(n) allocations per run that
// the garbage collector pays for at sweep scale. A RunContext owns one
// reusable copy of all of that scratch. Leasing is destructive by design:
// constructing a new engine (or process) on a context invalidates whatever
// previously leased from it, which is exactly the lifecycle of a batch
// worker — run to completion, fold the result into a streaming aggregate,
// reuse the scratch for the next run.

import (
	"ssmis/internal/bitset"
	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// RunContext is reusable per-worker scratch for engine (and process)
// construction. It is not safe for concurrent use: one context belongs to
// one worker. The zero value is not usable; call NewRunContext.
//
// Lease discipline: every buffer handed out remains owned by the context.
// The next New/lease on the same context recycles the same memory, so a
// Core (or a process wrapping one) built on a context must not be used
// after the context's next lease. Checkpoints taken from context-backed
// processes copy what they need and stay valid.
type RunContext struct {
	work, active, inI, dirty bitset.Set
	coveredAt                []int32
	plane                    counterPlane
	stateCnt                 []int
	classTab                 []uint8
	changes                  []change
	priv                     []int
	lanes                    kernel.Lanes
	dirtyW                   bitset.Set

	state []uint8
	mask  []bool
	rands []xrand.Rand
	rngs  []*xrand.Rand

	// clockLevels, clockNMax, clockNCnt, clockTop, clockCand and
	// clockChanges back a rule's phase clock (the 3-color switch), leased
	// through ClockBufs.
	clockLevels, clockNMax            []uint8
	clockNCnt                         []uint32
	clockTop, clockCand, clockChanges []uint64

	// Locality-ordering memo: batch shards run thousands of seeds over one
	// shared graph, and the degree-bucketed ordering is a pure function of
	// the graph, so it is computed once per (context, graph) pair. ordG is
	// the key; ord may be nil (the computed order was the identity).
	ordG *graph.Graph
	ord  *graph.Ordering
}

// CachedOrdering returns the memoized locality ordering for g and whether
// one has been stored (the stored ordering itself may be nil: identity).
func (c *RunContext) CachedOrdering(g *graph.Graph) (*graph.Ordering, bool) {
	if c.ordG == g {
		return c.ord, true
	}
	return nil, false
}

// StoreOrdering memoizes the locality ordering computed for g.
func (c *RunContext) StoreOrdering(g *graph.Graph, ord *graph.Ordering) {
	c.ordG = g
	c.ord = ord
}

// NewRunContext returns an empty context; buffers grow on first lease and
// are reused afterwards.
func NewRunContext() *RunContext { return &RunContext{} }

// grow reshapes buf to length n, zeroed, reusing capacity when possible.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Uint8Buf leases the context's per-vertex state buffer, zeroed, length n.
// Process constructors use it for the initial state vector they hand to New.
func (c *RunContext) Uint8Buf(n int) []uint8 {
	c.state = grow(c.state, n)
	return c.state
}

// ClockBufs leases the context's phase-clock memory for a clock over n
// vertices, in phaseclock.WithBuffers argument order: the level array and
// the neighborhood summary (nmax, ncnt; length n each), the top-vertex and
// candidate bitsets (⌈n/64⌉ words each), all zeroed, and an empty change
// list with capacity n, enough for any step. The 3-color process hands them
// to its switch, so a context-backed run allocates nothing per run or per
// round for its clock.
func (c *RunContext) ClockBufs(n int) (levels, nmax []uint8, ncnt []uint32, top, cand, changes []uint64) {
	words := (n + 63) / 64
	c.clockLevels = grow(c.clockLevels, n)
	c.clockNMax = grow(c.clockNMax, n)
	c.clockNCnt = grow(c.clockNCnt, n)
	c.clockTop = grow(c.clockTop, words)
	c.clockCand = grow(c.clockCand, words)
	if cap(c.clockChanges) < n {
		c.clockChanges = make([]uint64, 0, n)
	}
	return c.clockLevels, c.clockNMax, c.clockNCnt, c.clockTop, c.clockCand, c.clockChanges[:0]
}

// BoolBuf leases the context's per-vertex mask buffer, zeroed, length n
// (initialization adversaries materialize their black mask here).
func (c *RunContext) BoolBuf(n int) []bool {
	c.mask = grow(c.mask, n)
	return c.mask
}

// VertexStreams leases the context's per-vertex generator array, reseeded to
// master.Split(u) for each vertex u — the allocation-free counterpart of
// splitting n fresh streams per run.
func (c *RunContext) VertexStreams(n int, master *xrand.Rand) []*xrand.Rand {
	return c.VertexStreamsPerm(n, master, nil)
}

// VertexStreamsPerm is VertexStreams under a locality relabeling: the stream
// of original vertex u (always master.Split(u) — stream identity is keyed by
// original ids) lands at slot ord.NewID(u), where the relabeled engine looks
// it up. A nil ordering is the identity.
func (c *RunContext) VertexStreamsPerm(n int, master *xrand.Rand, ord *graph.Ordering) []*xrand.Rand {
	if cap(c.rands) < n {
		c.rands = make([]xrand.Rand, n)
		c.rngs = make([]*xrand.Rand, n)
	}
	c.rands = c.rands[:n]
	c.rngs = c.rngs[:n]
	for u := 0; u < n; u++ {
		i := ord.NewID(u)
		master.SplitInto(&c.rands[i], uint64(u))
		c.rngs[i] = &c.rands[i]
	}
	return c.rngs
}

// lease wires the context's scratch into e in place of fresh allocations.
// Called from New before Rebuild derives every structure. The context holds
// no reference back to e (that would pin the previous run's graph for the
// worker's whole lifetime); instead the engine returns append-grown scratch
// through syncScratch after every round.
func (c *RunContext) lease(e *Core, n, numStates int) {
	c.work.Reset(n)
	c.active.Reset(n)
	c.inI.Reset(n)
	c.dirty.Reset(n)
	e.work = &c.work
	e.active = &c.active
	e.inI = &c.inI
	e.dirty = &c.dirty
	c.coveredAt = grow(c.coveredAt, n)
	e.coveredAt = c.coveredAt
	c.stateCnt = grow(c.stateCnt, numStates+1)
	e.stateCnt = c.stateCnt
	c.classTab = grow(c.classTab, numStates+1)
	e.classTab = c.classTab
	e.changes = c.changes[:0]
	e.priv = c.priv[:0]
	// The counter plane (Rebuild configures it per graph) reuses the
	// context's backing across runs.
	e.plane = &c.plane
}

// syncScratch hands the engine's append-grown per-round scratch back to the
// owning context so the next lease reuses its capacity. Called at the end
// of every round; a no-op without a context.
func (e *Core) syncScratch() {
	if e.ctx != nil {
		e.ctx.changes = e.changes
		e.ctx.priv = e.priv
	}
}

// leaseLanes leases the context's bit-sliced kernel lanes, configured to
// run the given compiled lane program over [0, n), together with the
// word-granular dirty set the kernel commit marks — the engine requests
// them only when the rule qualifies for the kernel path. Configure fully
// zeroes every lane the program engages, so a context switching between
// rules (2-state → 3-state → back) never leaks stale lane words.
func (c *RunContext) leaseLanes(prog *kernel.Program, n int) (*kernel.Lanes, *bitset.Set) {
	c.lanes.Configure(prog, n)
	c.dirtyW.Reset(c.lanes.Words())
	return &c.lanes, &c.dirtyW
}
