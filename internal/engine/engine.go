// Package engine is the shared frontier-driven round engine behind the
// paper's three MIS processes. A process is expressed as a Rule — an activity
// predicate plus a per-vertex transition over at most two neighbor counters —
// and the engine owns everything the three hand-rolled simulators used to
// duplicate:
//
//   - bitset-packed vertex sets (worklist, active set, stable core I_t and
//     its closed neighborhood) over internal/bitset words;
//   - a frontier worklist: a round evaluates only vertices whose transition
//     can fire, and after the commit re-derives membership only for vertices
//     whose own state or neighborhood changed. The per-round cost is
//     O(|worklist| + Σ deg(changed)) instead of O(n) — in the long tail of a
//     run, where almost nothing flips, rounds become near-free;
//   - incremental neighbor counters with a complete-graph fast path (class
//     totals instead of per-vertex counts, generalizing the seed's 2-state
//     clique shortcut to every rule);
//   - monotone-coverage stabilization: the stable core I_t (black vertices
//     with no black neighbor) only grows, so N+(I_t) is tracked by
//     first-cover stamps, which doubles as the per-vertex local
//     stabilization-time instrument;
//   - daemon-scheduled execution (daemon.go) shared by every rule.
//
// Rounds run sequentially on one goroutine. Parallelism lives one level up,
// across independent runs: internal/batch schedules seeds and sweep cells
// over worker goroutines, each with its own RunContext.
//
// Determinism contract: every vertex draws coins from its own stream, so an
// execution is a pure function of (graph, rule, initial state, streams) — the
// worklist order and the commit order never change which coins a vertex
// sees. This is what keeps the engine coin-for-coin equivalent
// to the goroutine-per-node runtimes in internal/beeping and
// internal/stoneage, and bit-identical to the pre-engine simulators.
package engine

import (
	"fmt"
	"math/bits"

	"ssmis/internal/bitset"
	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// Class bits: which engine counters a state value feeds. Counter A is the
// black projection (all three processes); counter B is rule-specific (the
// 3-state process counts black1 neighbors there).
const (
	ClassA uint8 = 1 << iota
	ClassB
)

// Rule defines a process over the engine. State values are small positive
// uint8s (0 is reserved as "invalid"); all predicates must be pure functions
// of their arguments so that membership caches can be refreshed locally.
type Rule interface {
	// NumStates returns the largest state value in use.
	NumStates() int
	// Class reports the counter classes state s contributes to.
	Class(s uint8) uint8
	// Black reports the black projection of state s.
	Black(s uint8) bool
	// Active reports the paper's activity predicate for a vertex in state s
	// with counter readings a and b.
	Active(u int, s uint8, a, b int32) bool
	// Touched reports whether a vertex in state s with counter readings a, b
	// may transition this round — the engine's worklist predicate. It must be
	// a superset of Active and include every deterministic transition (e.g.
	// black0→white demotion, switch-gated gray→white).
	Touched(u int, s uint8, a, b int32) bool
	// Evaluate returns the next state of a touched vertex, drawing process
	// coins from d (charged to the vertex's own stream). Returning s means
	// "no transition".
	Evaluate(u int, s uint8, a, b int32, d *Draw) uint8
}

// MidRound is implemented by rules that run a synchronous sub-process between
// the coin-drawing phase and the state commit (the 3-color process advances
// its logarithmic switch there). It is invoked exactly once per synchronous
// round, after every touched vertex has drawn its coins against the pre-round
// state.
type MidRound interface {
	MidRound()
}

// Options configures an engine instance.
type Options struct {
	// Bias is the probability a process coin comes up "first outcome"
	// (black). 0.5 draws one bit per coin; any other value draws a 64-bit
	// Bernoulli sample, matching the paper's bit accounting.
	Bias float64
	// NoopWhenIdle makes Step return without advancing the round counter
	// when the worklist is empty (the 2-state process's quiescence
	// semantics: stabilization and empty worklist coincide).
	NoopWhenIdle bool
	// FullRescan disables the frontier and re-derives every membership from
	// scratch each round — the pre-engine cost model. Kept for differential
	// tests and benchmarks; never faster.
	FullRescan bool
	// Ctx, when non-nil, supplies reusable per-worker scratch (bitsets,
	// counters, coverage stamps) in place of fresh allocations — see
	// RunContext. Constructing another engine on the same context invalidates
	// this one. Results are bit-identical with or without a context.
	Ctx *RunContext
	// Scalar forces the per-vertex interface path even for rules eligible
	// for the bit-sliced kernel (KernelRule). The two paths are coin-for-coin
	// bit-identical; the scalar engine is the golden reference the kernel is
	// differentially pinned against.
	Scalar bool
	// CounterLayout selects where the neighbor counters live (counters.go):
	// LayoutAuto resolves the hub/tail split and the tail lane width from
	// the degree profile; the forced values exist for differential tests
	// and the BENCH_kernel.json layout rows. Every layout replays the same
	// execution coin-for-coin — the plane changes only where counters are
	// stored, never what a read returns.
	CounterLayout CounterLayout
	// Order, when non-nil, declares that the graph handed to New is a
	// locality relabeling (graph.Ordering) of the caller's original graph,
	// with the initial state and per-vertex streams already permuted to
	// match. The engine itself never permutes anything — its lanes, counters,
	// bitsets, and dirty words simply run in relabeled space — but it uses
	// the maps at the two boundaries it owns: daemon selections are presented
	// to the scheduler in original ids, and checkpoints (internal/snapshot)
	// capture streams and coverage stamps keyed by original ids. Because
	// every vertex draws coins from its own stream, a relabeled execution is
	// coin-for-coin identical to the identity-ordered one after id mapping.
	Order *graph.Ordering
}

// Draw hands process coins to Rule.Evaluate and counts the bits drawn; the
// engine folds the count into its total after each round.
type Draw struct {
	rngs []*xrand.Rand
	bias float64
	bits int64
}

// Coin draws vertex u's process coin with the configured bias.
func (d *Draw) Coin(u int) bool {
	if d.bias == 0.5 {
		d.bits++
		return d.rngs[u].Bit()
	}
	d.bits += 64
	return d.rngs[u].Bernoulli(d.bias)
}

// change is one committed transition: vertex U moves to state S. It is the
// kernel's change record so the bit-sliced evaluator appends directly into
// the engine's pending list and both paths share one commit pipeline.
type change = kernel.Change

// Core is the engine state for one process execution.
type Core struct {
	g    *graph.Graph
	rule Rule
	opts Options

	state []uint8
	rngs  []*xrand.Rand
	round int
	bits  int64

	complete bool          // complete-graph fast path: counters from class totals
	useB     bool          // rule uses counter B
	classTab []uint8       // rule.Class memoized per state byte (hot-loop dispatch)
	plane    *counterPlane // neighbor counters (counters.go); idle when complete
	totalA   int
	totalB   int
	stateCnt []int // population per state value

	// bit-sliced kernel path (kernelpath.go); nil on the scalar path
	kern *kernel.Lanes

	work      *bitset.Set // touched vertices (this round's worklist)
	workCnt   int
	active    *bitset.Set
	activeCnt int

	inI        *bitset.Set // the monotone stable core I_t
	coveredAt  []int32     // round a vertex first entered N+(I_t); -1 = never
	coveredCnt int

	// per-round scratch
	changes      []change
	dirty        *bitset.Set
	dirtyW       *bitset.Set // kernel path: dirty lane words (universe = kern.Words())
	dirtyAll     bool
	draw         Draw
	forceGeneric bool        // DisableCompleteFastPath
	ctx          *RunContext // non-nil when scratch is leased, not owned

	// daemon accounting (daemon.go)
	steps int
	moves int
	priv  []int
}

// New builds an engine over g for the given rule, taking ownership of the
// initial state vector and the per-vertex random streams.
func New(g *graph.Graph, rule Rule, initial []uint8, rngs []*xrand.Rand, opts Options) *Core {
	n := g.N()
	if len(initial) != n || len(rngs) != n {
		panic(fmt.Sprintf("engine: initial state %d / streams %d for graph order %d",
			len(initial), len(rngs), n))
	}
	// Negated conjunction so NaN fails too.
	if !(opts.Bias > 0 && opts.Bias < 1) {
		panic(fmt.Sprintf("engine: coin bias %v outside (0,1)", opts.Bias))
	}
	if opts.Order != nil && len(opts.Order.Perm) != n {
		panic(fmt.Sprintf("engine: ordering over %d vertices for graph order %d",
			len(opts.Order.Perm), n))
	}
	e := &Core{
		g:     g,
		rule:  rule,
		opts:  opts,
		state: initial,
		rngs:  rngs,
		ctx:   opts.Ctx,
		draw:  Draw{rngs: rngs, bias: opts.Bias},
	}
	if e.ctx != nil {
		e.ctx.lease(e, n, rule.NumStates())
	} else {
		e.stateCnt = make([]int, rule.NumStates()+1)
		e.work = bitset.New(n)
		e.active = bitset.New(n)
		e.inI = bitset.New(n)
		e.coveredAt = make([]int32, n)
		e.dirty = bitset.New(n)
		e.plane = new(counterPlane)
	}
	if e.classTab == nil {
		e.classTab = make([]uint8, rule.NumStates()+1)
	}
	for s := uint8(1); int(s) <= rule.NumStates(); s++ {
		e.classTab[s] = rule.Class(s)
		if e.classTab[s]&ClassB != 0 {
			e.useB = true
		}
	}
	e.initKernel(n)
	e.Rebuild()
	return e
}

// Graph returns the underlying graph (the relabeled one when an Order is
// set — the engine only ever sees relabeled space).
func (e *Core) Graph() *graph.Graph { return e.g }

// Order returns the locality relabeling the engine was constructed under,
// or nil for the identity ordering.
func (e *Core) Order() *graph.Ordering { return e.opts.Order }

// Round returns the number of completed rounds.
func (e *Core) Round() int { return e.round }

// Bits returns the total process random bits drawn so far (sub-process bits,
// e.g. the 3-color switch, are accounted by the rule).
func (e *Core) Bits() int64 { return e.bits }

// SetAccounting overwrites the round and bit counters (checkpoint restore)
// and re-stamps the already-covered vertices with the restored round,
// matching the local-times semantics of an execution resumed mid-run.
func (e *Core) SetAccounting(round int, bits int64) {
	e.round = round
	e.bits = bits
	for i, r := range e.coveredAt {
		if r >= 0 {
			e.coveredAt[i] = int32(round)
		}
	}
}

// SetCoverageStamps overwrites the per-vertex first-cover stamps with a
// checkpointed vector (snapshot restore), preserving the local-times
// instrument across a resume. The stamp support must equal the coverage the
// engine derives from the restored state — I_t is monotone under every
// rule's dynamics, so a live core's stamps always satisfy this; a vector
// that marks a covered vertex uncovered (which would wedge the monotone
// tracking) or vice versa is a damaged checkpoint and reported as an error.
func (e *Core) SetCoverageStamps(stamps []int32) error {
	if len(stamps) != e.g.N() {
		return fmt.Errorf("engine: %d coverage stamps for graph order %d", len(stamps), e.g.N())
	}
	cnt := 0
	for v, r := range stamps {
		if (r >= 0) != (e.coveredAt[v] >= 0) {
			return fmt.Errorf("engine: restored coverage stamp of vertex %d (%d) disagrees with the restored configuration", v, r)
		}
		if r > int32(e.round) {
			return fmt.Errorf("engine: coverage stamp of vertex %d (%d) is later than the restored round %d", v, r, e.round)
		}
		if r >= 0 {
			cnt++
		}
	}
	copy(e.coveredAt, stamps)
	e.coveredCnt = cnt
	return nil
}

// State returns the current state of vertex u.
func (e *Core) State(u int) uint8 { return e.state[u] }

// States returns the full state vector (not a copy).
func (e *Core) States() []uint8 { return e.state }

// Rngs returns the per-vertex random streams (checkpointing).
func (e *Core) Rngs() []*xrand.Rand { return e.rngs }

// ActiveCount returns |A_t| at the end of the last completed round.
func (e *Core) ActiveCount() int { return e.activeCnt }

// StateCount returns the number of vertices currently in state s.
func (e *Core) StateCount(s uint8) int { return e.stateCnt[s] }

// ClassACount returns the number of vertices in a ClassA (black) state.
func (e *Core) ClassACount() int { return e.totalA }

// StableCoreCount returns |I_t|: black vertices with no black neighbor.
func (e *Core) StableCoreCount() int { return e.inI.Count() }

// Complete reports whether the complete-graph fast path is engaged.
func (e *Core) Complete() bool { return e.complete }

// DisableCompleteFastPath forces the generic per-vertex counters even on
// complete graphs; differential tests use it to exercise both paths on one
// execution.
func (e *Core) DisableCompleteFastPath() {
	e.forceGeneric = true
	e.Rebuild()
}

// Stabilized reports N+(I_t) = V. I_t is monotone non-decreasing under every
// rule's dynamics (a stable black vertex keeps re-randomizing between its
// black states, and its neighbors are frozen), so coverage is tracked by
// first-cover stamps and the condition is permanent once reached. For the
// 2-state process this coincides with quiescence: no vertex active.
func (e *Core) Stabilized() bool { return e.coveredCnt == e.g.N() }

// CoveredAt returns the per-vertex first-cover rounds (-1 = not yet covered)
// — the execution's local stabilization times.
func (e *Core) CoveredAt() []int32 { return e.coveredAt }

// countA returns counter A of u (black neighbors).
func (e *Core) countA(u int) int32 {
	if e.complete {
		c := int32(e.totalA)
		if e.classTab[e.state[u]]&ClassA != 0 {
			c--
		}
		return c
	}
	return e.plane.a(u)
}

// countB returns counter B of u (rule-specific; 0 when unused).
func (e *Core) countB(u int) int32 {
	if !e.useB {
		return 0
	}
	if e.complete {
		c := int32(e.totalB)
		if e.classTab[e.state[u]]&ClassB != 0 {
			c--
		}
		return c
	}
	return e.plane.b(u)
}

// CountA exposes counter A for rule implementations and invariant checks.
func (e *Core) CountA(u int) int32 { return e.countA(u) }

// CountB exposes counter B for rule implementations and invariant checks.
func (e *Core) CountB(u int) int32 { return e.countB(u) }

// Step advances one synchronous round: every touched vertex evaluates the
// rule against the frozen pre-round state (drawing coins from its own
// stream), the rule's mid-round sub-process runs, and the changes commit.
func (e *Core) Step() {
	if e.opts.NoopWhenIdle && e.workCnt == 0 {
		return
	}
	if e.kern != nil {
		// Bit-sliced evaluation: whole active words, coins from the same
		// per-vertex streams in the same ascending order as the loop below.
		var drawn int64
		e.changes, drawn = e.kern.EvalWords(e.rngs, e.opts.Bias, e.changes[:0])
		e.bits += drawn
	} else {
		e.changes = e.changes[:0]
		e.work.ForEachWord(func(base int, w uint64) {
			for ; w != 0; w &= w - 1 {
				u := base + bits.TrailingZeros64(w)
				s := e.state[u]
				ns := e.rule.Evaluate(u, s, e.countA(u), e.countB(u), &e.draw)
				if ns != s {
					e.changes = append(e.changes, change{U: int32(u), S: ns})
				}
			}
		})
		e.bits += e.draw.bits
		e.draw.bits = 0
	}
	if mr, ok := e.rule.(MidRound); ok {
		mr.MidRound()
	}
	e.commit(e.changes)
	e.round++
	e.refresh()
	e.syncScratch()
}

// commit applies a batch of transitions and records the dirty frontier.
// Off the complete-graph fast path the neighbor scatter dispatches once per
// batch on the counter plane's tail width; the generic bodies keep the
// per-neighbor loop free of width branches.
func (e *Core) commit(changes []change) {
	if e.kern != nil {
		e.commitKernel(changes)
		return
	}
	if e.complete {
		e.commitScalarComplete(changes)
		return
	}
	switch e.plane.width {
	case 1:
		commitScalarT(e, changes, e.plane.t8a, e.plane.t8b)
	case 2:
		commitScalarT(e, changes, e.plane.t16a, e.plane.t16b)
	default:
		commitScalarT(e, changes, e.plane.t32a, e.plane.t32b)
	}
}

// commitScalarComplete is the scalar commit on the complete-graph fast
// path: counters are class totals, so a class change just dirties the
// whole universe.
func (e *Core) commitScalarComplete(changes []change) {
	for _, c := range changes {
		u := int(c.U)
		s, ns := e.state[u], c.S
		e.stateCnt[s]--
		e.stateCnt[ns]++
		e.state[u] = ns
		e.dirty.Add(u)
		oldCl, newCl := e.classTab[s], e.classTab[ns]
		if oldCl == newCl {
			continue
		}
		e.totalA += int(newCl&ClassA) - int(oldCl&ClassA)
		e.totalB += (int(newCl&ClassB) - int(oldCl&ClassB)) >> 1
		e.dirtyAll = true
	}
}

// commitScalarT is the scalar commit over a counter plane with tail cell
// type T. Tail writes round-trip through int32 so a narrow lane can never
// wrap silently (the check folds away at full width); hub writes are
// full-width.
func commitScalarT[T cell](e *Core, changes []change, tailA, tailB []T) {
	p := e.plane
	hubLen := p.hubLen
	for _, c := range changes {
		u := int(c.U)
		s, ns := e.state[u], c.S
		e.stateCnt[s]--
		e.stateCnt[ns]++
		e.state[u] = ns
		e.dirty.Add(u)
		oldCl, newCl := e.classTab[s], e.classTab[ns]
		if oldCl == newCl {
			continue
		}
		da := int32(newCl&ClassA) - int32(oldCl&ClassA)
		db := (int32(newCl&ClassB) - int32(oldCl&ClassB)) >> 1
		e.totalA += int(da)
		e.totalB += int(db)
		if db != 0 && e.useB {
			for _, v := range e.g.Neighbors(u) {
				vi := int(v)
				if vi < hubLen {
					p.hubA[vi] += da
					p.hubB[vi] += db
				} else {
					na := int32(tailA[vi]) + da
					if int32(T(na)) != na {
						panicCounterOverflow(vi, na)
					}
					tailA[vi] = T(na)
					nb := int32(tailB[vi]) + db
					if int32(T(nb)) != nb {
						panicCounterOverflow(vi, nb)
					}
					tailB[vi] = T(nb)
				}
				e.dirty.Add(vi)
			}
		} else if da != 0 {
			for _, v := range e.g.Neighbors(u) {
				vi := int(v)
				if vi < hubLen {
					p.hubA[vi] += da
				} else {
					na := int32(tailA[vi]) + da
					if int32(T(na)) != na {
						panicCounterOverflow(vi, na)
					}
					tailA[vi] = T(na)
				}
				e.dirty.Add(vi)
			}
		}
	}
}

// Rebuild re-derives every counter and membership set from the state vector:
// used at construction and after external mutation (corruption, rebind).
// Coverage stamps reset to the current round, matching the semantics of the
// local-times instrument after a fault.
func (e *Core) Rebuild() {
	n := e.g.N()
	e.complete = !e.forceGeneric && n >= 2 && e.g.M() == n*(n-1)/2
	if !e.complete {
		// Re-resolve the counter-plane layout (the graph may have changed
		// under Rebind) and reshape its arrays, zeroed.
		e.plane.configure(e.g, e.opts.CounterLayout, e.useB)
	}
	for i := range e.stateCnt {
		e.stateCnt[i] = 0
	}
	e.totalA, e.totalB = 0, 0
	for u := 0; u < n; u++ {
		s := e.state[u]
		e.stateCnt[s]++
		cl := e.classTab[s]
		if cl&ClassA != 0 {
			e.totalA++
		}
		if cl&ClassB != 0 {
			e.totalB++
		}
	}
	if !e.complete {
		switch e.plane.width {
		case 1:
			rebuildCountsT(e, e.plane.t8a, e.plane.t8b)
		case 2:
			rebuildCountsT(e, e.plane.t16a, e.plane.t16b)
		default:
			rebuildCountsT(e, e.plane.t32a, e.plane.t32b)
		}
	}
	e.work.Clear()
	e.active.Clear()
	e.inI.Clear()
	e.workCnt, e.activeCnt = 0, 0
	e.coveredCnt = 0
	for i := range e.coveredAt {
		e.coveredAt[i] = -1
	}
	if e.kern != nil {
		// Bulk-load the lanes from the rebuilt state and counters, then
		// derive every membership a word at a time.
		e.kern.LoadState(e.state)
		if e.complete {
			e.kern.FillHBNComplete(e.totalA, e.totalB)
		} else {
			e.settleHBNWords(0, e.kern.Words())
		}
		words := e.kern.Words()
		for wi := 0; wi < words; wi++ {
			e.refreshKernelWord(wi)
		}
	} else {
		for v := 0; v < n; v++ {
			e.refreshVertex(v)
		}
	}
	e.dirty.Clear()
	if e.dirtyW != nil {
		e.dirtyW.Clear()
	}
	e.dirtyAll = false
}

// rebuildCountsT recounts every neighbor counter into the freshly zeroed
// plane. No overflow guard: the width selection proves counter <= degree <=
// max tail degree fits the lane.
func rebuildCountsT[T cell](e *Core, tailA, tailB []T) {
	p := e.plane
	hubLen := p.hubLen
	n := e.g.N()
	for u := 0; u < n; u++ {
		cl := e.classTab[e.state[u]]
		if cl == 0 {
			continue
		}
		if cl&ClassA != 0 {
			for _, v := range e.g.Neighbors(u) {
				if vi := int(v); vi < hubLen {
					p.hubA[vi]++
				} else {
					tailA[vi]++
				}
			}
		}
		if cl&ClassB != 0 && e.useB {
			for _, v := range e.g.Neighbors(u) {
				if vi := int(v); vi < hubLen {
					p.hubB[vi]++
				} else {
					tailB[vi]++
				}
			}
		}
	}
}

// Rebind switches the engine to a new graph on the same vertex set, keeping
// all vertex states (topology churn). It panics on order mismatch.
func (e *Core) Rebind(g *graph.Graph) {
	if g.N() != e.g.N() {
		panic(fmt.Sprintf("engine: Rebind to order %d != %d", g.N(), e.g.N()))
	}
	e.g = g
	e.Rebuild()
}

// RebindOrdered is Rebind for an engine running under a locality relabeling:
// ord must hold the same permutation re-applied to the new graph
// (graph.Ordering.Rebind), and the engine switches to ord.G. It panics if
// the engine was constructed without an ordering or the permutation length
// changed.
func (e *Core) RebindOrdered(ord *graph.Ordering) {
	if e.opts.Order == nil {
		panic("engine: RebindOrdered on an engine without an ordering")
	}
	if len(ord.Perm) != e.g.N() {
		panic(fmt.Sprintf("engine: RebindOrdered with ordering over %d vertices for graph order %d",
			len(ord.Perm), e.g.N()))
	}
	e.opts.Order = ord
	e.Rebind(ord.G)
}

// CheckIntegrity recomputes every incremental structure from scratch and
// returns a descriptive error on the first divergence — the invariant probe
// used by property tests.
func (e *Core) CheckIntegrity() error {
	n := e.g.N()
	if !e.complete {
		if err := e.plane.checkLayout(e.g, e.opts.CounterLayout); err != nil {
			return fmt.Errorf("round %d: %w", e.round, err)
		}
	}
	workCnt, activeCnt := 0, 0
	totalA, totalB := 0, 0
	for u := 0; u < n; u++ {
		s := e.state[u]
		var a, b int32
		for _, v := range e.g.Neighbors(u) {
			cl := e.rule.Class(e.state[v])
			if cl&ClassA != 0 {
				a++
			}
			if cl&ClassB != 0 {
				b++
			}
		}
		if got := e.countA(u); got != a {
			return fmt.Errorf("round %d: counter A of %d = %d, recomputed %d", e.round, u, got, a)
		}
		if e.useB {
			if got := e.countB(u); got != b {
				return fmt.Errorf("round %d: counter B of %d = %d, recomputed %d", e.round, u, got, b)
			}
		}
		cl := e.rule.Class(s)
		if cl&ClassA != 0 {
			totalA++
		}
		if cl&ClassB != 0 {
			totalB++
		}
		if want := e.rule.Touched(u, s, a, b); want != e.work.Contains(u) {
			return fmt.Errorf("round %d: worklist membership of %d = %v, recomputed %v",
				e.round, u, e.work.Contains(u), want)
		} else if want {
			workCnt++
		}
		if want := e.rule.Active(u, s, a, b); want != e.active.Contains(u) {
			return fmt.Errorf("round %d: active membership of %d = %v, recomputed %v",
				e.round, u, e.active.Contains(u), want)
		} else if want {
			activeCnt++
		}
		if want := e.rule.Black(s) && a == 0; want != e.inI.Contains(u) {
			return fmt.Errorf("round %d: stable-core membership of %d = %v, recomputed %v",
				e.round, u, e.inI.Contains(u), want)
		}
		if int(s) < len(e.classTab) && e.classTab[s] != e.rule.Class(s) {
			return fmt.Errorf("round %d: class table entry for state %d = %d, rule says %d",
				e.round, s, e.classTab[s], e.rule.Class(s))
		}
		if e.kern != nil {
			if e.kern.StateAt(u) != s {
				return fmt.Errorf("round %d: kernel lane code of %d decodes to state %d, state says %d",
					e.round, u, e.kern.StateAt(u), s)
			}
			if e.kern.HasANbr(u) != (a > 0) {
				return fmt.Errorf("round %d: kernel hasANbr bit of %d = %v, recomputed counter %d",
					e.round, u, e.kern.HasANbr(u), a)
			}
			if e.kern.Program().UseB() && e.kern.HasBNbr(u) != (b > 0) {
				return fmt.Errorf("round %d: kernel hasBNbr bit of %d = %v, recomputed counter %d",
					e.round, u, e.kern.HasBNbr(u), b)
			}
		}
	}
	if workCnt != e.workCnt {
		return fmt.Errorf("round %d: workCnt = %d, recomputed %d", e.round, e.workCnt, workCnt)
	}
	if activeCnt != e.activeCnt {
		return fmt.Errorf("round %d: activeCnt = %d, recomputed %d", e.round, e.activeCnt, activeCnt)
	}
	if totalA != e.totalA || (e.useB && totalB != e.totalB) {
		return fmt.Errorf("round %d: class totals (%d,%d), recomputed (%d,%d)",
			e.round, e.totalA, e.totalB, totalA, totalB)
	}
	covered := 0
	for u := 0; u < n; u++ {
		if e.coveredAt[u] >= 0 {
			covered++
		}
	}
	if covered != e.coveredCnt {
		return fmt.Errorf("round %d: coveredCnt = %d, stamps say %d", e.round, e.coveredCnt, covered)
	}
	return nil
}
