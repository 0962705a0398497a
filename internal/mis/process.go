// Package mis implements the paper's three self-stabilizing MIS processes —
// the 2-state process (Definition 4), the 3-state process (Definition 5) and
// the 3-color process with logarithmic switch (Definition 28) — on top of a
// fast array-based synchronous simulator.
//
// All processes share the same contract: states are arbitrary initially
// (self-stabilization), all vertices update in parallel rounds, and the
// process has stabilized once every vertex is stable in the paper's sense,
// at which point the black vertices form a maximal independent set. The
// per-vertex random coins are drawn from per-vertex streams split off a
// master seed, so a run is a pure function of (graph, seed, initializer) —
// and the goroutine-based runtimes in internal/beeping and internal/stoneage
// draw the same coins in the same order, making the two engines
// coin-for-coin equivalent.
package mis

import (
	"fmt"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// Process is the common interface of the three MIS processes.
type Process interface {
	// Name identifies the process family, e.g. "2-state".
	Name() string
	// N returns the number of vertices.
	N() int
	// Round returns the number of completed rounds.
	Round() int
	// Step advances one synchronous round.
	Step()
	// Stabilized reports whether every vertex is stable; once true it stays
	// true and the black set is an MIS.
	Stabilized() bool
	// Black reports the color projection of vertex u (black1/black0 both
	// count as black in the 3-state process).
	Black(u int) bool
	// ActiveCount returns the number of active vertices at the end of the
	// last completed round.
	ActiveCount() int
	// RandomBits returns the total number of random bits consumed.
	RandomBits() int64
	// States returns the size of the per-vertex state space (2, 3, or 18).
	States() int
}

// Init selects an initial-state distribution. The processes are
// self-stabilizing, so "initial state" is an adversarial choice; these are
// the structured adversaries used throughout the experiments.
type Init int

// Initialization adversaries.
const (
	// InitRandom draws every vertex state (including switch levels for the
	// 3-color process) independently and uniformly from the full state
	// space.
	InitRandom Init = iota + 1
	// InitAllWhite starts with every vertex white: every vertex active.
	InitAllWhite
	// InitAllBlack starts with every vertex black: on any graph with edges,
	// a maximally conflicted configuration.
	InitAllBlack
	// InitCheckerboard colors vertices black/white by index parity, a
	// correlated adversarial pattern.
	InitCheckerboard
	// InitNearMIS computes a greedy MIS, then corrupts it by flipping a
	// handful of vertices — "almost legal" configurations that test local
	// repair rather than global construction.
	InitNearMIS
)

func (i Init) String() string {
	switch i {
	case InitRandom:
		return "random"
	case InitAllWhite:
		return "all-white"
	case InitAllBlack:
		return "all-black"
	case InitCheckerboard:
		return "checkerboard"
	case InitNearMIS:
		return "near-MIS"
	default:
		return fmt.Sprintf("Init(%d)", int(i))
	}
}

// AllInits lists every initialization adversary, for sweep experiments.
func AllInits() []Init {
	return []Init{InitRandom, InitAllWhite, InitAllBlack, InitCheckerboard, InitNearMIS}
}

// options carries the configuration shared by the process constructors.
type options struct {
	seed uint64
	init Init
	// explicit initial blackness; overrides init when non-nil (2-state and
	// color projection of the others).
	initialBlack []bool
	// blackBias is the probability an active vertex randomizes to black
	// (default 0.5 — the paper's uniform coin). Footnote 1 of the paper
	// notes the white→black transition could even have probability 1; this
	// knob implements the E13 ablation over that choice.
	blackBias float64
	// switchZetaLog2 sets the 3-color logarithmic switch's ζ = 2^-k
	// (default 7, the paper's value); ignored by the other processes.
	switchZetaLog2 uint
	// trackLocal enables per-vertex stabilization-time recording (the
	// "local complexity" of the execution); the engine tracks first-cover
	// stamps either way, so the option only gates exposure.
	trackLocal bool
	// fullRescan disables the engine's frontier worklist refresh — the
	// pre-engine cost model, kept for differential tests and benchmarks.
	fullRescan bool
	// ctx, when non-nil, leases all per-run scratch (engine structures,
	// state vector, vertex streams) from a per-worker run context.
	ctx *engine.RunContext
	// scalar opts out of the engine's bit-sliced kernel (all three
	// processes auto-select it otherwise).
	scalar bool
	// order selects the locality-relabeling policy (order.go): auto behind
	// the kernel path, identity opt-out, or forced degree-bucketed.
	order orderMode
	// counterLayout selects the engine's neighbor-counter plane layout
	// (default auto; forced values for differential tests and benchmarks).
	counterLayout engine.CounterLayout
}

// engine translates the option set into engine options; noopWhenIdle selects
// the 2-state quiescence semantics for Step, ord the locality relabeling the
// constructor resolved (nil = identity).
func (o options) engine(noopWhenIdle bool, ord *graph.Ordering) engine.Options {
	return engine.Options{
		Bias:          o.blackBias,
		NoopWhenIdle:  noopWhenIdle,
		FullRescan:    o.fullRescan,
		Ctx:           o.ctx,
		Scalar:        o.scalar,
		CounterLayout: o.counterLayout,
		Order:         ord,
	}
}

// Option configures a process constructor.
type Option func(*options)

// WithSeed sets the master seed (default 1).
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithInit selects the initialization adversary (default InitRandom).
func WithInit(init Init) Option {
	return func(o *options) { o.init = init }
}

// WithInitialBlack supplies an explicit initial black mask. The slice is
// copied. For the 3-state process black vertices start in black1; for the
// 3-color process non-black vertices start white and switch levels start
// uniform.
func WithInitialBlack(black []bool) Option {
	return func(o *options) {
		o.initialBlack = append([]bool(nil), black...)
	}
}

// WithBlackBias sets the probability that an active vertex randomizes to
// black (default 0.5). Values outside (0, 1) panic. Non-default biases
// consume one 64-bit draw per coin instead of one bit.
func WithBlackBias(p float64) Option {
	// Written as a negated conjunction so NaN fails too.
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("mis: black bias %v outside (0,1)", p))
	}
	return func(o *options) { o.blackBias = p }
}

// WithSwitchZetaLog2 sets the 3-color process's switch parameter ζ = 2^-k
// (default k = 7, the paper's value). Values outside [1, 64] panic. Other
// processes ignore it.
func WithSwitchZetaLog2(k uint) Option {
	if k < 1 || k > 64 {
		panic(fmt.Sprintf("mis: switch parameter k = %d outside [1, 64]", k))
	}
	return func(o *options) { o.switchZetaLog2 = k }
}

// WithFullRescan disables the engine's frontier worklist and re-derives
// every vertex's membership from scratch each round — the pre-engine cost
// model. Diagnostic/benchmark knob: results are identical, rounds are
// strictly slower.
func WithFullRescan() Option {
	return func(o *options) { o.fullRescan = true }
}

// WithScalarEngine forces the per-vertex interface path instead of the
// engine's bit-sliced kernel, which all three processes otherwise
// auto-select. The two paths are coin-for-coin bit-identical — the scalar
// engine is the golden reference the kernels are differentially pinned
// against — so this is a diagnostic/benchmark knob, never a semantic one.
func WithScalarEngine() Option {
	return func(o *options) { o.scalar = true }
}

// WithCounterLayout forces the engine's neighbor-counter plane layout
// (engine.LayoutFlat/LayoutNarrow/LayoutSplit) instead of the auto
// resolution from the degree profile. Every layout replays the same
// execution coin-for-coin — the plane changes only where counters live,
// never what a read returns — so like WithScalarEngine this is a
// diagnostic/benchmark knob, never a semantic one. The determinism and
// lockstep matrices pin all layouts against each other.
func WithCounterLayout(l engine.CounterLayout) Option {
	return func(o *options) { o.counterLayout = l }
}

// CounterPlane reports the engine's resolved counter-plane geometry — the
// observable half of the loud-fallback contract (FellBack is set when a
// forced narrow/split layout could not honor a sub-32-bit width). The zero
// Info on the complete-graph fast path, which keeps no per-vertex counters.
func (p *TwoState) CounterPlane() engine.CounterPlaneInfo { return p.core.CounterPlane() }

// CounterPlane reports the engine's resolved counter-plane geometry; see
// (*TwoState).CounterPlane.
func (p *ThreeState) CounterPlane() engine.CounterPlaneInfo { return p.core.CounterPlane() }

// CounterPlane reports the engine's resolved counter-plane geometry; see
// (*TwoState).CounterPlane.
func (p *ThreeColor) CounterPlane() engine.CounterPlaneInfo { return p.core.CounterPlane() }

// WithRunContext builds the process on leased per-worker scratch: every
// engine structure, the state vector, and the per-vertex random streams come
// from ctx instead of fresh allocations, so a batch worker amortizes its
// allocations across thousands of runs. Execution is bit-identical to a
// context-free process. The context owns the memory: constructing another
// process (or engine) on the same context invalidates this one, so a
// context-backed process must be run to completion and summarized before
// the worker moves on — the internal/batch worker lifecycle.
func WithRunContext(ctx *engine.RunContext) Option {
	return func(o *options) { o.ctx = ctx }
}

// WithLocalTimes enables per-vertex stabilization-time recording: the round
// at which each vertex first became stable (entered N+(I_t)) is retained
// and exposed through the process's StabilizationTimes method. The paper's
// global bounds are driven by straggler vertices; this instrument separates
// the typical (local) from the worst (global) stabilization behaviour.
func WithLocalTimes() Option {
	return func(o *options) { o.trackLocal = true }
}

// WithWorkers is accepted for compatibility and has no effect: a process
// executes its rounds sequentially. Negative k still panics.
//
// Deprecated: parallelism comes from running independent seeds and sweep
// cells concurrently on the batch pool (ssmis.RunSeeds, missweep -workers),
// not from splitting one round across goroutines.
func WithWorkers(k int) Option {
	if k < 0 {
		panic(fmt.Sprintf("mis: negative worker count %d", k))
	}
	return func(*options) {}
}

func buildOptions(opts []Option) options {
	o := options{seed: 1, init: InitRandom, blackBias: 0.5, switchZetaLog2: 7}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// initialBlackMask materializes the initialization adversary as a black mask
// over g's vertices, consuming randomness from rng.
func initialBlackMask(g *graph.Graph, o options, rng *xrand.Rand) []bool {
	n := g.N()
	if o.initialBlack != nil {
		if len(o.initialBlack) != n {
			panic(fmt.Sprintf("mis: initial mask length %d != n %d", len(o.initialBlack), n))
		}
		return append([]bool(nil), o.initialBlack...)
	}
	var black []bool
	if o.ctx != nil {
		black = o.ctx.BoolBuf(n)
	} else {
		black = make([]bool, n)
	}
	switch o.init {
	case InitRandom:
		for u := range black {
			black[u] = rng.Bit()
		}
	case InitAllWhite:
		// zero value
	case InitAllBlack:
		for u := range black {
			black[u] = true
		}
	case InitCheckerboard:
		for u := range black {
			black[u] = u%2 == 0
		}
	case InitNearMIS:
		// Greedy MIS, then flip ~max(1, n/50) random vertices.
		blocked := make([]bool, n)
		for u := 0; u < n; u++ {
			if !blocked[u] {
				black[u] = true
				for _, v := range g.Neighbors(u) {
					blocked[v] = true
				}
			}
		}
		flips := n / 50
		if flips < 1 {
			flips = 1
		}
		for i := 0; i < flips; i++ {
			u := rng.Intn(n)
			black[u] = !black[u]
		}
	default:
		panic(fmt.Sprintf("mis: unknown init %v", o.init))
	}
	return black
}

// splitVertexStreams derives the per-vertex random streams from the master
// seed. The stream of original vertex u is always master.Split(u) — stream
// identity is keyed by original ids — and under a locality relabeling (ord
// non-nil) it is seeded into slot ord.NewID(u), where the relabeled engine
// indexes it. A run context, when present, supplies the generator array
// allocation-free.
func splitVertexStreams(n int, master *xrand.Rand, ctx *engine.RunContext, ord *graph.Ordering) []*xrand.Rand {
	if ctx != nil {
		return ctx.VertexStreamsPerm(n, master, ord)
	}
	// One contiguous backing array instead of n individual allocations: at
	// n=10^6 the per-vertex Splits used to be the bulk of construction's
	// allocator traffic (the generators stay identical — SplitInto seeds
	// each slot exactly as Split would).
	backing := make([]xrand.Rand, n)
	rngs := make([]*xrand.Rand, n)
	for u := 0; u < n; u++ {
		i := ord.NewID(u)
		master.SplitInto(&backing[i], uint64(u))
		rngs[i] = &backing[i]
	}
	return rngs
}

// stateBuf returns the n-length state vector for a constructor: leased from
// the run context when present, freshly allocated otherwise.
func stateBuf(n int, ctx *engine.RunContext) []uint8 {
	if ctx != nil {
		return ctx.Uint8Buf(n)
	}
	return make([]uint8, n)
}

// initStreamIndex is the master stream index used for initialization coins,
// kept distinct from all per-vertex streams.
func initStream(n int, master *xrand.Rand) *xrand.Rand {
	return master.Split(uint64(n) + 1)
}

// Result summarizes a completed (or round-capped) run.
type Result struct {
	// Rounds is the number of rounds executed until stabilization (or the
	// cap).
	Rounds int
	// Stabilized reports whether the process stabilized within the cap.
	Stabilized bool
	// RandomBits is the total random bits consumed by the process.
	RandomBits int64
}

// Run advances p until it stabilizes or maxRounds rounds have elapsed.
func Run(p Process, maxRounds int) Result {
	for !p.Stabilized() && p.Round() < maxRounds {
		p.Step()
	}
	return Result{Rounds: p.Round(), Stabilized: p.Stabilized(), RandomBits: p.RandomBits()}
}

// DefaultRoundCap returns a generous cap for experiments: well above every
// polylog bound proven in the paper at laptop scales, so hitting it signals
// a real anomaly rather than bad luck. It is 200·log₂²(n), floored for tiny
// graphs.
func DefaultRoundCap(n int) int {
	if n < 2 {
		return 64
	}
	log2 := 0
	for m := n; m > 0; m >>= 1 {
		log2++
	}
	limit := 200 * log2 * log2
	if limit < 2000 {
		limit = 2000
	}
	return limit
}
