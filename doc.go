// Package ssmis is a Go implementation of the distributed self-stabilizing
// maximal-independent-set (MIS) processes of Giakkoupis and Ziccardi,
// "Distributed Self-Stabilizing MIS with Few States and Weak Communication"
// (PODC 2023, arXiv:2301.05059), together with the substrates needed to
// reproduce every quantitative claim of the paper: graph generators, a
// shared frontier-driven round engine, goroutine-per-node beeping and
// stone-age runtimes, classical baselines, a good-graph checker, fault
// injection, and an experiment harness.
//
// # Architecture
//
// Execution is layered: engine → batch → trials/experiments → commands,
// with three interchangeable runtimes under the engine layer:
//
//	                 ┌ internal/mis ──────── array simulator (frontier engine)
//	one process,     ├ internal/noderun ──── goroutine/node, lockstep rounds
//	one (graph,seed) │    └ beeping / stoneage program sets (Emit/Deliver)
//	                 └ internal/async ────── per-node clocks, drifting slots,
//	                       interval-overlap hearing (same program sets)
//	          ↓ all three draw identical coins; async at ρ=1 ≡ noderun ≡ mis
//	internal/batch ── work-stealing pool over (graph, seed) jobs
//	internal/experiment (E1–E19), RunSeeds ── sweeps as batch submissions
//	internal/scenario ── declarative registries + builder + JSON codec,
//	      compiled onto the experiment layer's spec runners
//	cmd/misrun · missweep · misfuzz · misviz
//
// Which runtime to use:
//
//	internal/mis      fastest; experiments, sweeps, daemon schedules (E18),
//	                  checkpoints — the default for measurement
//	internal/noderun  model-faithfulness: one goroutine per node, a real
//	                  broadcast medium enforcing the beeping/stone-age
//	                  constraints; use to certify the simulator's rules
//	internal/async    asynchrony: per-node clocks under a drift bound ρ
//	                  (bounded / eventual-sync / adversarial models); use to
//	                  probe the weak-communication claim beyond lockstep
//	                  rounds (E19, misrun -async)
//	internal/sched    the sequential [28, 20] baseline under daemon models,
//	                  including the k-fair fairness-boundary daemons
//
// All four agree wherever their models overlap: the cross-runtime
// equivalence matrix (internal/async) pins simulator ≡ synchronous runtime
// ≡ async-at-ρ=1 round-for-round over 20 seeds × 4 graph families.
//
// Layer 1 — internal/engine, one run. All three processes are thin rule
// definitions — an activity predicate plus a per-vertex transition over at
// most two neighbor counters — running on one shared engine. The engine
// owns bitset-packed vertex sets, incremental neighbor counters with a
// complete-graph fast path, and a frontier worklist: a round evaluates only
// the vertices whose transition can fire and re-derives memberships only
// where the neighborhood changed, so the long tail of a run — where almost
// nothing flips — costs O(Σ deg(flipped)) per round instead of O(n).
// Stabilization is detected through the monotone stable core I_t (black
// vertices with no black neighbor) covering the graph, whose first-cover
// stamps double as the per-vertex local stabilization times
// (WithLocalTimes). A round runs sequentially on one goroutine:
// evaluation, commit, then the membership refresh in ascending vertex
// order. Parallelism is the batch pool's job (Layer 2): the processes are
// per-vertex local with independent coins, so a measurement gets its
// cores from running seeds and sweep cells side by side, not from
// splitting one round — on the benchmark's 10^6-vertex shapes a round
// split across two workers ran slower than a sequential one. The engine
// further provides daemon-scheduled execution bridging internal/sched into
// the randomized processes (the DaemonRun methods, the misrun -daemon flag
// and experiment E18), and reusable per-worker run contexts
// (engine.RunContext): all per-run scratch — bitsets, counters, coverage
// stamps, per-vertex generator arrays — leases from the worker's context,
// so a warm worker's rounds allocate nothing and its runs amortize their
// allocations across thousands of seeds.
//
// Layer 1a — the bit-sliced kernel (internal/engine/kernel). The 2-state
// and 3-state rules drop to a word-parallel execution path processing 64 vertices per
// uint64. A rule describes itself as a compact kernel.Spec — a two-bit
// state encoding plus 16-entry truth tables for the activity and worklist
// predicates over (lo, hi, hasANbr, hasBNbr), plus per-code transition maps
// for coin and forced moves — and kernel.Compile turns each table into a
// minimized branch-free word expression by Shannon expansion (the 2-state
// activity table provably minimizes to the two-gate ^(lo XOR hbnA)
// identity). The two-bit encoding is shared by every rule: the lo lane IS
// the black/ClassA projection, code 0 is the white-like state, code 1 the
// black state, and code 3 (lo AND hi) the ClassB state when one exists:
//
//	rule     code 0  code 1  code 2  code 3   extra lanes
//	2-state  white   black   —       —        —
//	3-state  white   black0  —       black1   hasBNbr (black1 neighbors)
//
// so core = lo AND NOT hbnA and the class totals are rule-generic word
// loops. The hasANbr/hasBNbr lanes are maintained incrementally by the
// commit: a vertex's bit flips exactly when the corresponding neighbor
// counter crosses zero, so the lanes cost nothing on the (overwhelmingly
// common) counter updates that do not cross; on complete graphs both lanes
// fill from the class totals in O(n/64) words. The dirty frontier itself is tracked per lane word, not
// per vertex — the refresh re-derives whole words anyway, and the
// word-index set is 64x smaller (2KB at n=10^6), so the commit's random
// neighbor marking stays cache-resident. The 3-color rule has no kernel,
// and both of its layers pay only for events. Its phase clock
// (internal/phaseclock) evaluates only the vertices at the top level and
// the previous step's level changes plus the neighbors whose neighborhood
// max they moved; each vertex keeps its neighborhood's max level and the
// count of neighbors at it, pushed on every change, so a candidate reads no
// neighborhood. A gray vertex is on the engine's worklist only while its
// switch is on: the rule marks every vertex whose level the clock changed
// dirty (engine.Core.MarkDirty), and the refresh re-reads its switch. What
// remains per round is the scalar white/black evaluation, which a
// bit-sliced gate lane measured slower than (0.92x on G(10^5, avg degree
// 10)), so 3-color runs on the scalar path only. Determinism: evaluation
// walks set bits of each worklist word in ascending vertex order and draws
// a coin —
// one bit at bias 1/2, a 64-bit Bernoulli sample otherwise — from the
// vertex's own stream only when the vertex is active (forced transitions
// draw nothing), which is exactly the scalar loop's order and accounting,
// so a kernel execution is coin-for-coin bit-identical to the scalar engine
// (and hence to every runtime above). The kernel engages automatically when
// the rule implements engine.KernelRule and runs no mid-round sub-process
// (the 2-state and 3-state processes; the registration validates the
// compiled program against the rule's own predicates and class/black
// projections), and WithScalarEngine forces the interface path — the
// golden reference the determinism matrix, the kernel-lockstep matrix, the
// misfuzz differential target, and the CI speed gate (BENCH_kernel.json,
// >= 1.2x for both the 2-state and 3-state pairs at n=10^6) pin the
// kernels against. The same gate holds the event-driven phase clock at
// >= 10x over the full-sweep clock rule.
//
// Layer 1a' — the locality relabeling (graph.DegreeBucketOrder). On
// heavy-tailed graphs the kernel's hottest remaining loop is the commit
// phase's neighbor-counter writes, and in natural vertex order the
// high-degree hubs that absorb most of those writes are scattered across
// the address space. The engine can therefore run over a relabeled view of
// the graph (graph.Ordering: old<->new id maps plus the CSR rebuilt under
// the permutation): hubs — degree >= 64, grouped into geometric
// (bit-length) degree buckets, highest first — are packed into the lowest
// contiguous lane words, and the whole low-degree tail follows in one
// bucket ordered by a deterministic BFS (on sparse families, m <= 32n),
// which keeps topologically close vertices in nearby counter and bitset
// words. The relabeling is invisible outside internal/mis: every vertex
// draws from the stream split off the master seed by its ORIGINAL id and
// initialization coins are drawn in original vertex order, so a relabeled
// execution is a pure graph isomorphism of the identity-ordered one —
// coin-for-coin bit-identical after id mapping — and every exposed surface
// (Black/State/ColorOf, masks, coveredAt stamps, fault injection,
// checkpoints, daemon selections, summaries) maps ids at the boundary.
// Checkpoints serialize in original order, so a snapshot taken under one
// ordering restores under any other. Policy: the ordering is a pure
// function of the graph but costs about one full n=10^6 run to compute, so
// the auto policy engages it only where it measurably wins — behind the
// kernel path, at n >= 2^15, when a run context is attached to memoize it
// (batch workers share one ordering across thousands of seeds), and only
// on graphs whose hubs are scattered through the id space: the repo's own
// generators emit weight-sorted ids, where hubs are already front-packed
// and a reorder costs without winning (hubless flat-degree families are
// likewise excluded). WithDegreeOrder forces it, WithIdentityOrder opts
// out (missweep -identity-order), and the relabel equivalence matrix, the
// lockstep/refresh matrices' relabel axis, the misfuzz relabel target, and
// the BENCH_kernel.json locality row pair (gated: the relabeling must
// never lose on id-scrambled Chung-Lu n=10^6) pin all of it.
//
// Layer 1a” — counter planes (engine/counters.go). The engine's neighbor
// counters are behind every commit's hottest loop — a random-access
// read-modify-write scatter into one cell per touched neighbor — and the
// counter plane restructures that storage without changing a single value
// anyone reads. Two mechanisms, resolved per graph from the degree
// profile at Rebuild (WithCounterLayout forces one; auto is the default):
// width-adaptive tail lanes — a counter never exceeds its vertex's degree,
// so when the maximum degree outside the hub prefix fits a byte (or a
// halfword) the tail counters live in uint8 (uint16) lanes, shrinking the
// scatter traffic 4x (2x) for identical values, with a loud int32 fallback
// (CounterPlaneInfo.FellBack, plus panic-guarded lane writes) when a forced
// narrow layout cannot fit; the hub/tail split — when hubs (degree >= 64)
// are packed first, naturally by the generators' weight-sorted ids or by
// the locality relabeling above, the hub prefix keeps a dense full-width
// int32 plane small enough to stay cache-resident across a round while the
// tail (always low-degree) shrinks to its narrow width. The plane changes
// only where a counter is stored, never the value a read returns, so every
// layout replays coin-for-coin bit-identical executions — the determinism
// and lockstep matrices pin the layout axis against the scalar golden,
// CheckIntegrity re-verifies both the layout-selection invariants and a
// flat recount every time it runs, and the BENCH_kernel.json counter row
// pairs gate the split
// at >= 1.1x (flat vs auto on relabeled Chung-Lu n=10^6) and the narrow
// lanes at >= 1.0x (Gnp n=10^6, must never lose).
//
// Layer 2 — internal/batch, many runs. Every multi-run workload executes on
// a work-stealing batch scheduler: work is submitted as shards (one graph,
// many seeds — the graph builds once, lazily, and is shared read-only
// across all its seeds), shards are cut into chunks dealt onto per-worker
// deques, and an idle worker steals from the top of another's deque, so a
// few huge cells spread across the pool while small cells stay local. Runs
// are pure functions of (graph, seed); outcomes are delivered to each
// batch's sink in job order through a reorder buffer and folded into
// streaming aggregates (Welford mean/CI and counting-map quantiles in
// internal/stats), so summaries never materialize per-run slices and are
// bit-identical at any worker count, under any steal schedule.
//
// Layer 1b — internal/async, one asynchronous run. The same per-node
// programs the synchronous runtime executes (beeping.NewPrograms,
// stoneage.NewThreeStatePrograms) run on a discrete-event medium where
// every node owns a clock advanced by a drift model: slots have real-tick
// lengths within the drift bound ρ, beeps occupy the emitting node's whole
// slot interval, and a node hears a channel iff a neighbor's beep interval
// overlaps its listening slot. At ρ=1 the medium provably collapses to the
// synchronous execution coin-for-coin; at ρ>1 it opens the paper's
// weak-communication claim to asynchrony (experiment E19, misrun -async,
// examples/asyncnet). Executions are pure functions of (graph, seed,
// drift) — replays are byte-identical.
//
// Layer 3 — trials and experiments. The public RunSeeds/RunSeedsOn APIs are
// thin adapters over a batch pool (TrialSummary reports failed seeds
// explicitly), and the experiment harness (internal/experiment, E1–E19)
// submits every cell — stabilization grids, fault attacks, churn chains,
// runtime-equivalence replays, daemon schedules, async drift sweeps — as
// batch jobs.
//
// Layer 4 — commands. cmd/missweep creates ONE pool per invocation, shared
// by all selected experiments running concurrently (-workers sizes the
// pool, -batch sets the chunk size, -times reports per-cell wall times), so
// a straggler cell in one experiment no longer serializes the sweep:
//
//	missweep -run all -scale 0.25 -workers 8 -times
//
// cmd/misrun's -trials mode runs its seeds on the same substrate (also
// -workers/-batch) and reports cell wall time plus the exact seeds of any
// failed runs. BENCH_batch.json records the scheduler against the old
// per-cell pools.
//
// # Declarative scenarios
//
// internal/scenario makes the experiment vocabulary declarative: a scenario
// names its axes — graph family (with validated parameters), process,
// runtime (sync, beeping, stone-age, or async with a drift model), daemon
// schedules, fault adversaries, metrics — and compiles to an
// experiment.Experiment running the exact cell structure the hand-coded
// suite submits, because both sides share one set of spec runners
// (ScalingSpec, RuntimeScalingSpec, DaemonMatrixSpec, FaultMatrixSpec,
// LocalTimesSpec in internal/experiment). Checkpointing, cell timing, and
// worker-count/scalar/ordering invariance therefore extend to scenarios by
// construction: E1, E4 and E18 re-expressed as scenarios are pinned
// byte-identical to their hand-coded originals at workers 1 and 8.
//
// Three equivalent entry points feed the layer: the fluent Go builder
// (scenario.New("x").Scaling("...").Process("2-state").Graph("gnp-avg",
// scenario.Params{"avgdeg": 8})...), which accumulates construction errors
// and reports them all at Build() alongside the full cross-axis validation
// (drift requires the async runtime, beeping is 2-state-only, tail tables
// and local-times are sync-only, ...); JSON files through the versioned
// codec (missweep -scenario file.json), which rejects unknown fields,
// unknown unit types, version skew and trailing data loudly in the
// internal/snapshot style — a file that decodes is a file that compiles;
// and scenario literals validated by Validate(). missweep -list prints the
// whole vocabulary; examples/scenarios/ holds runnable samples, and the
// misfuzz scenario target pins round-trip Plan equality plus typed-error
// rejection of arbitrarily mutated documents.
//
// # Checkpoint and resume
//
// Every layer serializes durable execution state through ONE versioned
// snapshot codec (internal/snapshot). The envelope is self-describing —
// magic, format version (currently 1), payload kind, JSON payload, CRC-32
// over the whole record — and every file is written atomically (staged in
// a temporary file, renamed into place), so a process killed mid-write
// leaves the previous intact checkpoint behind and a reader never sees a
// torn file. Decoding validates everything before trusting anything:
// foreign files, truncation, bit corruption, version skew, and payload-kind
// confusion are all rejected loudly (typed errors; fuzzed by cmd/misfuzz)
// instead of resuming silently wrong.
//
// What each layer captures:
//
//	process (kind "process")  one execution: state vector, per-vertex RNG
//	                          streams, round/bit accounting, the engine's
//	                          first-cover stamps (so the local-times
//	                          instrument survives a resume), the 3-color
//	                          switch levels and bit accounting, the daemon
//	                          scheduler stream with step/move accounting,
//	                          and a stateful daemon's schedule history
//	                          (round-robin cursor, k-fair starvation
//	                          counters). Checkpoint/Restore* and the misrun
//	                          -checkpoint/-checkpoint-every/-resume flags.
//	sweep (kind "sweep")      a whole missweep grid in one file: finished
//	                          experiments' rendered tables plus the
//	                          in-order outcome journal of every in-flight
//	                          measurement cell, saved periodically under a
//	                          scheduler quiesce (batch.Pool.Quiesce drains
//	                          in-flight chunks so the cut is consistent).
//	                          missweep -checkpoint/-checkpoint-every/-resume.
//
// Resume guarantees: a restored process draws exactly the coins the
// uninterrupted run would have drawn (same rounds, same bits, same daemon
// selections), and a sweep killed mid-grid and resumed replays journaled
// outcomes through the scheduler's reorder buffer — completed jobs never
// re-run — producing byte-identical experiment tables at any worker count.
// Cells whose outcomes carry workload-specific in-memory payloads re-run
// on resume (purity makes that identical); completed experiments never
// re-run at all. The graph is not embedded in process snapshots: restore
// takes the graph (reconstructible from its own seed or interchange file)
// and verifies its order.
//
// Because every vertex draws coins from its own stream split off the master
// seed, an execution is a pure function of (graph, seed, initializer) — and
// the engine, its kernel path, its batch-scheduled runs, the
// goroutine-per-node runtimes in internal/beeping and internal/stoneage,
// and the asynchronous medium in internal/async (whose clock streams are
// disjoint from the coin streams) all draw exactly the same coins.
//
// The three processes:
//
//   - TwoState (Definition 4): binary states; an active vertex — black with
//     a black neighbor, or white with no black neighbor — resets to a
//     uniformly random color each round. One random bit per active vertex
//     per round; runs in the beeping model with sender collision detection.
//
//   - ThreeState (Definition 5): adds a second black state so no collision
//     detection is needed; runs in the synchronous stone age model.
//
//   - ThreeColor (Definition 28): adds a gray color gated by a randomized
//     logarithmic switch (Definition 26, 18 states total); proven to
//     stabilize in poly(log n) rounds on G(n,p) for every density p
//     (Theorem 3).
//
// Quickstart:
//
//	g := ssmis.Gnp(1000, 0.01, 7)           // an Erdős–Rényi graph
//	p := ssmis.NewTwoState(g, ssmis.WithSeed(42))
//	res := ssmis.Run(p, 0)                   // 0 = default round cap
//	if res.Stabilized {
//	    blackSet := ssmis.BlackSet(p)        // a verified MIS of g
//	    _ = blackSet
//	}
//
// All randomness derives from explicit seeds; a run is a pure function of
// (graph, seed, initializer). See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
package ssmis
