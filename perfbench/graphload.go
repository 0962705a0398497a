package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ssmis"
	"ssmis/internal/engine"
	"ssmis/internal/experiment"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/phaseclock"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// process is what the benchmark drives: the common process surface plus the
// engine's counter-plane report, which all three processes expose.
type process interface {
	mis.Process
	CounterPlane() engine.CounterPlaneInfo
}

// graphWorkload is a single-graph workload: one generated graph, one process
// family, many runs with fresh process seeds on one reused run context (the
// way a batch-pool worker runs them).
type graphWorkload struct {
	name     string
	kind     experiment.Kind
	n, tinyN int
	// parallel runs each process with WithWorkers(nproc); otherwise one
	// worker.
	parallel bool
	// setups is how many times the untraced mode sets up (it reports the
	// median): more where one set-up is cheap and its warm-up run's length
	// varies from seed to seed, two where one set-up alone takes ~14 s.
	setups int
	// roundSeeds fixes the seed set of rounds_mean: the first roundSeeds
	// run seeds, whether or not the window reaches them all, so that the
	// same workload seed always gives the same value.
	roundSeeds int
	build      func(n int, seed uint64, tr *tracer) *graph.Graph
}

var graphWorkloads = []graphWorkload{
	{name: "gnp1m-2state", kind: experiment.KindTwoState, n: 1_000_000, tinyN: 4096, setups: 3, roundSeeds: 20, build: buildGnp},
	{name: "chunglu1m-3state-par", kind: experiment.KindThreeState, n: 1_000_000, tinyN: 4096, parallel: true, setups: 2, roundSeeds: 6, build: buildScrambledChungLu},
	{name: "gnp30k-3color", kind: experiment.KindThreeColor, n: 30_000, tinyN: 1024, setups: 7, roundSeeds: 5, build: buildGnp},
}

// buildGnp draws G(n, p) at expected average degree 10.
func buildGnp(n int, seed uint64, tr *tracer) *graph.Graph {
	s := tr.begin("graph.gen")
	defer tr.end(s)
	return graph.GnpAvgDegree(n, 10, xrand.New(mix(seed, streamGraph, 0)))
}

// buildScrambledChungLu draws Chung–Lu(n, β=2.5, avg 10) and relabels it by
// a random permutation. The generator emits weight-sorted ids with the hubs
// packed at the front; scrambling them is what makes the process's locality
// relabeling do real work.
func buildScrambledChungLu(n int, seed uint64, tr *tracer) *graph.Graph {
	s := tr.begin("graph.gen")
	cl := graph.ChungLu(n, 2.5, 10, xrand.New(mix(seed, streamGraph, 0)))
	tr.end(s)
	rng := xrand.New(mix(seed, streamPerm, 0))
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	s = tr.begin("graph.relabel")
	defer tr.end(s)
	return graph.Relabel(cl, perm)
}

// graphBench runs one single-graph workload in one process.
type graphBench struct {
	w       graphWorkload
	cfg     config
	workers int
	g       *graph.Graph
	ctx     *engine.RunContext
	// attempted and failed count every checked run: warm-ups, window runs,
	// probe runs and the oracle replay.
	attempted, failed int
	errs              []string
}

// runStats describes one run. The traced fields are filled on traced runs
// only.
type runStats struct {
	ok     bool
	ms     float64 // constructor call to Stabilized(), milliseconds
	rounds int
	bits   int64
	// active-vertex rounds: Σ over rounds of the active count before the
	// step (traced runs).
	activeVR int64
	// checkDur is the time the output check took after the run.
	checkDur time.Duration
}

func (b *graphBench) fail(format string, args ...any) {
	b.failed++
	if len(b.errs) < 8 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

func (b *graphBench) newProcess(seed uint64) process {
	opts := []mis.Option{mis.WithRunContext(b.ctx), mis.WithSeed(seed)}
	if b.w.parallel {
		opts = append(opts, mis.WithWorkers(b.workers))
	}
	switch b.w.kind {
	case experiment.KindTwoState:
		return mis.NewTwoState(b.g, opts...)
	case experiment.KindThreeState:
		return mis.NewThreeState(b.g, opts...)
	default:
		return mis.NewThreeColor(b.g, opts...)
	}
}

// recoverRun turns a panic inside a run into a failed run: it closes the
// spans the run left open above depth and replaces the run context, which
// may hold half-written scratch.
func (b *graphBench) recoverRun(seed uint64, tr *tracer, depth int) {
	if r := recover(); r != nil {
		b.fail("seed %d: panic: %v", seed, r)
		b.ctx = engine.NewRunContext()
		tr.unwind(depth)
	}
}

// run executes one run to stabilization and verifies its MIS. The untraced
// loop is the bare Step/Stabilized loop; the traced loop adds one span per
// layer call.
func (b *graphBench) run(seed uint64, tr *tracer) (rs runStats) {
	b.attempted++
	defer b.recoverRun(seed, tr, tr.depth())
	limit := mis.DefaultRoundCap(b.g.N())
	var p process
	start := time.Now()
	if tr == nil {
		p = b.newProcess(seed)
		for !p.Stabilized() && p.Round() < limit {
			p.Step()
		}
	} else {
		root := tr.begin("run")
		c := tr.begin("mis.construct")
		p = b.newProcess(seed)
		tr.end(c)
		dense := p.N() / 100
		for !p.Stabilized() && p.Round() < limit {
			a := p.ActiveCount()
			rs.activeVR += int64(a)
			name := "engine.step_sparse"
			if a > dense {
				name = "engine.step_dense"
			}
			s := tr.begin(name)
			p.Step()
			tr.end(s)
		}
		tr.end(root)
	}
	rs.ms = msOf(time.Since(start))
	rs.rounds, rs.bits = p.Round(), p.RandomBits()
	if !p.Stabilized() {
		b.fail("seed %d: round cap %d hit", seed, limit)
		return rs
	}
	c0 := time.Now()
	err := b.verify(p, tr)
	rs.checkDur = time.Since(c0)
	if err != nil {
		b.fail("seed %d: %v", seed, err)
		return rs
	}
	rs.ok = true
	return rs
}

// verify checks that the run's black set is an MIS with verify.MIS, the
// check ssmis.VerifyMIS wraps (the facade first copies the set into a map,
// which alone costs ~250 ms at n = 10^6; the oracle replay goes through the
// facade once per invocation). With -corrupt vertex 0 is flipped first: a
// black vertex of an MIS turned white leaves itself undominated, a white
// one turned black has a black neighbor, so the check must fail.
func (b *graphBench) verify(p process, tr *tracer) error {
	s := tr.begin("verify.verify_mis")
	defer tr.end(s)
	black := p.Black
	if b.cfg.corrupt {
		black = func(u int) bool { return p.Black(u) != (u == 0) }
	}
	return verify.MIS(b.g, black)
}

// setup generates the graph, creates the run context and makes one warm-up
// run, which also memoizes the process's locality relabeling on the context
// when it chooses one. It returns the wall time of all of it except the
// check of the warm-up run's output.
func (b *graphBench) setup(k int, tr *tracer) time.Duration {
	b.g, b.ctx = nil, nil
	runtime.GC()
	start := time.Now()
	s := tr.begin("setup")
	b.g = b.w.build(b.n(), b.cfg.seed, tr)
	b.ctx = engine.NewRunContext()
	tr.setRun(-1 - k)
	rs := b.run(mix(b.cfg.seed, streamWarmup, uint64(k)), tr)
	tr.end(s)
	return time.Since(start) - rs.checkDur
}

func (b *graphBench) n() int {
	if b.cfg.tiny {
		return b.w.tinyN
	}
	return b.w.n
}

func runGraphWorkload(w graphWorkload, cfg config) *result {
	b := &graphBench{w: w, cfg: cfg, workers: 1}
	if w.parallel {
		b.workers = cfg.nproc
	}
	if cfg.trace {
		return b.traced()
	}
	return b.untraced()
}

// untraced is the end-to-end mode: w.setups set-ups, then a timed window
// of closed-loop runs, then the runs of rounds_mean's seed set the window
// did not reach and the oracle replay, both outside the window. The window
// clock runs only while a run does (constructor call to Stabilized()); each
// run's output check happens with the clock stopped.
func (b *graphBench) untraced() *result {
	var setups []float64
	for k := 0; k < b.w.setups; k++ {
		setups = append(setups, b.setup(k, nil).Seconds())
	}
	runtime.GC()
	var ms, rounds []float64
	ok := 0
	var firstSeed uint64
	firstRounds := -1
	busy := 0.0 // milliseconds of the window used
	i := 0
	for ; i == 0 || busy < msOf(b.cfg.window); i++ {
		seed := mix(b.cfg.seed, streamRun, uint64(i))
		rs := b.run(seed, nil)
		busy += rs.ms
		if i == 0 {
			firstSeed, firstRounds = seed, rs.rounds
		}
		if i < b.w.roundSeeds {
			rounds = append(rounds, float64(rs.rounds))
		}
		if rs.ok {
			ok++
			ms = append(ms, rs.ms)
		}
	}
	window := i
	for ; i < b.w.roundSeeds; i++ {
		rs := b.run(mix(b.cfg.seed, streamRun, uint64(i)), nil)
		rounds = append(rounds, float64(rs.rounds))
	}
	// Peak RSS is read before the oracle replay, whose naive reference
	// allocates on every round.
	rss := peakRSSMB()
	oracleDur := b.oracle(firstSeed, firstRounds)

	r := &result{}
	t := summarize(ms)
	r.add("setup_s", percentile(setups, 50), "s")
	r.add("runs_per_s", 1000*float64(ok)/busy, "1/s")
	r.add("run_ms_p50", t.P50, "ms")
	r.add("run_ms_tail", t.Tail, "ms")
	r.add("rounds_mean", mean(rounds), "rounds")
	r.add("peak_rss_mb", rss, "MB")
	b.finish(r)
	r.notef("workload %s: n=%d m=%d max_degree=%d csr=%.1f MB workers=%d",
		b.w.name, b.g.N(), b.g.M(), b.g.MaxDegree(), csrMB(b.g), b.workers)
	r.notef("run_ms_tail is p%d: %d of %d samples lie beyond it", t.TailPct, t.Beyond, t.N)
	r.notef("rounds_mean is over run seeds 0..%d; the window reached %d of them", b.w.roundSeeds-1, min(window, b.w.roundSeeds))
	r.notef("set-up times (s): %v; oracle replay took %.2f s", setups, oracleDur.Seconds())
	return r
}

// finish fills the verdict fields and the failure notes.
func (b *graphBench) finish(r *result) {
	r.Attempted, r.Failed = b.attempted, b.failed
	r.Correct = b.failed == 0 && b.attempted > 0
	r.notef("failed_frac %.6g (%d of %d checked runs failed)", failedFrac(b.failed, b.attempted), b.failed, b.attempted)
	for _, e := range b.errs {
		r.notef("FAILED: %s", e)
	}
}

// oracle replays the run of seed in lockstep against the naive reference
// transcription of the process's definition, seeded from the process's
// initial states, and compares the stabilization round and the final black
// set; the final set also goes through the public ssmis.VerifyMIS. wantRounds
// is the round count the timed run of the same seed reported. The
// reference's stability predicate (N+(I) = V, monotone once reached) costs
// O(n+m), so when wantRounds is known it is evaluated only at rounds
// wantRounds-1 and wantRounds — enough to pin the first stable round.
func (b *graphBench) oracle(seed uint64, wantRounds int) (d time.Duration) {
	start := time.Now()
	defer func() { d = time.Since(start) }()
	b.attempted++
	defer b.recoverRun(seed, nil, 0)
	p := b.newProcess(seed)
	g, n := b.g, b.g.N()
	var step func()
	var black func(u int) bool
	switch q := p.(type) {
	case *mis.TwoState:
		ref := mis.NewRefTwoState(g, seed, q.BlackMask())
		step, black = ref.Step, ref.Black
	case *mis.ThreeState:
		init := make([]mis.TriState, n)
		for u := range init {
			init[u] = q.State(u)
		}
		ref := mis.NewRefThreeState(g, seed, init)
		step, black = ref.Step, func(u int) bool { return ref.State(u).Black() }
	case *mis.ThreeColor:
		colors, levels := make([]mis.Color, n), make([]uint8, n)
		for u := range colors {
			colors[u], levels[u] = q.ColorOf(u), q.SwitchLevel(u)
		}
		ref := mis.NewRefThreeColor(g, seed, colors, levels)
		step, black = ref.Step, func(u int) bool { return ref.ColorOf(u) == mis.ColorBlack }
	}
	refStable := -1
	checkRef := func() {
		r := p.Round()
		if refStable < 0 && (wantRounds < 0 || r >= wantRounds-1) && verify.Unstable(g, black).Empty() {
			refStable = r
		}
	}
	checkRef()
	limit := mis.DefaultRoundCap(n)
	for !p.Stabilized() && p.Round() < limit {
		p.Step()
		step()
		checkRef()
	}
	diff := 0
	for u := 0; u < n; u++ {
		if p.Black(u) != black(u) {
			diff++
		}
	}
	if b.cfg.corrupt {
		diff++
	}
	switch {
	case !p.Stabilized():
		b.fail("oracle seed %d: process hit the round cap", seed)
	case refStable != p.Round():
		b.fail("oracle seed %d: process stabilized at round %d, the reference by round %d", seed, p.Round(), refStable)
	case wantRounds != p.Round():
		b.fail("oracle seed %d: replay took %d rounds, the timed run %d", seed, p.Round(), wantRounds)
	case diff != 0:
		b.fail("oracle seed %d: final black sets differ in %d vertices", seed, diff)
	default:
		if err := ssmis.VerifyMIS(g, ssmis.BlackSet(p)); err != nil {
			b.fail("oracle seed %d: ssmis.VerifyMIS: %v", seed, err)
		}
	}
	return
}

// traced is the per-layer mode: one traced set-up, a window running each
// seed untraced and then traced (their p50 difference is the tracing
// overhead),
// then the probes that need their own runs — allocation and CPU counters,
// the ordering, the standalone phase clock, the oracle replay.
func (b *graphBench) traced() *result {
	tr := newTracer()
	b.setup(0, tr)
	setupSelf := selfByName(tr.spans, selfTimes(tr.spans))
	runtime.GC()

	type tracedRun struct {
		root int
		rs   runStats
	}
	var plain []float64
	var runs []tracedRun
	firstRounds := -1
	busy := 0.0
	for i := 0; i == 0 || busy < msOf(b.cfg.window); i++ {
		// Each seed runs untraced, then traced: the same execution twice, so
		// the two medians differ by the tracing alone.
		seed := mix(b.cfg.seed, streamRun, uint64(i))
		rs := b.run(seed, nil)
		busy += rs.ms
		if i == 0 {
			firstRounds = rs.rounds
		}
		if rs.ok {
			plain = append(plain, rs.ms)
		}
		tr.setRun(i)
		root := len(tr.spans)
		rs = b.run(seed, tr)
		busy += rs.ms
		if rs.ok {
			runs = append(runs, tracedRun{root, rs})
		}
	}
	tr.setRun(probeRunID)
	var agg layerAgg
	self := selfTimes(tr.spans)
	for _, t := range runs {
		agg.addRun(tr, self, t.root, t.rs)
	}
	var probes probeAgg
	for j := 0; j < 3; j++ {
		probes.add(b.probe(mix(b.cfg.seed, streamProbe, uint64(j))))
	}

	orderS := 0.0
	if ord, ok := b.ctx.CachedOrdering(b.g); ok && ord != nil {
		s := tr.begin("graph.order")
		t0 := time.Now()
		graph.DegreeBucketOrder(b.g)
		orderS = time.Since(t0).Seconds()
		tr.end(s)
	}
	clockMS, clockShare := 0.0, 0.0
	if b.w.kind == experiment.KindThreeColor && agg.runs > 0 {
		clockMS, clockShare = b.clock(int(math.Round(agg.rounds/agg.runs)), mean(agg.stepMS), tr)
	}
	oracleDur := b.oracle(mix(b.cfg.seed, streamRun, 0), firstRounds)

	r := &result{}
	r.add("graph.gen_s", float64(setupSelf["graph.gen"]+setupSelf["graph.relabel"])/1e9, "s")
	r.add("graph.order_s", orderS, "s")
	r.add("graph.csr_mb", csrMB(b.g), "MB")
	r.add("graph.max_degree", float64(b.g.MaxDegree()), "count")
	agg.report(r)
	probes.report(r)
	r.add("phaseclock.ms_per_round", clockMS, "ms")
	r.add("phaseclock.share", clockShare, "ratio")
	r.add("verify.ms", percentile(agg.verifyMS, 50), "ms")
	r.add("verify.oracle_s", oracleDur.Seconds(), "s")
	r.add("trace.overhead_ms", percentile(agg.wallMS, 50)-percentile(plain, 50), "ms")
	r.add("trace.self_err_pct", maxOf(agg.errPct), "%")
	if e := maxOf(agg.errPct); e > selfErrLimitPct {
		b.fail("the layers' self times miss the run wall time by %.2f%% (limit %v%%)", e, selfErrLimitPct)
	}
	b.finish(r)
	completePerLayer(r)
	r.notef("workload %s (traced): %d traced and %d untraced runs, %d spans",
		b.w.name, len(agg.wallMS), len(plain), len(tr.spans))
	r.notef("self time per traced run by span (ms):%s", selfSummary(tr.spans, self, agg.roots))
	writeTrace(r, tr, b.cfg.tracePath(b.w.name))
	return r
}

// layerAgg accumulates the per-layer figures of traced runs from their
// spans.
type layerAgg struct {
	wallMS, constructMS, verifyMS, stepMS, errPct []float64
	denseNs, sparseNs, denseN, sparseN            float64
	activeVR, bits, rounds, runs                  float64
	roots                                         []int
}

// addRun folds in the traced run whose root span is spans[root]; self holds
// the self times of all spans.
func (a *layerAgg) addRun(tr *tracer, self []int64, root int, rs runStats) {
	var c, v, st float64
	run := tr.spans[root].Run
	for i := root; i < len(tr.spans) && tr.spans[i].Run == run; i++ {
		s := tr.spans[i]
		d := float64(s.dur())
		switch s.Name {
		case "mis.construct":
			c += d
		case "verify.verify_mis":
			v += d
		case "engine.step_dense":
			a.denseNs += d
			a.denseN++
			st += d
		case "engine.step_sparse":
			a.sparseNs += d
			a.sparseN++
			st += d
		}
	}
	a.errPct = append(a.errPct, selfErrPct(layerSelfSum(tr.spans, self, root), rs.ms))
	a.wallMS = append(a.wallMS, rs.ms)
	a.constructMS = append(a.constructMS, c/1e6)
	a.verifyMS = append(a.verifyMS, v/1e6)
	a.stepMS = append(a.stepMS, st/1e6)
	a.activeVR += float64(rs.activeVR)
	a.bits += float64(rs.bits)
	a.rounds += float64(rs.rounds)
	a.runs++
	a.roots = append(a.roots, root)
}

func (a *layerAgg) report(r *result) {
	n := math.Max(1, a.runs)
	r.add("mis.construct_ms", percentile(a.constructMS, 50), "ms")
	r.add("engine.step_ms_dense", ratio(a.denseNs/1e6, a.denseN), "ms")
	r.add("engine.step_ms_sparse", ratio(a.sparseNs/1e6, a.sparseN), "ms")
	r.add("engine.active_vertex_rounds", a.activeVR/n, "count")
	r.add("engine.random_bits", a.bits/n, "count")
	r.add("engine.ns_per_active_vertex", ratio(a.denseNs+a.sparseNs, a.activeVR), "ns")
}

// probeAgg accumulates the allocation and CPU probes.
type probeAgg struct {
	constructKB, stepKB, cpuUtil []float64
	plane                        engine.CounterPlaneInfo
}

func (a *probeAgg) add(constructKB, stepKB, cpuUtil float64, plane engine.CounterPlaneInfo, ok bool) {
	if !ok {
		return
	}
	a.constructKB = append(a.constructKB, constructKB)
	a.stepKB = append(a.stepKB, stepKB)
	a.cpuUtil = append(a.cpuUtil, cpuUtil)
	a.plane = plane
}

func (a *probeAgg) report(r *result) {
	r.add("mis.construct_alloc_kb", percentile(a.constructKB, 50), "KB")
	r.add("engine.step_alloc_kb", percentile(a.stepKB, 50), "KB")
	r.add("engine.cpu_util", percentile(a.cpuUtil, 50), "ratio")
	r.add("engine.counter_width_bits", float64(a.plane.WidthBits), "bits")
	r.add("engine.counter_hub_len", float64(a.plane.HubLen), "count")
}

// probe runs one untraced run with MemStats reads around construction and
// around the step loop, and the process CPU time across the loop.
func (b *graphBench) probe(seed uint64) (constructKB, stepKB, cpuUtil float64, info engine.CounterPlaneInfo, ok bool) {
	b.attempted++
	defer b.recoverRun(seed, nil, 0)
	var m0, m1, m2 runtime.MemStats
	limit := mis.DefaultRoundCap(b.g.N())
	runtime.ReadMemStats(&m0)
	p := b.newProcess(seed)
	runtime.ReadMemStats(&m1)
	cpu0, t0 := cpuTime(), time.Now()
	for !p.Stabilized() && p.Round() < limit {
		p.Step()
	}
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&m2)
	if !p.Stabilized() {
		b.fail("probe seed %d: round cap %d hit", seed, limit)
		return
	}
	if err := b.verify(p, nil); err != nil {
		b.fail("probe seed %d: %v", seed, err)
		return
	}
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024, float64(m2.TotalAlloc-m1.TotalAlloc) / 1024,
		cpu.Seconds() / (float64(b.workers) * wall.Seconds()), p.CounterPlane(), true
}

// clock runs the standalone phase clock on the workload's graph for the
// mean round count of the process runs, and returns its milliseconds per
// round and its share of the process's mean step time per run.
func (b *graphBench) clock(rounds int, stepMSPerRun float64, tr *tracer) (msPerRound, share float64) {
	c := phaseclock.NewStandalone(b.g, mix(b.cfg.seed, streamClock, 0))
	s := tr.begin("phaseclock.standalone")
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		c.Step()
	}
	el := msOf(time.Since(t0))
	tr.end(s)
	if rounds == 0 {
		return 0, 0
	}
	return el / float64(rounds), ratio(el, stepMSPerRun)
}

func csrMB(g *graph.Graph) float64 {
	// offsets []int (8 bytes each) plus adj []int32 holding both directions.
	return float64(8*(g.N()+1)+4*2*g.M()) / (1 << 20)
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
