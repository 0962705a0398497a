package main

import (
	_ "embed"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ssmis/internal/batch"
	"ssmis/internal/engine"
	"ssmis/internal/experiment"
	"ssmis/internal/scenario"
)

const sweepName = "sweep-mixed"

// sweepSetups is how many times the untraced mode sets up; it reports the
// median. One set-up costs about one sweep, so several are cheap.
const sweepSetups = 7

// sweepScenario is the sweep-mixed scenario file, compiled into the binary
// so the benchmark reads nothing at run time.
//
//go:embed sweep-mixed.json
var sweepScenario []byte

// sweepBench runs the sweep-mixed workload: the scenario decoded, compiled
// and run again and again on one benchmark-owned pool at one seed. A "run"
// of this workload is one whole sweep.
type sweepBench struct {
	cfg   config
	pool  *batch.Pool
	scale float64
	seed  uint64 // experiment.Config.Seed, derived from the workload seed
	// ref is the rendered tables of the set-up sweep; every later sweep at
	// the same seed must render byte-identical tables.
	ref               string
	attempted, failed int
	errs              []string
}

// sweepStats describes one sweep.
type sweepStats struct {
	ok        bool
	ms        float64 // decode to rendered tables, milliseconds
	jobs      int
	cells     []experiment.Cell
	means     []float64 // the "mean" rounds column of every scaling row
	compileMS float64
	checkDur  time.Duration
	cpuUtil   float64 // process CPU ÷ (workers × Experiment.Run wall)
	steals    uint64
}

func (b *sweepBench) fail(format string, args ...any) {
	if len(b.errs) < 8 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// sweep runs the scenario once through Decode, Compile and Run, then checks
// the tables: no failed trial, and the same bytes as the set-up sweep.
func (b *sweepBench) sweep(tr *tracer) (st sweepStats) {
	depth := tr.depth()
	defer func() {
		if r := recover(); r != nil {
			b.attempted++
			b.failed++
			b.fail("sweep panicked: %v", r)
			tr.unwind(depth)
			st.ok = false
		}
	}()
	start := time.Now()
	root := tr.begin("sweep")
	s := tr.begin("scenario.decode")
	sc, err := scenario.Decode(sweepScenario)
	tr.end(s)
	if err != nil {
		panic(fmt.Sprintf("decode: %v", err))
	}
	s = tr.begin("scenario.compile")
	c0 := time.Now()
	exp, err := sc.Compile()
	st.compileMS = msOf(time.Since(c0))
	tr.end(s)
	if err != nil {
		panic(fmt.Sprintf("compile: %v", err))
	}
	var log experiment.CellLog
	s = tr.begin("experiment.run")
	steals0, cpu0, t0 := b.pool.Steals(), cpuTime(), time.Now()
	tables := exp.Run(experiment.Config{Scale: b.scale, Seed: b.seed, Pool: b.pool, Cells: &log})
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	st.steals = b.pool.Steals() - steals0
	st.cpuUtil = cpu.Seconds() / (float64(b.pool.Workers()) * wall.Seconds())
	st.cells = log.Cells()
	if tr != nil {
		// The experiment layer times each pool submission itself; its cells
		// run one after another, so they are laid end to end from the start
		// of the run. If they did not fit, the self-time check would fail.
		at := tr.spans[s].Start
		for _, c := range st.cells {
			tr.addClosed("batch.submit_wait", at, at+int64(c.Elapsed))
			at += int64(c.Elapsed)
		}
	}
	tr.end(s)
	tr.end(root)
	st.ms = msOf(time.Since(start))

	s = tr.begin("verify.tables")
	c0 = time.Now()
	for _, c := range st.cells {
		st.jobs += c.Jobs
	}
	b.attempted += st.jobs
	if b.cfg.corrupt && len(tables) > 0 && len(tables[0].Rows) > 0 {
		row := tables[0].Rows[0]
		row[len(row)-1] = "1 NON-MIS"
	}
	failed, means, problems := checkTables(tables)
	st.means = means
	var sb strings.Builder
	for i := range tables {
		sb.WriteString(tables[i].Render())
	}
	switch rendered := sb.String(); {
	case b.ref == "":
		b.ref = rendered
	case rendered != b.ref:
		problems = append(problems, "tables differ from the first sweep at the same seed")
		failed = st.jobs
	}
	b.failed += failed
	for _, p := range problems {
		b.fail("%s", p)
	}
	st.ok = failed == 0
	st.checkDur = time.Since(c0)
	tr.end(s)
	return st
}

// checkTables counts the failed trials the tables report and collects the
// mean rounds of every scaling row. Status columns read "ok" (scaling),
// "a/b" successes out of trials (daemon and fault matrices, optionally
// "(livelock)"), "a/b capped" (a capped runs), "k NON-MIS" (k broken sets)
// or "a/b FAILED" (every trial failed).
func checkTables(tables []experiment.Table) (failed int, means []float64, problems []string) {
	for _, t := range tables {
		if len(t.Columns) == 0 {
			continue
		}
		scaling := len(t.Columns) > 1 && t.Columns[0] == "n" && t.Columns[1] == "mean"
		switch t.Columns[len(t.Columns)-1] {
		case "status", "stabilized", "recovered":
		default:
			continue
		}
		for _, row := range t.Rows {
			status := row[len(row)-1]
			f, err := failedTrials(status)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%q: %v", t.Title, err))
				failed++
				continue
			}
			if f > 0 {
				problems = append(problems, fmt.Sprintf("%q row %v: %s", t.Title, row[:2], status))
			}
			failed += f
			if scaling {
				if m, err := strconv.ParseFloat(row[1], 64); err == nil {
					means = append(means, m)
				}
			}
		}
	}
	return failed, means, problems
}

// failedTrials parses one status cell into its count of failed trials.
func failedTrials(status string) (int, error) {
	fields := strings.Fields(status)
	if len(fields) == 0 {
		return 0, fmt.Errorf("empty status")
	}
	if fields[0] == "ok" && len(fields) == 1 {
		return 0, nil
	}
	if len(fields) == 2 && fields[1] == "NON-MIS" {
		return strconv.Atoi(fields[0])
	}
	a, b, found := strings.Cut(fields[0], "/")
	if !found {
		return 0, fmt.Errorf("unreadable status %q", status)
	}
	x, err1 := strconv.Atoi(a)
	y, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil || x < 0 || x > y {
		return 0, fmt.Errorf("unreadable status %q", status)
	}
	switch {
	case len(fields) == 1, len(fields) == 2 && fields[1] == "(livelock)":
		return y - x, nil
	case len(fields) == 2 && fields[1] == "capped":
		return x, nil
	case len(fields) == 2 && fields[1] == "FAILED":
		return y, nil
	}
	return 0, fmt.Errorf("unreadable status %q", status)
}

func runSweep(cfg config) (*result, error) {
	b := &sweepBench{cfg: cfg, scale: 1, seed: mix(cfg.seed, streamSweep, 0)}
	if cfg.tiny {
		b.scale = 0.05
	}
	if _, err := scenario.Decode(sweepScenario); err != nil {
		return nil, fmt.Errorf("sweep scenario: %w", err)
	}
	if cfg.trace {
		return b.traced(), nil
	}
	return b.untraced(), nil
}

// setup creates the pool and makes one sweep; the first set-up's sweep
// renders the reference tables. It returns the wall time of both except the
// table checks.
func (b *sweepBench) setup(tr *tracer) time.Duration {
	if b.pool != nil {
		b.pool.Close()
	}
	b.pool = nil
	runtime.GC()
	start := time.Now()
	s := tr.begin("setup")
	b.pool = batch.NewPool(b.cfg.nproc)
	st := b.sweep(tr)
	tr.end(s)
	return time.Since(start) - st.checkDur
}

func (b *sweepBench) untraced() *result {
	var setups []float64
	for k := 0; k < sweepSetups; k++ {
		setups = append(setups, b.setup(nil).Seconds())
	}
	defer b.pool.Close()
	runtime.GC()
	var ms, means []float64
	jobs := 0
	busy := 0.0 // milliseconds of the window used; checks run with the clock stopped
	for i := 0; i == 0 || busy < msOf(b.cfg.window); i++ {
		st := b.sweep(nil)
		busy += st.ms
		if st.ok {
			ms = append(ms, st.ms)
			jobs += st.jobs
			if means == nil {
				// Every sweep renders the same tables, so one sweep's rows
				// give rounds_mean exactly.
				means = st.means
			}
		}
	}
	r := &result{}
	t := summarize(ms)
	r.add("setup_s", percentile(setups, 50), "s")
	r.add("runs_per_s", 1000*float64(jobs)/busy, "1/s")
	r.add("run_ms_p50", t.P50, "ms")
	r.add("run_ms_tail", t.Tail, "ms")
	r.add("rounds_mean", mean(means), "rounds")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	b.finish(r)
	r.notef("workload %s: %d sweeps of %d jobs each on a %d-worker pool; a run is one whole sweep",
		sweepName, t.N, jobs/max(1, t.N), b.cfg.nproc)
	r.notef("run_ms_tail is p%d: %d of %d samples lie beyond it", t.TailPct, t.Beyond, t.N)
	r.notef("set-up times (s): %v", setups)
	return r
}

func (b *sweepBench) finish(r *result) {
	r.Attempted, r.Failed = b.attempted, b.failed
	r.Correct = b.failed == 0 && b.attempted > 0
	r.notef("failed_frac %.6g (%d of %d trials failed)", failedFrac(b.failed, b.attempted), b.failed, b.attempted)
	for _, e := range b.errs {
		r.notef("FAILED: %s", e)
	}
}

// traced alternates untraced and traced sweeps, then probes the mis and
// engine layers on the scenario's own graphs: one traced run and one
// allocation probe per (scaling unit, size), on one shared run context, as
// a pool worker would run them.
func (b *sweepBench) traced() *result {
	tr := newTracer()
	b.setup(tr)
	defer b.pool.Close()
	runtime.GC()
	type tracedSweep struct {
		root int
		st   sweepStats
	}
	var plain []float64
	var sweeps []tracedSweep
	busy := 0.0
	for i := 0; i < 2 || busy < msOf(b.cfg.window); i++ {
		if i%2 == 0 {
			st := b.sweep(nil)
			busy += st.ms
			if st.ok {
				plain = append(plain, st.ms)
			}
			continue
		}
		tr.setRun(i)
		root := len(tr.spans)
		st := b.sweep(tr)
		busy += st.ms
		if st.ok {
			sweeps = append(sweeps, tracedSweep{root, st})
		}
	}
	tr.setRun(probeRunID)
	self := selfTimes(tr.spans)
	var wall, compile, check, cellMS, util, errPct []float64
	var cells, jobs, steals float64
	var roots []int
	for _, s := range sweeps {
		roots = append(roots, s.root)
		wall = append(wall, s.st.ms)
		compile = append(compile, s.st.compileMS)
		check = append(check, msOf(s.st.checkDur))
		util = append(util, s.st.cpuUtil)
		for _, c := range s.st.cells {
			cellMS = append(cellMS, msOf(c.Elapsed))
		}
		cells += float64(len(s.st.cells))
		jobs += float64(s.st.jobs)
		steals += float64(s.st.steals)
		errPct = append(errPct, selfErrPct(layerSelfSum(tr.spans, self, s.root), s.st.ms))
	}
	ns := math.Max(1, float64(len(sweeps)))

	r := &result{}
	b.probeLayers(r, tr)
	r.add("verify.ms", percentile(check, 50), "ms")
	r.add("scenario.compile_ms", percentile(compile, 50), "ms")
	r.add("experiment.cells", cells/ns, "count")
	r.add("experiment.jobs", jobs/ns, "count")
	r.add("experiment.cell_ms_p50", percentile(cellMS, 50), "ms")
	r.add("experiment.cell_ms_max", maxOf(cellMS), "ms")
	r.add("batch.cpu_util", percentile(util, 50), "ratio")
	r.add("batch.steals", steals/ns, "count")
	r.add("trace.overhead_ms", percentile(wall, 50)-percentile(plain, 50), "ms")
	r.add("trace.self_err_pct", maxOf(errPct), "%")
	if e := maxOf(errPct); e > selfErrLimitPct {
		b.failed++
		b.fail("the layers' self times miss the sweep wall time by %.2f%% (limit %v%%)", e, selfErrLimitPct)
	}
	b.finish(r)
	completePerLayer(r)
	r.notef("workload %s (traced): %d traced and %d untraced sweeps, %d spans", sweepName, len(sweeps), len(plain), len(tr.spans))
	r.notef("self time per traced sweep by span (ms):%s", selfSummary(tr.spans, self, roots))
	writeTrace(r, tr, b.cfg.tracePath(sweepName))
	return r
}

// probeLayers measures the graph, mis and engine layers on the graphs the
// scenario's scaling units name, from outside the pool: each (unit, size)
// graph is built once (seed 1, as the sweep's own size probe does), then
// run once traced and once under the allocation probe.
func (b *sweepBench) probeLayers(r *result, tr *tracer) {
	// Probe run ids start far above the traced sweeps' ids.
	const sweepProbeRunBase = 1 << 20
	sc, err := scenario.Decode(sweepScenario)
	if err != nil {
		panic(err) // runSweep decoded the same bytes already
	}
	gb := &graphBench{cfg: b.cfg, workers: 1, ctx: engine.NewRunContext()}
	var agg layerAgg
	var probes probeAgg
	type tracedRun struct {
		root int
		rs   runStats
	}
	var runs []tracedRun
	var genS, csr, maxDeg float64
	id := 0
	for _, u := range sc.Units {
		if u.Scaling == nil {
			continue
		}
		kind, err := experiment.ParseKind(u.Scaling.Process)
		if err != nil {
			panic(err)
		}
		fam, ok := scenario.FamilyByName(u.Scaling.Graph.Family)
		if !ok {
			panic("unknown family " + u.Scaling.Graph.Family)
		}
		bound, _, err := fam.Bind(u.Scaling.Graph.Params)
		if err != nil {
			panic(err)
		}
		sizes := u.Scaling.Sizes
		if b.cfg.tiny {
			sizes = sizes[:min(2, len(sizes))]
		}
		for _, n := range sizes {
			t0 := time.Now()
			s := tr.begin("graph.gen")
			g := bound.Build(n, 1)
			tr.end(s)
			genS += time.Since(t0).Seconds()
			csr = math.Max(csr, csrMB(g))
			maxDeg = math.Max(maxDeg, float64(g.MaxDegree()))
			gb.w.kind, gb.g = kind, g
			id++
			tr.setRun(sweepProbeRunBase + id)
			root := len(tr.spans)
			if rs := gb.run(mix(b.cfg.seed, streamProbe, uint64(id)), tr); rs.ok {
				runs = append(runs, tracedRun{root, rs})
			}
			tr.setRun(probeRunID)
			probes.add(gb.probe(mix(b.cfg.seed, streamProbe, uint64(id))))
		}
	}
	self := selfTimes(tr.spans)
	for _, t := range runs {
		agg.addRun(tr, self, t.root, t.rs)
	}
	b.attempted += gb.attempted
	b.failed += gb.failed
	b.errs = append(b.errs, gb.errs...)
	r.add("graph.gen_s", genS, "s")
	r.add("graph.csr_mb", csr, "MB")
	r.add("graph.max_degree", maxDeg, "count")
	agg.report(r)
	probes.report(r)
}
