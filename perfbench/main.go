// Command perfbench is the repository's benchmark: time to a verified MIS
// on four workloads, end to end and layer by layer. See README.md.
//
//	bash perfbench/run.sh --workload gnp1m-2state --seed 1 --seconds 12 --trace 0
//
// It prints one "name value unit" line per metric and, as its last line, a
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer metrics of a
// traced run. run.sh builds the binary from the checkout and runs it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// endToEnd names the metrics --trace 0 reports, in output order.
var endToEnd = []string{"setup_s", "runs_per_s", "run_ms_p50", "run_ms_tail", "rounds_mean", "peak_rss_mb"}

// perLayer lists the metrics --trace 1 reports, with their units. Every
// workload reports all of them; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"graph.gen_s", "s"},
	{"graph.order_s", "s"},
	{"graph.csr_mb", "MB"},
	{"graph.max_degree", "count"},
	{"mis.construct_ms", "ms"},
	{"mis.construct_alloc_kb", "KB"},
	{"engine.step_ms_dense", "ms"},
	{"engine.step_ms_sparse", "ms"},
	{"engine.active_vertex_rounds", "count"},
	{"engine.random_bits", "count"},
	{"engine.ns_per_active_vertex", "ns"},
	{"engine.step_alloc_kb", "KB"},
	{"engine.cpu_util", "ratio"},
	{"engine.counter_width_bits", "bits"},
	{"engine.counter_hub_len", "count"},
	{"phaseclock.ms_per_round", "ms"},
	{"phaseclock.share", "ratio"},
	{"verify.ms", "ms"},
	{"verify.oracle_s", "s"},
	{"scenario.compile_ms", "ms"},
	{"experiment.cells", "count"},
	{"experiment.jobs", "count"},
	{"experiment.cell_ms_p50", "ms"},
	{"experiment.cell_ms_max", "ms"},
	{"batch.cpu_util", "ratio"},
	{"batch.steals", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.self_err_pct", "%"},
}

// completePerLayer adds a zero for every per-layer metric the workload did
// not report and puts the metrics in perLayer order.
func completePerLayer(r *result) {
	out := make([]metric, 0, len(perLayer))
	for _, m := range perLayer {
		v, _ := r.metricValue(m.name)
		out = append(out, metric{m.name, v, m.unit})
	}
	r.Metrics = out
}

// selfErrLimitPct bounds how far the summed self times of a traced run's
// layer spans may miss its independently measured wall time before the run
// counts as failed.
const selfErrLimitPct = 3.0

// probeRunID tags the spans recorded after the traced window.
const probeRunID = -1000

// Seed streams: every input of a run derives from the workload seed through
// its own stream, so the same seed gives the same graph, permutation,
// process seeds and sweep seed.
const (
	streamGraph uint64 = iota + 1
	streamPerm
	streamRun
	streamWarmup
	streamProbe
	streamClock
	streamSweep
)

// mix derives the i-th seed of a stream from the workload seed (splitmix64
// finalizer over a combined word).
func mix(seed, stream, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i*0x94d049bb133111eb + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // the timed window
	trace    bool
	// tiny shrinks every input to test size; only the tests set it.
	tiny bool
	// corrupt damages one output of every run before it is checked, to show
	// that the checks count it as a failure.
	corrupt  bool
	nproc    int
	traceDir string
}

func (c config) tracePath(name string) string {
	return filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, c.seed))
}

// writeTrace stores the spans and notes where they went.
func writeTrace(r *result, tr *tracer, path string) {
	if err := tr.write(path); err != nil {
		r.notef("spans not written: %v", err)
		return
	}
	r.notef("spans written to %s", path)
}

// workloadNames lists the workloads in BENCHMARK.json order.
func workloadNames() []string {
	var out []string
	for _, w := range graphWorkloads {
		out = append(out, w.name)
	}
	return append(out, sweepName)
}

// runWorkload runs the named workload; an unknown name is an error.
func runWorkload(cfg config) (r *result, err error) {
	for _, w := range graphWorkloads {
		if w.name == cfg.workload {
			return runGraphWorkload(w, cfg), nil
		}
	}
	if cfg.workload == sweepName {
		return runSweep(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", cfg.workload, workloadNames())
}

func main() {
	var (
		cfg     config
		seed    uint64
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 12, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.BoolVar(&cfg.corrupt, "corrupt", false, "damage one output per run before checking it (the checks must count it)")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "where --trace 1 writes its spans (default $CARGO_TARGET_DIR/perfbench-trace, else .bench_build/perfbench-trace)")
	flag.Parse()
	if trace != 0 && trace != 1 || seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	cfg.seed, cfg.trace = seed, trace == 1
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.nproc = runtime.NumCPU()
	if cfg.traceDir == "" {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		cfg.traceDir = filepath.Join(dir, "perfbench-trace")
	}
	r, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.Notes = append([]string{fmt.Sprintf("environment: nproc=%d GOMAXPROCS=%d %s %s/%s",
		cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)}, r.Notes...)
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
