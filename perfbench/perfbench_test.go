package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"ssmis/internal/experiment"
	"ssmis/internal/scenario"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n, pct, beyond int
	}{
		{1, 50, 0},
		{11, 50, 5}, // too few samples for any tail: the median is reported
		{19, 50, 9},
		{20, 50, 10},
		{21, 52, 10},
		{30, 66, 10},
		{100, 90, 10},
		{1000, 99, 10},
		{1234, 99, 12},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		s := summarize(xs)
		if s.TailPct != c.pct || s.Beyond != c.beyond || s.N != c.n {
			t.Errorf("n=%d: p%d with %d beyond, want p%d with %d beyond", c.n, s.TailPct, s.Beyond, c.pct, c.beyond)
		}
		// The tail value is the sample with exactly Beyond samples above it.
		above := 0
		for _, x := range xs {
			if x > s.Tail {
				above++
			}
		}
		if above != s.Beyond {
			t.Errorf("n=%d: %d samples above the tail value, want %d", c.n, above, s.Beyond)
		}
	}
	if got := percentile([]float64{3, 1, 2, 4}, 50); got != 2 {
		t.Errorf("nearest-rank median of 1..4 = %v, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestFailedFrac(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{{0, 0, 0}, {0, 10, 0}, {1, 4, 0.25}, {3, 3, 1}} {
		if got := failedFrac(c.failed, c.attempted); got != c.want {
			t.Errorf("failedFrac(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestFailedTrials(t *testing.T) {
	for status, want := range map[string]int{
		"ok":             0,
		"10/10":          0,
		"7/10":           3,
		"0/3 (livelock)": 3,
		"2/24 capped":    2,
		"1 NON-MIS":      1,
		"5/24 FAILED":    24, // a scaling row with no success: 5 capped, the rest broken
		"0/10 FAILED":    10, // a fault row with no recovery
	} {
		got, err := failedTrials(status)
		if err != nil || got != want {
			t.Errorf("failedTrials(%q) = %d, %v; want %d", status, got, err, want)
		}
	}
	for _, bad := range []string{"", "fine", "3/2", "a/b", "1/2 maybe"} {
		if _, err := failedTrials(bad); err == nil {
			t.Errorf("failedTrials(%q) accepted", bad)
		}
	}
	tables := []experiment.Table{
		{Title: "scaling", Columns: experiment.ScalingColumns(), Rows: [][]string{
			{"64", "4.5", "", "", "", "", "", "ok"},
			{"128", "6", "", "", "", "", "", "1/30 capped"},
		}},
		{Title: "tail", Columns: []string{"k", "P"}, Rows: [][]string{{"1", "0.5"}}},
		{Title: "fault", Columns: []string{"process", "adversary", "mean", "max", "recovered"}, Rows: [][]string{
			{"2-state", "flip", "3", "4", "9/10"},
		}},
	}
	failed, means, problems := checkTables(tables)
	if failed != 2 || len(problems) != 2 {
		t.Errorf("checkTables: %d failed, problems %q; want 2 and 2", failed, problems)
	}
	if len(means) != 2 || means[0] != 4.5 || means[1] != 6 {
		t.Errorf("checkTables means = %v, want [4.5 6]", means)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] holds a [10,40] (which holds c [15,20]) and b [30,60],
	// which overlaps a by 10; d [90,120] reaches 20 past the root.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "c", Start: 15, End: 20, Parent: 1},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "d", Start: 90, End: 120, Parent: 0},
		{Name: "other", Start: 200, End: 210, Parent: -1},
	}
	self := selfTimes(spans)
	want := []int64{40, 25, 5, 30, 30, 10} // root: 100 minus the 60 its children cover
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	// Overlap and overflow are counted twice, so the layer spans overshoot
	// the root's 100: the 60 its children cover + 10 (a∩b) + 20 (d past the
	// root).
	if got := layerSelfSum(spans, self, 0); got != 90 {
		t.Errorf("layerSelfSum = %d, want 90", got)
	}
	// Spans that tile the root account for all of it.
	tiled := []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "mis.construct", Start: 0, End: 30, Parent: 0},
		{Name: "engine.step_dense", Start: 30, End: 100, Parent: 0},
	}
	if got := layerSelfSum(tiled, selfTimes(tiled), 0); got != 100 {
		t.Errorf("tiled layerSelfSum = %d, want 100", got)
	}
	byName := selfByName(spans, self)
	if byName["root"] != 40 || byName["other"] != 10 {
		t.Errorf("selfByName = %v", byName)
	}
}

// TestSelfErrPct checks the reconciliation the traced mode makes: the layer
// spans' self times against the measured wall time, with the root's own
// (unattributed) time left out.
func TestSelfErrPct(t *testing.T) {
	// A 10 ms run whose layer spans cover 0–3 ms and 4–10 ms: the 1 ms gap
	// between them is untimed glue, 10% of the run.
	gap := []span{
		{Name: "run", Start: 0, End: 10e6, Parent: -1},
		{Name: "mis.construct", Start: 0, End: 3e6, Parent: 0},
		{Name: "engine.step_dense", Start: 4e6, End: 10e6, Parent: 0},
	}
	if got := selfErrPct(layerSelfSum(gap, selfTimes(gap), 0), 10); math.Abs(got-10) > 1e-9 {
		t.Errorf("root with a 1 ms gap: error %v%%, want 10%%", got)
	}
	if got := selfErrPct(layerSelfSum(gap, selfTimes(gap), 0), 10); got <= selfErrLimitPct {
		t.Errorf("root with a 1 ms gap passes the %v%% limit (error %v%%)", selfErrLimitPct, got)
	}
	// Tiled by its layer spans, the run reconciles up to the wall clock's own
	// extra reads.
	gap[2].Start = 3e6
	if got := selfErrPct(layerSelfSum(gap, selfTimes(gap), 0), 10.01); got > 0.2 {
		t.Errorf("tiled run: error %v%%, want ≈0.1%%", got)
	}
	if got := selfErrPct(5, 0); got != 0 {
		t.Errorf("selfErrPct with no wall time = %v, want 0", got)
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	if id := off.begin("x"); id != -1 || off.depth() != 0 {
		t.Fatal("nil tracer recorded a span")
	}
	off.end(-1)
	off.unwind(0)

	tr := newTracer()
	tr.setRun(7)
	root := tr.begin("run")
	a := tr.begin("a")
	time.Sleep(time.Millisecond)
	tr.end(a)
	tr.begin("b")
	tr.begin("c")
	tr.unwind(1) // a panicking run leaves b and c open
	if tr.depth() != 1 {
		t.Fatalf("depth after unwind = %d, want 1", tr.depth())
	}
	tr.end(root)
	if len(tr.spans) != 4 || tr.spans[1].Parent != root || tr.spans[3].Parent != 2 || tr.spans[2].Run != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	self := selfTimes(tr.spans)
	if got, want := layerSelfSum(tr.spans, self, root)+self[root], tr.spans[root].dur(); got != want {
		t.Errorf("self times sum to %d, root lasted %d", got, want)
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 4 {
		t.Errorf("trace file has %d lines, want 4", lines)
	}
}

func TestSweepScenarioCompiles(t *testing.T) {
	sc, err := scenario.Decode(sweepScenario)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Compile(); err != nil {
		t.Fatal(err)
	}
	var scaling, daemon, faults int
	for _, u := range sc.Units {
		switch {
		case u.Scaling != nil:
			scaling++
		case u.DaemonMatrix != nil:
			daemon++
			if u.DaemonMatrix.Sequential {
				t.Error("the daemon matrix must not run the sequential rows (seq-det livelocks by design)")
			}
		case u.Fault != nil:
			faults++
		}
	}
	if scaling == 0 || daemon != 1 || faults != 1 {
		t.Errorf("units: %d scaling, %d daemon-matrix, %d fault; want >0, 1, 1", scaling, daemon, faults)
	}
}

// benchmarkJSON reads the metric and workload names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (workloads, endToEndNames, perLayerNames []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range doc.EndToEnd {
		endToEndNames = append(endToEndNames, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
	}
	return
}

func TestBenchmarkJSONMatches(t *testing.T) {
	workloads, e2e, layers := benchmarkJSON(t)
	var names []string
	for _, m := range perLayer {
		names = append(names, m.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", workloads, workloadNames()},
		{"end_to_end", e2e, endToEnd},
		{"per_layer", layers, names},
	} {
		if strings.Join(c.got, ",") != strings.Join(c.want, ",") {
			t.Errorf("BENCHMARK.json %s = %v, the benchmark reports %v", c.what, c.got, c.want)
		}
	}
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, window: 150 * time.Millisecond, trace: trace,
		tiny: true, nproc: 2, traceDir: t.TempDir(),
	}
}

// TestTinyWorkloads runs every workload at test size in both modes and
// checks the full metric set is reported, in order, with numbers.
func TestTinyWorkloads(t *testing.T) {
	var layerNames []string
	for _, m := range perLayer {
		layerNames = append(layerNames, m.name)
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(tinyConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			want := endToEnd
			if trace {
				want = layerNames
			}
			var got []string
			for _, m := range r.Metrics {
				got = append(got, m.Name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s = %v %q", w, trace, m.Name, m.Value, m.Unit)
				}
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v: metrics %v, want %v", w, trace, got, want)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes %q",
					w, trace, r.Correct, r.Attempted, r.Failed, r.Notes)
			}
			var sb strings.Builder
			if err := r.print(&sb); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
			var last map[string]any
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("%s: last line is not the JSON result: %v", w, err)
			}
		}
	}
}

// TestRoundsMeanFixedSeeds checks that rounds_mean does not depend on how
// many runs fit in the window: a window too short for one run and a longer
// one give the same value.
func TestRoundsMeanFixedSeeds(t *testing.T) {
	var got []float64
	for _, window := range []time.Duration{time.Microsecond, 300 * time.Millisecond} {
		cfg := tinyConfig(t, "gnp1m-2state", false)
		cfg.window = window
		r, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := r.metricValue("rounds_mean")
		got = append(got, v)
	}
	if got[0] != got[1] || got[0] == 0 {
		t.Errorf("rounds_mean %v: want one non-zero value for both windows", got)
	}
}

// TestCorruptedOutputsFail damages one output per run and checks every
// workload counts the damage as failed runs.
func TestCorruptedOutputsFail(t *testing.T) {
	for _, w := range workloadNames() {
		cfg := tinyConfig(t, w, false)
		cfg.corrupt = true
		r, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s: corrupted outputs passed: correct=%v failed=%d of %d", w, r.Correct, r.Failed, r.Attempted)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := runWorkload(config{workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}
