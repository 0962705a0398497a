package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans nest: a span opened while
// another is open becomes its child. Times are nanoseconds since the
// tracer's epoch; Run groups the spans of one process run or one sweep.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span; -1 for a root
	Run    int    `json:"run"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory. A nil *tracer is the untraced mode: every
// method is a no-op, so the measured code paths are identical in both modes
// apart from these calls.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	run   int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16), run: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setRun tags the spans begun from now on with run id.
func (t *tracer) setRun(id int) {
	if t != nil {
		t.run = id
	}
}

// begin opens a span under the innermost open span and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Run: t.run})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if top := t.open[len(t.open)-1]; top != id {
		panic(fmt.Sprintf("perfbench: span %q closed while %q is open", t.spans[id].Name, t.spans[top].Name))
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// depth is the number of open spans.
func (t *tracer) depth() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// unwind closes the open spans above depth, innermost first; a run that
// panicked leaves its spans open.
func (t *tracer) unwind(depth int) {
	for t != nil && len(t.open) > depth {
		t.end(t.open[len(t.open)-1])
	}
}

// addClosed records an already-finished child of the innermost open span,
// for intervals a layer timed itself (the experiment layer's per-cell log).
func (t *tracer) addClosed(name string, start, end int64) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Run: t.run})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. A child reaching outside its
// parent or overlapping a sibling covers that stretch once, and counts in
// full in its own self time. Children must appear after their parent in
// start order, as begin and addClosed append them.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // end of the covered prefix of each span
	for i, s := range spans {
		self[i] = s.dur()
		covered[i] = s.Start
	}
	for _, s := range spans {
		p := s.Parent
		if p < 0 {
			continue
		}
		lo, hi := max(s.Start, covered[p]), min(s.End, spans[p].End)
		if hi > lo {
			self[p] -= hi - lo
			covered[p] = hi
		}
	}
	return self
}

// layerSelfSum sums the self times of the descendants of spans[root], which
// follow the root in the slice: the time the layer spans account for. The
// root's own self time is left out, because it is whatever the layer spans
// leave uncovered — the untimed glue between layer calls.
func layerSelfSum(spans []span, self []int64, root int) int64 {
	in := map[int]bool{root: true}
	var sum int64
	for i := root + 1; i < len(spans); i++ {
		if in[spans[i].Parent] {
			in[i] = true
			sum += self[i]
		}
	}
	return sum
}

// selfErrPct is how far the layers' self times (nanoseconds) miss a run's
// independently measured wall time (milliseconds), as a percentage of the
// wall time. Untimed stretches between layer calls make the sum fall short;
// spans that overlap or outlast their parent make it overshoot.
func selfErrPct(layerNs int64, wallMS float64) float64 {
	if wallMS <= 0 {
		return 0
	}
	return 100 * math.Abs(float64(layerNs)/1e6-wallMS) / wallMS
}

// selfByName totals self time per span name.
func selfByName(spans []span, self []int64) map[string]int64 {
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// selfSummary renders, for each span name, the mean self time in
// milliseconds over the span trees of one run each: the spans from each root
// on that carry the root's run id.
func selfSummary(spans []span, self []int64, roots []int) string {
	tot := map[string]int64{}
	for _, root := range roots {
		run := spans[root].Run
		for i := root; i < len(spans) && spans[i].Run == run; i++ {
			tot[spans[i].Name] += self[i]
		}
	}
	names := make([]string, 0, len(tot))
	for k := range tot {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, k := range names {
		fmt.Fprintf(&sb, " %s=%.3f", k, float64(tot[k])/1e6/float64(max(1, len(roots))))
	}
	return sb.String()
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace encode: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace flush: %w", err)
	}
	return f.Close()
}
