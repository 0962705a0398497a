package main

import (
	"encoding/json"
	"fmt"
	"io"
	"syscall"
	"time"
)

// metric is one named, unit-tagged number of a run's result.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is what one benchmark invocation reports: the correctness verdict,
// the run counts behind failed_frac, the metrics of the selected mode, and
// human-readable notes printed above the result line.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	Notes     []string
}

func (r *result) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, value, unit})
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// metricValue returns the named metric's value and whether it was reported.
func (r *result) metricValue(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// print writes the notes and one "name value unit" line per metric, then the
// machine-readable result as the last line.
func (r *result) print(w io.Writer) error {
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = val{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// cpuTime is the process's user+system CPU time so far, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
