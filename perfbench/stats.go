package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile: the tail is the highest percentile that still has this many
// samples beyond it, so it never rests on a handful of outliers.
const tailBeyond = 10

// tailPercentile returns the highest whole percentile of n samples that has
// at least tailBeyond samples above it under the nearest-rank rule, floored
// at the median. Below 2·tailBeyond samples no percentile at or above the
// median qualifies and the median is reported; the output states the
// percentile and the sample count either way.
func tailPercentile(n int) int {
	if n <= tailBeyond {
		return 50
	}
	p := 100 * (n - tailBeyond) / n
	if p < 50 {
		p = 50
	}
	return p
}

// rank is the 1-based nearest-rank position of percentile p among n sorted
// samples.
func rank(p, n int) int {
	r := int(math.Ceil(float64(p) * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (xs is not
// modified); 0 for no samples, which only happens when every run failed and
// the result already reads correct=false.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// tail is a timing distribution summarized the way every run reports it: the
// median, the tail percentile with the count of samples beyond it, and the
// sample count.
type tail struct {
	P50     float64
	Tail    float64
	TailPct int
	Beyond  int
	N       int
}

func summarize(xs []float64) tail {
	n := len(xs)
	p := tailPercentile(n)
	t := tail{P50: percentile(xs, 50), Tail: percentile(xs, p), TailPct: p, N: n}
	if n > 0 {
		t.Beyond = n - rank(p, n)
	}
	return t
}

// failedFrac is failed runs over attempted runs; 0 when nothing was
// attempted (the result line then reports correct=false on its own).
func failedFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
