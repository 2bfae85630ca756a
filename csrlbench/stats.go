package main

import (
	"math"
	"sort"
)

// percentile is the q-th percentile (0..100) of xs by linear interpolation
// between closest ranks; xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if math.IsInf(s[lo+1], 1) { // failed requests sort last as +Inf
		if pos > float64(lo) {
			return s[lo+1]
		}
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the highest of the usual reporting percentiles that
// leaves at least ten samples beyond it when n samples are taken. Callers
// pass the workload's guaranteed minimum sample count, so the percentile
// reported is fixed per workload and does not jump with run length.
func tailPercentile(n int) float64 {
	for _, q := range []float64{99, 95, 90, 80, 75, 50} {
		if float64(n)*(1-q/100) >= 10-1e-9 {
			return q
		}
	}
	return 50
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
