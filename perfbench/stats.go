package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the "inclusive" method of
// Python's statistics.quantiles). xs need not be sorted; it is not
// modified. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is the least number of samples that must lie beyond a
// reported percentile: a p99 needs at least 1000 samples.
const minBeyond = 10

// tailSupported reports whether n samples support the q-quantile,
// i.e. whether at least minBeyond samples lie beyond it.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}
