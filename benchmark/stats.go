package main

import (
	"math"
	"sort"
)

// Every statistic the benchmark reports is one of these three. Percentiles
// are nearest-rank, so a reported value is always a value that was measured.

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which must not be empty.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// gmean is the geometric mean; the ratio-preserving average for timings of
// items of very different size (a 64-method module beside a 1-method one).
func gmean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
