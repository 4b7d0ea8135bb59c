// Package stat holds the benchmark's order statistics: nearest-rank
// percentiles over raw samples, and the median and quartiles used to
// summarise repeated runs.
package stat

import (
	"math"
	"sort"
)

// Sorted returns an ascending copy of vals.
func Sorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// Percentile is the nearest-rank p-quantile (0 < p <= 1) of an ascending
// sample: the smallest value with at least p of the sample at or below it.
// It returns 0 for an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Median is the middle value of vals (mean of the middle two when even), 0
// when empty.
func Median(vals []float64) float64 {
	s := Sorted(vals)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of vals exactly as Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), which is
// what the benchmark contract measures spread with. It needs two values.
func Quartiles(vals []float64) (q1, q3 float64) {
	s := Sorted(vals)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
