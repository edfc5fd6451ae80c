package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles the benchmark ever reports,
// lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9}

// minTail is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is one or two outliers, not a percentile.
const minTail = 10

// rankEpsilon absorbs the binary rounding of percentiles such as 99.9, so
// that 10000 samples have exactly ten beyond it.
const rankEpsilon = 1e-6

// percentile returns the q-th percentile (0 < q < 100) of sorted samples by
// the nearest-rank method, or 0 for an empty sample.
func percentile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n)/100 - rankEpsilon))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return float64(sorted[rank-1])
}

// supported reports whether n samples leave at least minTail samples beyond
// the q-th percentile.
func supported(n int, q float64) bool {
	return float64(n)*(100-q)/100 >= minTail-rankEpsilon
}

// highestPercentile returns the highest percentile of the ladder that the
// sample supports, its value, and the sample count. With too few samples for
// even the median it still returns the median, flagged by ok=false.
func highestPercentile(sorted []int64) (q, value float64, n int, ok bool) {
	n = len(sorted)
	q = percentileLadder[0]
	for _, p := range percentileLadder {
		if supported(n, p) {
			q, ok = p, true
		}
	}
	return q, percentile(sorted, q), n, ok
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default exclusive method), which is what the acceptance driver uses for
// spreads. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64, ok bool) {
	n := len(v)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(v)
	if !ok || q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(q2), true
}
