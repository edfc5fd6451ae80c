package main

import (
	"math"
	"testing"
)

func seq1(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i + 1)
	}
	return v
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		value float64
		ok    bool
	}{
		{5, 50, 3, false}, // too few even for a median: still reported, flagged
		{19, 50, 10, false},
		{20, 50, 10, true},
		{99, 50, 50, true},
		{100, 90, 90, true},
		{999, 90, 900, true},
		{1000, 99, 990, true},
		{9999, 99, 9900, true},
		{10000, 99.9, 9990, true},
	} {
		q, value, n, ok := highestPercentile(seq1(tc.n))
		if q != tc.q || value != tc.value || n != tc.n || ok != tc.ok {
			t.Errorf("n=%d: got p%v=%v n=%d ok=%v, want p%v=%v n=%d ok=%v", tc.n, q, value, n, ok, tc.q, tc.value, tc.n, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := seq1(200)
	for q, want := range map[float64]float64{50: 100, 99: 198, 99.9: 200, 0.1: 1} {
		if got := percentile(v, q); got != want {
			t.Errorf("p%v = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 20, 40}, [3]float64{10, 20, 40}},
	} {
		q1, q2, q3, ok := quartiles(tc.in)
		if !ok || [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v ok=%v, want %v", tc.in, q1, q2, q3, ok, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{7}); ok {
		t.Error("one value has no quartiles")
	}
	if s, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v ok=%v, want (8.25-2.75)/5.5 = 1", s, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %v", got)
	}
}
