// Package metrics provides the measurement primitives used by the FlexLog
// benchmark harness: thread-safe latency histograms with percentile queries
// and throughput counters. The histogram uses logarithmic buckets with
// linear sub-buckets (HDR-style), giving <4% relative error across the
// nanosecond-to-second range at a fixed, small memory footprint.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// subBucketBits controls resolution: each power-of-two range is split
	// into 2^subBucketBits linear sub-buckets.
	subBucketBits = 5
	subBuckets    = 1 << subBucketBits
	// maxExp covers values up to 2^40 ns (~18 minutes).
	maxExp     = 40
	numBuckets = (maxExp + 1) * subBuckets
)

// Histogram is a thread-safe latency histogram. The zero value is unusable;
// use NewHistogram.
type Histogram struct {
	counts []atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds, for Mean
	max    atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, numBuckets)}
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // floor(log2(v)), >= subBucketBits
	shift := exp - subBucketBits
	sub := (v >> uint(shift)) & (subBuckets - 1)
	idx := (exp-subBucketBits+1)*subBuckets + int(sub)
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketValue returns a representative (midpoint) value for a bucket index.
func bucketValue(idx int) uint64 {
	if idx < subBuckets {
		return uint64(idx)
	}
	exp := idx/subBuckets + subBucketBits - 1
	sub := uint64(idx % subBuckets)
	base := (uint64(1) << uint(exp)) | (sub << uint(exp-subBucketBits))
	half := uint64(1) << uint(exp-subBucketBits-1)
	return base + half
}

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.RecordValue(uint64(d))
}

// RecordValue adds one dimensionless observation (e.g. a batch size in
// records or bytes). Value histograms share the duration histogram's
// buckets; read them back with MeanValue rather than the time.Duration
// accessors.
func (h *Histogram) RecordValue(v uint64) {
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Mean returns the arithmetic mean of observations, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Sum returns the sum of all observations as a duration (exact, unlike
// Mean()*Count()); used by the registry's summary exposition.
func (h *Histogram) Sum() time.Duration {
	return time.Duration(h.sum.Load())
}

// MeanValue returns the arithmetic mean of dimensionless observations.
func (h *Histogram) MeanValue() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Percentile returns the latency at quantile q in [0,100].
func (h *Histogram) Percentile(q float64) time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 100 {
		q = 100
	}
	rank := uint64(math.Ceil(q / 100 * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return time.Duration(bucketValue(i))
		}
	}
	return time.Duration(h.max.Load())
}

// Merge adds all observations of other into h. max is merged exactly;
// bucket counts are summed.
func (h *Histogram) Merge(other *Histogram) {
	for i := range other.counts {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.total.Add(other.total.Load())
	h.sum.Add(other.sum.Load())
	if other.total.Load() > 0 {
		oM := other.max.Load()
		for {
			cur := h.max.Load()
			if oM <= cur || h.max.CompareAndSwap(cur, oM) {
				break
			}
		}
	}
}

// Counter is a thread-safe monotonically increasing event counter.
type Counter struct {
	n atomic.Uint64
}

// NewCounter returns a zero counter.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Count returns the current value.
func (c *Counter) Count() uint64 { return c.n.Load() }

// Series is an ordered set of (label, value) points, used by the bench
// harness to print one figure curve.
type Series struct {
	Name   string
	Unit   string
	mu     sync.Mutex
	labels []string
	values []float64
}

// NewSeries creates a named series whose values carry the given unit.
func NewSeries(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// Add appends one point.
func (s *Series) Add(label string, value float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.labels = append(s.labels, label)
	s.values = append(s.values, value)
}

// Points returns copies of the labels and values.
func (s *Series) Points() ([]string, []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.labels...), append([]float64(nil), s.values...)
}

// Value returns the value recorded for label, and whether it exists.
func (s *Series) Value(label string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, l := range s.labels {
		if l == label {
			return s.values[i], true
		}
	}
	return 0, false
}

// Table renders one or more series sharing the same x labels as an aligned
// text table, in the style of the paper's figures.
func Table(xHeader string, series ...*Series) string {
	if len(series) == 0 {
		return ""
	}
	labels, _ := series[0].Points()
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", xHeader)
	for _, s := range series {
		name := s.Name
		if s.Unit != "" {
			name += " (" + s.Unit + ")"
		}
		fmt.Fprintf(&b, "%24s", name)
	}
	b.WriteByte('\n')
	for i, l := range labels {
		fmt.Fprintf(&b, "%-16s", l)
		for _, s := range series {
			_, vals := s.Points()
			if i < len(vals) {
				fmt.Fprintf(&b, "%24s", formatValue(vals[i]))
			} else {
				fmt.Fprintf(&b, "%24s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatValue(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.4gk", v/1e3)
	case av == math.Trunc(av):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
