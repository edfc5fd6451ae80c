package metrics

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.max.Load() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(100 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.max.Load() != uint64(100*time.Microsecond) {
		t.Fatalf("max = %v", h.max.Load())
	}
	p := h.Percentile(50)
	if relErr(float64(p), float64(100*time.Microsecond)) > 0.05 {
		t.Fatalf("p50 = %v, want ~100µs", p)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-time.Second)
	if h.max.Load() != 0 {
		t.Fatalf("negative value should clamp to 0, max=%v", h.max.Load())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 microseconds uniformly.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	checks := map[float64]time.Duration{
		50: 500 * time.Microsecond,
		90: 900 * time.Microsecond,
		99: 990 * time.Microsecond,
	}
	for q, want := range checks {
		got := h.Percentile(q)
		if relErr(float64(got), float64(want)) > 0.05 {
			t.Errorf("p%.0f = %v, want ~%v", q, got, want)
		}
	}
	if h.Percentile(-5) == 0 && h.Count() > 0 {
		// p0 clamps to smallest rank; just ensure it does not panic and
		// returns a small value.
	}
	if h.Percentile(200) < h.Percentile(50) {
		t.Error("clamped p200 should be >= p50")
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * time.Nanosecond)
	h.Record(30 * time.Nanosecond)
	if h.Mean() != 20*time.Nanosecond {
		t.Fatalf("mean = %v, want 20ns", h.Mean())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(time.Millisecond)
	b.Record(3 * time.Millisecond)
	b.Record(5 * time.Millisecond)
	a.Merge(b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.max.Load() != uint64(5*time.Millisecond) {
		t.Fatalf("merged max = %v", a.max.Load())
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(time.Second)
	a.Merge(b) // merging an empty histogram must not disturb max
	if a.max.Load() != uint64(time.Second) {
		t.Fatalf("max disturbed by empty merge: %v", a.max.Load())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(r.Intn(1e6)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

// Property: for any recorded value v, the bucket midpoint reported for it is
// within ~2*2^-subBucketBits relative error.
func TestBucketRoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		val := uint64(v)
		idx := bucketIndex(val)
		rep := bucketValue(idx)
		if val < 64 {
			return rep == val || relErr(float64(rep), float64(val)) < 0.5
		}
		return relErr(float64(rep), float64(val)) < 0.08
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: bucketIndex is monotone non-decreasing.
func TestBucketMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := uint64(a), uint64(b)
		if x > y {
			x, y = y, x
		}
		return bucketIndex(x) <= bucketIndex(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndexBounds(t *testing.T) {
	if idx := bucketIndex(math.MaxUint64); idx != numBuckets-1 {
		t.Fatalf("max value should land in last bucket, got %d", idx)
	}
}

func TestCounterCount(t *testing.T) {
	c := NewCounter()
	c.Add(1000)
	if c.Count() != 1000 {
		t.Fatalf("count = %d", c.Count())
	}
}

func TestSeriesAndTable(t *testing.T) {
	s1 := NewSeries("FlexLog", "ops/s")
	s2 := NewSeries("Boki", "ops/s")
	s1.Add("64", 2e6)
	s1.Add("128", 1.9e6)
	s2.Add("64", 2e5)
	s2.Add("128", 1.8e5)
	if v, ok := s1.Value("64"); !ok || v != 2e6 {
		t.Fatalf("Value(64) = %v, %v", v, ok)
	}
	if _, ok := s1.Value("nope"); ok {
		t.Fatal("Value of missing label should report !ok")
	}
	out := Table("record sz (B)", s1, s2)
	for _, want := range []string{"record sz (B)", "FlexLog (ops/s)", "Boki (ops/s)", "64", "128", "2M"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if Table("x") != "" {
		t.Fatal("table with no series should be empty")
	}
}

func TestTableShorterSecondSeries(t *testing.T) {
	s1 := NewSeries("a", "")
	s2 := NewSeries("b", "")
	s1.Add("p1", 1)
	s1.Add("p2", 2)
	s2.Add("p1", 3)
	out := Table("x", s1, s2)
	if !strings.Contains(out, "-") {
		t.Fatalf("missing filler for short series:\n%s", out)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		2500000: "2.5M",
		1500:    "1.5k",
		42:      "42",
		0.5:     "0.5",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestValueHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []uint64{1, 2, 3, 4, 10} {
		h.RecordValue(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.MeanValue(); got != 4 {
		t.Fatalf("mean value = %v, want 4", got)
	}
	if got := h.max.Load(); got != 10 {
		t.Fatalf("max value = %d, want 10", got)
	}
	if got := uint64(h.Percentile(50)); relErr(float64(got), 3) > 0.05 {
		t.Fatalf("p50 value = %d, want ~3", got)
	}
	// Merged value histograms keep exact totals.
	h2 := NewHistogram()
	h2.RecordValue(100)
	h.Merge(h2)
	if h.Count() != 6 || h.max.Load() != 100 {
		t.Fatalf("after merge: count=%d max=%d", h.Count(), h.max.Load())
	}
}
