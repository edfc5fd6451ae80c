package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrency hammers one registry from many goroutines —
// registering, recording, and scraping concurrently — and checks the
// final counts. Run under -race this is the registry's thread-safety
// proof.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 1000

	var extern sync.Map // node -> *uint64 published via CounterFunc
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := string(rune('a' + g%4))
			c := reg.Counter("flexlog_test_ops_total", "help", Labels{"node": node})
			h := reg.Histogram("flexlog_test_latency_seconds", "help", Labels{"node": node})
			v, _ := extern.LoadOrStore(node, new(uint64))
			reg.CounterFunc("flexlog_test_extern_total", "help", Labels{"node": node},
				func() uint64 { return *(v.(*uint64)) })
			reg.GaugeFunc("flexlog_test_depth", "help", Labels{"node": node},
				func() float64 { return 7 })
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(time.Microsecond)
				if i%100 == 0 {
					_ = reg.Snapshot() // concurrent scrapes
				}
			}
		}(g)
	}
	wg.Wait()

	// Each of the 4 node labels was incremented by goroutines/4 workers.
	want := uint64(goroutines / 4 * perG)
	for _, node := range []string{"a", "b", "c", "d"} {
		c := reg.Counter("flexlog_test_ops_total", "help", Labels{"node": node})
		if c.Value() != want {
			t.Errorf("node %s: ops = %d, want %d", node, c.Value(), want)
		}
		h := reg.Histogram("flexlog_test_latency_seconds", "help", Labels{"node": node})
		if h.HDR().Count() != want {
			t.Errorf("node %s: hist count = %d, want %d", node, h.HDR().Count(), want)
		}
	}
}

// TestRegistryIdentity checks that re-registration returns the same
// instance (no double counting) and that distinct labels are distinct.
func TestRegistryIdentity(t *testing.T) {
	reg := NewRegistry()
	a1 := reg.Counter("c", "h", Labels{"x": "1"})
	a2 := reg.Counter("c", "h", Labels{"x": "1"})
	b := reg.Counter("c", "h", Labels{"x": "2"})
	if a1 != a2 {
		t.Fatal("same (name, labels) returned different counters")
	}
	if a1 == b {
		t.Fatal("different labels returned the same counter")
	}
	a1.Add(3)
	if a2.Value() != 3 || b.Value() != 0 {
		t.Fatalf("a=%d b=%d, want 3 and 0", a2.Value(), b.Value())
	}
}

// TestNilSafety checks every hot-path method on nil receivers — the
// "observability off" mode instrumented code relies on.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "h", nil)
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	h := reg.Histogram("x2", "h", nil)
	h.Observe(time.Second)
	h.Since(time.Now())
	reg.CounterFunc("x3", "h", nil, func() uint64 { return 1 })
	reg.GaugeFunc("x4", "h", nil, func() float64 { return 1 })
	if got := reg.Snapshot(); got != "" {
		t.Fatalf("nil registry snapshot = %q", got)
	}
	if fams := reg.Families(); fams != nil {
		t.Fatalf("nil registry families = %v", fams)
	}

	var tr *Tracer
	tr.ObserveStage("s", time.Millisecond)
	tr.Observe("id", time.Millisecond, nil)
	if NewTracer(nil, "op", nil, 0, 0) != nil {
		t.Fatal("NewTracer(nil registry) should be nil")
	}

	var trace *Trace
	trace.StartSpan("s")()
	trace.AddSpan("s", time.Second)
	if trace.Finish() != 0 || trace.Spans() != nil {
		t.Fatal("nil trace should no-op")
	}
}

// TestExpositionGolden locks the Prometheus text format: fixed metrics
// with fixed values must render byte-for-byte as expected. If this test
// changes, OPERATIONS.md's format documentation must change with it.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("flexlog_golden_ops_total", "Operations handled.", Labels{"node": "1", "kind": "append"}).Add(42)
	reg.GaugeFunc("flexlog_golden_depth", "Queue depth.", Labels{"node": "1"}, func() float64 { return 3.5 })
	h := reg.Histogram("flexlog_golden_latency_seconds", "Latency.", Labels{"node": "1"})
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}

	want := strings.Join([]string{
		`# HELP flexlog_golden_depth Queue depth.`,
		`# TYPE flexlog_golden_depth gauge`,
		`flexlog_golden_depth{node="1"} 3.5`,
		`# HELP flexlog_golden_latency_seconds Latency.`,
		`# TYPE flexlog_golden_latency_seconds summary`,
		`flexlog_golden_latency_seconds{node="1",quantile="0.5"} 0.001007616`,
		`flexlog_golden_latency_seconds{node="1",quantile="0.99"} 0.001007616`,
		`flexlog_golden_latency_seconds{node="1",quantile="0.999"} 0.001007616`,
		`flexlog_golden_latency_seconds_sum{node="1"} 0.1`,
		`flexlog_golden_latency_seconds_count{node="1"} 100`,
		`# HELP flexlog_golden_ops_total Operations handled.`,
		`# TYPE flexlog_golden_ops_total counter`,
		`flexlog_golden_ops_total{kind="append",node="1"} 42`,
		``,
	}, "\n")
	if got := reg.Snapshot(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestKindMismatchPanics checks the programming-error guard.
func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "h", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	reg.GaugeFunc("m", "h", nil, func() float64 { return 0 })
}
