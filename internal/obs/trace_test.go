package obs

import (
	"context"
	"testing"
	"time"
)

// TestSpanPropagation threads a trace through a context across simulated
// pipeline stages and asserts the stage timings sum to (approximately)
// the end-to-end latency — the invariant that makes /debug/traces output
// attributable: stages partition the total, leaving only a small
// unattributed remainder.
func TestSpanPropagation(t *testing.T) {
	ctx := WithTrace(context.Background(), NewTrace("append"))

	stage := func(ctx context.Context, name string, d time.Duration) {
		end := FromContext(ctx).StartSpan(name)
		time.Sleep(d)
		end()
	}
	stage(ctx, "batch_wait", 5*time.Millisecond)
	stage(ctx, "persist", 10*time.Millisecond)
	stage(ctx, "order_wait", 15*time.Millisecond)

	tr := FromContext(ctx)
	total := tr.Finish()

	var sum time.Duration
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.D <= 0 {
			t.Fatalf("span %s has non-positive duration %v", s.Name, s.D)
		}
		sum += s.D
	}
	if sum > total {
		t.Fatalf("stage sum %v exceeds end-to-end %v", sum, total)
	}
	// The stages are contiguous, so they must account for nearly all of
	// the total; allow generous slack for sleep overshoot and scheduling.
	if float64(sum) < 0.7*float64(total) {
		t.Fatalf("stage sum %v attributes <70%% of end-to-end %v", sum, total)
	}
}

// TestTracerRingAndHistograms checks that observed requests land in the
// stage and total histograms, and that slow requests enter the bounded
// ring (oldest evicted first).
func TestTracerRingAndHistograms(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, "append", Labels{"node": "1"}, 10*time.Millisecond, 4)

	// Fast request: histograms only, no ring entry.
	tr.Observe("fast", time.Millisecond, []Span{{Name: "persist", D: time.Millisecond}})
	if got := len(tr.Recent()); got != 0 {
		t.Fatalf("fast request entered the ring (%d entries)", got)
	}

	// Six slow requests through a ring of 4: the first two fall out.
	for i := 0; i < 6; i++ {
		tr.Observe(string(rune('a'+i)), 20*time.Millisecond, []Span{
			{Name: "persist", D: 8 * time.Millisecond},
			{Name: "order_wait", D: 10 * time.Millisecond},
		})
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recent))
	}
	if recent[0].ID != "c" || recent[3].ID != "f" {
		t.Fatalf("ring eviction order wrong: got ids %q..%q, want c..f", recent[0].ID, recent[3].ID)
	}
	if s := recent[0].String(); s == "" {
		t.Fatal("empty trace record rendering")
	}

	total := reg.Histogram("flexlog_trace_total_seconds", "", Labels{"op": "append", "node": "1"})
	if n := total.HDR().Count(); n != 7 {
		t.Fatalf("total histogram count = %d, want 7", n)
	}
	stage := reg.Histogram("flexlog_trace_stage_seconds", "",
		Labels{"op": "append", "node": "1", "stage": "persist"})
	if n := stage.HDR().Count(); n != 7 {
		t.Fatalf("persist stage count = %d, want 7", n)
	}
}

// TestObserveTrace checks the client-side path: a context-threaded Trace
// folded into a Tracer carries its spans into the stage histograms.
func TestObserveTrace(t *testing.T) {
	reg := NewRegistry()
	tc := NewTracer(reg, "read", nil, time.Hour, 4)
	trace := NewTrace("read")
	trace.AddSpan("rpc", 2*time.Millisecond)
	trace.Finish()
	tc.ObserveTrace(trace, "tok")
	h := reg.Histogram("flexlog_trace_stage_seconds", "", Labels{"op": "read", "stage": "rpc"})
	if h.HDR().Count() != 1 {
		t.Fatal("span did not reach the stage histogram")
	}
}
