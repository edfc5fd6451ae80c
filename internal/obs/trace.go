package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-tracing half of the observability layer.
//
// A Trace is a lightweight per-request span recorder: the client creates
// one, threads it through context.Context (WithTrace/FromContext), and
// each instrumented stage appends a named duration. There is no wire
// propagation — FlexLog's server-side stages are attributed by the node
// that executes them (a Tracer per path per node), which is what the
// latency-decomposition question ("where does an append's latency go?")
// actually needs: stage histograms per node, plus a bounded ring of
// recent slow requests with their per-stage breakdown.

// Span is one named, timed stage of a traced request.
type Span struct {
	// Name identifies the stage (e.g. "persist", "order_wait").
	Name string
	// D is the stage's duration.
	D time.Duration
}

// Trace accumulates the spans of one request. All methods are safe on a
// nil receiver (no-ops), so call sites never branch on tracing being
// enabled. A Trace is safe for concurrent span recording.
type Trace struct {
	// Op names the traced operation (e.g. "append", "read").
	Op string
	// Start is when the trace began.
	Start time.Time

	mu    sync.Mutex
	spans []Span
	total time.Duration // set by Finish
}

// NewTrace starts a trace for the named operation.
func NewTrace(op string) *Trace {
	return &Trace{Op: op, Start: time.Now()}
}

// StartSpan opens a stage and returns the function that closes it,
// recording the elapsed time under name. Safe on a nil Trace.
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.AddSpan(name, time.Since(start)) }
}

// AddSpan records an externally measured stage. Safe on a nil Trace.
func (t *Trace) AddSpan(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, D: d})
	t.mu.Unlock()
}

// Finish stamps the trace's end-to-end duration and returns it. Safe on a
// nil Trace (returns 0).
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(t.Start)
	t.mu.Lock()
	t.total = d
	t.mu.Unlock()
	return d
}

// Total returns the end-to-end duration recorded by Finish (0 before).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Spans returns a copy of the recorded stages.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// traceKey is the context key for WithTrace/FromContext.
type traceKey struct{}

// WithTrace returns a context carrying the trace; the v2 client APIs
// (AppendCtx, ReadCtx, ...) record their stages into it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil — callers rely on
// Trace's nil-safety rather than checking.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// TraceRecord is one completed request kept in a Tracer's slow-request
// ring: the operation, when it finished, its end-to-end latency, and the
// per-stage breakdown.
type TraceRecord struct {
	// Op names the traced operation.
	Op string
	// ID identifies the request (e.g. the append token), for correlating
	// with logs; free-form.
	ID string
	// End is when the request completed.
	End time.Time
	// Total is the end-to-end latency.
	Total time.Duration
	// Spans is the per-stage breakdown, in recording order.
	Spans []Span
}

// String renders the record as one /debug/traces line.
func (tr TraceRecord) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s total=%v", tr.End.Format("15:04:05.000"), tr.Op, tr.Total)
	if tr.ID != "" {
		fmt.Fprintf(&b, " id=%s", tr.ID)
	}
	var attributed time.Duration
	for _, s := range tr.Spans {
		fmt.Fprintf(&b, " %s=%v", s.Name, s.D)
		attributed += s.D
	}
	if rest := tr.Total - attributed; rest > 0 && len(tr.Spans) > 0 {
		fmt.Fprintf(&b, " other=%v", rest)
	}
	return b.String()
}

// Tracer aggregates one operation path's traces on one node: per-stage
// latency histograms and an end-to-end histogram in the registry, plus a
// bounded ring of recent slow requests for /debug/traces. All methods are
// safe on a nil receiver, so "tracing off" is a nil Tracer.
type Tracer struct {
	reg    *Registry
	op     string
	labels Labels

	slow atomic.Int64 // slow-request threshold, ns

	total *Histogram
	mu    sync.Mutex
	stage map[string]*Histogram

	ringMu  sync.Mutex
	ring    []TraceRecord
	ringPos int
}

// NewTracer creates a tracer for op (labels distinguish the node), with a
// slow-request threshold and ring capacity. Stage and end-to-end
// histograms register as flexlog_trace_stage_seconds and
// flexlog_trace_total_seconds. A nil registry yields a nil tracer.
func NewTracer(reg *Registry, op string, labels Labels, slow time.Duration, ringCap int) *Tracer {
	if reg == nil {
		return nil
	}
	if ringCap <= 0 {
		ringCap = 64
	}
	lb := Labels{"op": op}
	for k, v := range labels {
		lb[k] = v
	}
	t := &Tracer{
		reg:    reg,
		op:     op,
		labels: lb,
		total: reg.Histogram("flexlog_trace_total_seconds",
			"End-to-end latency of traced operations, by op.", lb),
		stage: make(map[string]*Histogram),
		ring:  make([]TraceRecord, 0, ringCap),
	}
	t.slow.Store(int64(slow))
	return t
}

// Enabled reports whether the tracer records (false on nil).
func (t *Tracer) Enabled() bool { return t != nil }

// stageHist returns (creating if needed) the histogram for one stage.
func (t *Tracer) stageHist(name string) *Histogram {
	t.mu.Lock()
	h, ok := t.stage[name]
	if !ok {
		lb := Labels{"stage": name}
		for k, v := range t.labels {
			lb[k] = v
		}
		h = t.reg.Histogram("flexlog_trace_stage_seconds",
			"Latency of one pipeline stage of a traced operation, by op and stage.", lb)
		t.stage[name] = h
	}
	t.mu.Unlock()
	return h
}

// ObserveStage records one stage duration into the stage histogram
// without an enclosing Trace — used for stages observed in aggregate
// (lane queue wait, group-commit windows, PM transactions). Safe on nil.
func (t *Tracer) ObserveStage(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.stageHist(name).Observe(d)
}

// Observe folds a finished request into the histograms and, if it was
// slow, into the ring. id is free-form correlation (may be ""). spans may
// be nil. Safe on nil.
func (t *Tracer) Observe(id string, total time.Duration, spans []Span) {
	if t == nil {
		return
	}
	t.total.Observe(total)
	for _, s := range spans {
		t.stageHist(s.Name).Observe(s.D)
	}
	if total < time.Duration(t.slow.Load()) {
		return
	}
	rec := TraceRecord{Op: t.op, ID: id, End: time.Now(), Total: total,
		Spans: append([]Span(nil), spans...)}
	t.ringMu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.ringPos] = rec
		t.ringPos = (t.ringPos + 1) % len(t.ring)
	}
	t.ringMu.Unlock()
}

// ObserveTrace folds a finished Trace (client-side, context-threaded)
// into the tracer. Safe on nil.
func (t *Tracer) ObserveTrace(tr *Trace, id string) {
	if t == nil || tr == nil {
		return
	}
	total := tr.Total()
	if total == 0 {
		total = tr.Finish()
	}
	t.Observe(id, total, tr.Spans())
}

// Recent returns the slow-request ring, most recent last.
func (t *Tracer) Recent() []TraceRecord {
	if t == nil {
		return nil
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	out := make([]TraceRecord, 0, len(t.ring))
	out = append(out, t.ring[t.ringPos:]...)
	out = append(out, t.ring[:t.ringPos]...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].End.Before(out[j].End) })
	return out
}
