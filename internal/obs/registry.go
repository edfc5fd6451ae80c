// Package obs is FlexLog's cluster observability layer: a process-wide
// metrics registry with Prometheus text exposition, lightweight request
// tracing with per-stage latency attribution, and the HTTP debug surface
// (/metrics, /debug/traces, /debug/lanes, /debug/pprof) that
// cmd/flexlog-server mounts.
//
// The package is stdlib-only (plus internal/metrics, whose HDR histograms
// back the registry's latency distributions) and is designed so that a
// component can be instrumented unconditionally: every method on Counter,
// Histogram, Trace and Tracer is nil-receiver safe, so "observability
// off" is simply a nil registry — no branches in the hot paths.
//
// Three layers:
//
//   - Registry (this file): named metric families — counters, gauges,
//     histograms — each fanned out into labeled instances. Existing
//     atomic counters elsewhere in the tree are published without double
//     bookkeeping via CounterFunc/GaugeFunc, which read the component's
//     own state at scrape time; Publish (publish.go) does that for a
//     whole Stats struct from its field tags.
//   - Trace / Tracer (trace.go): per-request span recording threaded
//     through context.Context on the client, and per-stage histograms
//     plus a bounded ring of recent slow requests on the server.
//   - NewMux / Serve (http.go): the debug HTTP server.
//
// Metric naming follows the Prometheus conventions: flexlog_<subsystem>_
// prefix, _total suffix for counters, _seconds suffix for durations.
// OPERATIONS.md documents every exported family; the golden exposition
// test cross-references the two so the doc cannot drift from the code.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/metrics"
)

// Labels is one metric instance's label set (e.g. {"node": "3"}). Label
// values are escaped at exposition; keys must be valid Prometheus label
// names (the registry does not validate them — callers use literals).
type Labels map[string]string

// Kind discriminates the metric families a Registry holds.
type Kind int

// Metric family kinds. Histograms are exposed in the Prometheus summary
// format (pre-computed quantiles), since the backing HDR histograms
// already answer percentile queries exactly.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind; histograms
// expose as "summary" (see the Kind constants).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// Counter is a monotonically increasing metric owned by the registry.
// All methods are safe on a nil receiver (a no-op), so instrumented code
// needs no "is observability on" branches.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) {
	if c != nil {
		c.n.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Histogram is a latency distribution owned by the registry, backed by an
// HDR histogram from internal/metrics. All methods are safe on a nil
// receiver, and recording is lock-free (a few atomic adds), so hot paths
// record unconditionally.
type Histogram struct {
	h *metrics.Histogram
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h != nil {
		h.h.Record(d)
	}
}

// Since records the time elapsed from start; a convenience for the common
// "stamp, work, observe" pattern.
func (h *Histogram) Since(start time.Time) {
	if h != nil {
		h.h.Record(time.Since(start))
	}
}

// HDR exposes the backing histogram for percentile queries (nil on a nil
// receiver).
func (h *Histogram) HDR() *metrics.Histogram {
	if h == nil {
		return nil
	}
	return h.h
}

// instance is one labeled time series inside a family. Its func-backed
// value reads through the scrape it is part of (see scrape).
type instance struct {
	labels    string // pre-rendered {k="v",...} or ""
	counter   *Counter
	counterFn func(scrape) uint64
	gaugeFn   func(scrape) float64
	hist      *Histogram
}

// family is one named metric with its help text and instances.
type family struct {
	name string
	help string
	kind Kind

	mu    sync.Mutex
	byKey map[string]*instance
	order []string
}

// Registry is a set of metric families. It is safe for concurrent
// registration, recording, and scraping. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating if needed) the named family, enforcing kind
// and help consistency: the first registration wins on help text, and a
// kind mismatch panics — it is a programming error, caught by any test
// that touches the metric.
func (r *Registry) family(name, help string, kind Kind) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*instance)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	return f
}

// renderLabels serializes a label set deterministically (sorted by key).
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// instance returns (creating if needed) the labeled instance of f.
func (f *family) instance(labels Labels) *instance {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	in, ok := f.byKey[key]
	if !ok {
		in = &instance{labels: key}
		f.byKey[key] = in
		f.order = append(f.order, key)
	}
	return in
}

// Counter returns the registry-owned counter for (name, labels), creating
// it on first use; repeated calls with the same identity return the same
// counter. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	f := r.family(name, help, KindCounter)
	if f == nil {
		return nil
	}
	in := f.instance(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if in.counter == nil {
		in.counter = &Counter{}
	}
	return in.counter
}

// CounterFunc publishes an externally maintained monotonic counter: fn is
// invoked at scrape time. Re-registering the same (name, labels) replaces
// the function — a component restarted under the same identity publishes
// its fresh state. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.counterFunc(name, help, labels, func(scrape) uint64 { return fn() })
}

func (r *Registry) counterFunc(name, help string, labels Labels, fn func(scrape) uint64) {
	f := r.family(name, help, KindCounter)
	if f == nil {
		return
	}
	in := f.instance(labels)
	f.mu.Lock()
	in.counterFn = fn
	f.mu.Unlock()
}

// GaugeFunc publishes an instantaneous value read at scrape time (queue
// depths, sizes, process state). Re-registering replaces the function.
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.gaugeFunc(name, help, labels, func(scrape) float64 { return fn() })
}

func (r *Registry) gaugeFunc(name, help string, labels Labels, fn func(scrape) float64) {
	f := r.family(name, help, KindGauge)
	if f == nil {
		return
	}
	in := f.instance(labels)
	f.mu.Lock()
	in.gaugeFn = fn
	f.mu.Unlock()
}

// Histogram returns the registry-owned duration histogram for
// (name, labels), creating it on first use. By convention the name ends
// in _seconds; values are exposed in seconds. A nil registry returns a
// nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	f := r.family(name, help, KindHistogram)
	if f == nil {
		return nil
	}
	in := f.instance(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if in.hist == nil {
		in.hist = &Histogram{h: metrics.NewHistogram()}
	}
	return in.hist
}

// Families returns the sorted names of every registered metric family.
// The OPERATIONS.md cross-reference test is built on this.
func (r *Registry) Families() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.families))
	for name := range r.families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Sample is one instance's scraped value, as returned by the query API the
// autoscaler polls (DESIGN.md §15): the pre-rendered label body (the text
// between the braces in the exposition) plus the value.
type Sample struct {
	Labels string
	Value  float64
}

// Samples scrapes every instance of the named counter or gauge family.
// Counters include their func-backed component; histogram families return
// nil. Nil registry or unknown family returns nil.
func (r *Registry) Samples(name string) []Sample {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []Sample
	s := scrape{}
	for _, key := range f.order {
		in := f.byKey[key]
		switch f.kind {
		case KindCounter:
			v := in.counter.Value()
			if in.counterFn != nil {
				v += in.counterFn(s)
			}
			out = append(out, Sample{Labels: in.labels, Value: float64(v)})
		case KindGauge:
			if in.gaugeFn != nil {
				out = append(out, Sample{Labels: in.labels, Value: in.gaugeFn(s)})
			}
		}
	}
	return out
}

// quantiles exposed for each histogram family.
var summaryQuantiles = []struct {
	q     float64
	label string
}{{50, "0.5"}, {99, "0.99"}, {99.9, "0.999"}}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, instances in
// registration order, histograms as summaries with p50/p99/p99.9.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	s := scrape{}
	for _, f := range fams {
		f.mu.Lock()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range f.order {
			in := f.byKey[key]
			switch f.kind {
			case KindCounter:
				v := in.counter.Value()
				if in.counterFn != nil {
					v += in.counterFn(s)
				}
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(in.labels), v)
			case KindGauge:
				var v float64
				if in.gaugeFn != nil {
					v = in.gaugeFn(s)
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, braced(in.labels), formatFloat(v))
			case KindHistogram:
				h := in.hist.HDR()
				if h == nil {
					continue
				}
				for _, sq := range summaryQuantiles {
					fmt.Fprintf(&b, "%s%s %s\n", f.name,
						bracedExtra(in.labels, `quantile="`+sq.label+`"`),
						formatFloat(h.Percentile(sq.q).Seconds()))
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, braced(in.labels),
					formatFloat(h.Sum().Seconds()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, braced(in.labels), h.Count())
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns the full exposition as a string — the dump format
// flexlog-bench and the chaos soak emit on exit.
func (r *Registry) Snapshot() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}

// braced wraps a pre-rendered label body in {}, or returns "" when empty.
func braced(body string) string {
	if body == "" {
		return ""
	}
	return "{" + body + "}"
}

// bracedExtra appends one extra rendered label to a pre-rendered body.
func bracedExtra(body, extra string) string {
	if body == "" {
		return "{" + extra + "}"
	}
	return "{" + body + "," + extra + "}"
}

// formatFloat renders a metric value the way Prometheus clients expect:
// plain decimal, no exponent for the magnitudes we emit.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
