package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"time"
)

// LaneSnapshot is one transport service lane's state as shown by
// /debug/lanes: the queue counters of a replica's read or write lane or
// a sequencer's order lane, plus the drop counters that share its
// dashboard row. transport.LaneStats.Snapshot builds it.
type LaneSnapshot struct {
	// Node is the owning node's id, rendered.
	Node string
	// Lane is "read", "write" or "order".
	Lane string
	// Enqueued / Dequeued / Depth / MaxDepth mirror transport.LaneStats.
	// Depth is the lane's own counter, not Enqueued - Dequeued.
	Enqueued, Dequeued, Depth, MaxDepth uint64
	// Busy is summed worker wall time.
	Busy time.Duration
	// Drops counts messages the owning component dropped on this path
	// (e.g. a replica's AppendDrops for the write lane).
	Drops uint64
	// Shed counts client requests rejected by QoS backpressure (a full
	// per-tenant lane queue answered with Reject rather than queued).
	Shed uint64
}

// MuxConfig assembles the debug HTTP surface.
type MuxConfig struct {
	// Registry backs /metrics. Required.
	Registry *Registry
	// Tracers back /debug/traces (each contributes its slow-request ring).
	Tracers []*Tracer
	// Lanes backs /debug/lanes; nil serves an empty table.
	Lanes func() []LaneSnapshot
	// Extra mounts additional handlers by path (e.g. /debug/topology from
	// the control plane); paths here must not collide with the built-ins.
	Extra map[string]http.Handler
}

// NewMux builds the debug mux: /metrics (Prometheus text), /debug/traces
// (recent slow requests with per-stage latencies), /debug/lanes (service
// lane depths and drops), and the net/http/pprof suite under
// /debug/pprof/.
func NewMux(cfg MuxConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = cfg.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var recs []TraceRecord
		for _, t := range cfg.Tracers {
			recs = append(recs, t.Recent()...)
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].End.Before(recs[j].End) })
		fmt.Fprintf(w, "# %d recent slow requests (oldest first; stage durations attribute the total)\n", len(recs))
		for _, rec := range recs {
			fmt.Fprintln(w, rec.String())
		}
	})
	mux.HandleFunc("/debug/lanes", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%-8s %-6s %12s %12s %8s %10s %14s %8s %8s\n",
			"NODE", "LANE", "ENQUEUED", "DEQUEUED", "DEPTH", "MAXDEPTH", "BUSY", "DROPS", "SHED")
		if cfg.Lanes == nil {
			return
		}
		for _, l := range cfg.Lanes() {
			fmt.Fprintf(w, "%-8s %-6s %12d %12d %8d %10d %14v %8d %8d\n",
				l.Node, l.Lane, l.Enqueued, l.Dequeued, l.Depth, l.MaxDepth,
				l.Busy.Round(time.Microsecond), l.Drops, l.Shed)
		}
	})
	for path, h := range cfg.Extra {
		mux.Handle(path, h)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the debug server on addr (e.g. ":9100"; use ":0" for an
// ephemeral port) and returns the server and its bound address. The
// caller shuts it down with srv.Close.
func Serve(addr string, cfg MuxConfig) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: NewMux(cfg)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}

// RegisterProcess publishes process-level gauges (goroutines, heap bytes,
// uptime) into the registry — the first things an operator checks when a
// node misbehaves.
func RegisterProcess(reg *Registry) {
	start := time.Now()
	reg.GaugeFunc("flexlog_process_goroutines",
		"Number of live goroutines in this process.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("flexlog_process_heap_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).", nil,
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("flexlog_process_uptime_seconds",
		"Seconds since this process registered its metrics.", nil,
		func() float64 { return time.Since(start).Seconds() })
}
