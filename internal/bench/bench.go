// Package bench regenerates every table and figure of the paper's
// evaluation (§9). Each experiment builds the relevant systems — FlexLog's
// storage and ordering layers, the Boki/Scalog/Paxos baselines — on the
// calibrated simulated substrates (PM, SSD, datacenter links), drives the
// paper's workload, and prints the same rows/series the paper reports.
//
// Absolute numbers depend on the latency calibration (the substrates model
// the paper's testbed, they are not it); what the experiments reproduce is
// the shape of each result: who wins, by roughly what factor, and where
// the crossovers fall. EXPERIMENTS.md records paper-vs-measured values.
//
// What the cluster- and sequencer-based experiments have in common lives
// in three files: fixture.go builds a deployment from a declarative spec,
// owns the set of load-generating nodes and tears everything down;
// driver.go runs closed loops (warm-up, hook, measured operations, first
// error) and holds the workloads several experiments share; model.go
// turns two counter snapshots into the busiest node's modeled time. The
// on/off ablations that share a method are entries of one table, run by
// laneablation.go.
package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"flexlog/internal/metrics"
	"flexlog/internal/obs"
	"flexlog/internal/simclock"
)

// RunConfig controls experiment scale.
type RunConfig struct {
	// Quick shrinks sweeps and durations for CI and go-test benchmarks.
	Quick bool
	// Duration is the measurement window per point (default 2s, quick
	// 300ms).
	Duration time.Duration
	// Obs, when set, is wired into the clusters of the experiments that
	// support it (the chaos soak, ablate-obs) so flexlog-bench can dump a
	// registry snapshot on exit (-metrics-dump).
	Obs *obs.Registry
	// Codec pins the TCP wire codec ("gob" or "binary") for experiments
	// that exercise real sockets (ablate-codec). Empty runs both sides of
	// the ablation.
	Codec string
}

// PointDuration resolves the per-point measurement window.
func (c RunConfig) PointDuration() time.Duration {
	if c.Duration > 0 {
		return c.Duration
	}
	if c.Quick {
		return 300 * time.Millisecond
	}
	return 2 * time.Second
}

// Report is one experiment's regenerated table/figure.
type Report struct {
	ID      string
	Title   string
	XHeader string
	Series  []*metrics.Series
	Notes   []string
}

// String renders the report in the style of the paper's figures.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	b.WriteString(metrics.Table(r.XHeader, r.Series...))
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Value looks a measured point up by series name and x label (used by
// EXPERIMENTS.md generation and by the shape-checking tests).
func (r *Report) Value(series, label string) (float64, bool) {
	for _, s := range r.Series {
		if s.Name == series {
			return s.Value(label)
		}
	}
	return 0, false
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg RunConfig) (*Report, error)
}

// experiments is every table and figure the package regenerates: the
// paper's, in its order, then the ablations and extensions.
var experiments = []Experiment{
	{"table1", "Profiling of two serverless functions: % of CPU time in storage calls (Table 1)", runTable1},
	{"fig1", "Storage latency for read and write operations vs block size (Figure 1)", runFig1},
	{"fig4lat", "Ordering-layer latency: FlexLog vs Boki, by read share (Figure 4, left)", runFig4Latency},
	{"fig4thr", "Ordering-layer throughput: FlexLog / FlexLog-P vs optimized Paxos (Figure 4, right)", runFig4Throughput},
	{"fig5", "Storage-layer throughput vs record size: FlexLog(PM) vs Boki(RocksDB) (Figure 5)", runFig5},
	{"fig6", "Storage-layer throughput vs threads: FlexLog(PM) vs Boki(RocksDB) (Figure 6)", runFig6},
	{"fig7", "Storage-layer throughput vs R/W ratio: FlexLog(PM) vs Boki(RocksDB) (Figure 7)", runFig7},
	{"fig8", "Append/read latency vs replication factor, one shard (Figure 8)", runFig8},
	{"fig9", "Ordering-layer scalability vs number of leaf sequencers (Figure 9)", runFig9},
	{"fig10", "Replica recovery time vs number of committed records (Figure 10)", runFig10},
	{"fig11", "Latency vs throughput for 3 vs 6 shards, 95%R/5%W (Figure 11)", runFig11},
	{"ablate-batch", "Ablation: sequencer aggregation window vs ordering latency and root load", runAblateBatch},
	{"ablate-cache", "Ablation: DRAM cache on/off in the storage read path", runAblateCache},
	{"ablate-readhold", "Ablation: read-hold timeout vs ⊥ rate for reads racing appends (§6.3)", runAblateReadHold},
	ablationRow("ablate-clientbatch", "Ablation: client-side append batching & pipelining (v2 API)", clientBatchAblation),
	ablationRow("ablate-readpath", "Ablation: parallel replica read path (read lane + striped cache)", readPathAblation),
	ablationRow("ablate-writepath", "Ablation: parallel replica write path (write lanes + group commit + order coalescing)", writePathAblation),
	ablationRow("ablate-seq", "Ablation: lock-free sequencer hot path (order lanes)", seqPathAblation),
	{"ablate-tiering", "Ablation: storage lifecycle (PM budget + checkpoints) vs recovery cost growth", runAblateTiering},
	{"ablate-codec", "Ablation: wire codec (hand-rolled binary vs gob) on the TCP deployment path", runAblateCodec},
	{"ablate-qos", "Ablation: multi-tenant QoS (admission + weighted-fair lanes) and hedged reads", runAblateQoS},
	{"ablate-reconfig", "Ablation: append availability through a live shard split + replica drain", runAblateReconfig},
	ablationRow("ablate-obs", "Ablation: observability overhead (tracing + registry on vs off)", obsAblation),
	{"ext-burst", "Extension: bursts of serverless invocations over FlexLog (§3.1 scalability requirement)", runExtBurst},
	{"chaos", "Extension: availability under seeded nemeses (chaos engine + history checker)", runChaos},
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns every experiment sorted by id.
func All() []Experiment {
	out := slices.Clone(experiments)
	slices.SortFunc(out, func(a, b Experiment) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// withLatencyInjection runs fn with calibrated latency injection enabled
// and restores the previous setting afterwards. Every experiment that
// measures time uses it.
func withLatencyInjection(fn func() error) error {
	prev := simclock.Enable(true)
	defer simclock.Enable(prev)
	return fn()
}
