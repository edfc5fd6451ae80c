package bench

import (
	"fmt"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

// clientBatchTuning is the batching configuration the ablation turns on:
// the DefaultBatchConfig values, pinned here so the experiment (and its
// shape test) does not drift if the library default is retuned.
func clientBatchTuning() core.BatchConfig {
	return core.BatchConfig{
		MaxBatchBytes: 256 << 10,
		MaxBatchDelay: 100 * time.Microsecond,
		MaxInFlight:   4,
	}
}

// oneRecordBatches makes every append a batch of one record, with a window
// that admits all 64 callers at once: each append is its own
// AppendBatchReq broadcast, as if nothing coalesced. A one-byte bound does
// it, since a set larger than the bound leaves alone. It is this
// ablation's "off" side, and what ablate-obs runs on.
func oneRecordBatches() core.BatchConfig {
	return core.BatchConfig{MaxBatchBytes: 1, MaxInFlight: 64}
}

// clientBatchAblation measures what the client-side batching layer buys
// and what it costs:
//
//   - Throughput (modeled, functional run): 64 concurrent callers share one
//     client handle and append back-to-back. Off (one record per batch),
//     every append is its own AppendBatchReq broadcast and three OrderReqs
//     at the leaf sequencer; on, coalesced batches amortize both.
//     Throughput is records over the busiest node's modeled busy time
//     (model.go, nothing laned).
//   - Latency (injected run): a single closed-loop client, where batching
//     can only hurt. A lone append leaves at once (nothing of its shard is
//     unacknowledged), so the cost is the hand-off to the batcher
//     goroutine; the regression must stay bounded by MaxBatchDelay.
func clientBatchAblation(cfg RunConfig) laneAblation {
	const latency = "1-client median latency"
	tuning := clientBatchTuning()
	batching := map[string]core.BatchConfig{"off": oneRecordBatches(), "on": tuning}
	a := laneAblation{
		title:   "client-side batching ablation: coalesced appends amortize ordering and data RPCs; a lone client pays no linger",
		xHeader: "batching",
		unit:    "kRec/s",
		total:   "Append throughput",
		modes: []ablationMode{
			{name: "off", lone: latency},
			{name: "on", lone: latency},
		},
		loads:   []int{64},
		ops:     400,
		loneOps: 150,
		cluster: clusterSpec{shards: 1},
		workload: func(f *fixture, m ablationMode, _ int, _ bool) (load, error) {
			handle, err := f.clients(1, core.WithBatching(batching[m.name]))
			if err != nil {
				return load{}, err
			}
			return appendLoad(handle, []types.ColorID{types.MasterColor}, workload.Payload(128, 11), 0), nil
		},
		observe: func(p ablationPoint, record func(series, unit string, v float64)) ([]string, error) {
			record("Mean batch size", "rec", p.f.handles[0].Metrics().BatchRecords.MeanValue())
			return nil, nil
		},
	}
	if cfg.Quick {
		a.loads, a.ops, a.loneOps = []int{16}, 100, 40
	}
	a.notes = []string{
		fmt.Sprintf("%d concurrent callers on one handle; on: %d KiB / held at most %v / %d in flight; off: 1 rec / %d in flight",
			a.loads[0], tuning.MaxBatchBytes>>10, tuning.MaxBatchDelay, tuning.MaxInFlight, oneRecordBatches().MaxInFlight),
	}
	return a
}
