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
		MaxBatchRecords: 64,
		MaxBatchBytes:   256 << 10,
		MaxBatchDelay:   100 * time.Microsecond,
		MaxInFlight:     4,
	}
}

// clientBatchAblation measures what the client-side batching layer buys
// and what it costs:
//
//   - Throughput (modeled, functional run): 64 concurrent callers share one
//     client handle and append back-to-back. Unbatched, every append is its
//     own AppendReq broadcast and three OrderReqs at the leaf sequencer;
//     batched, coalesced batches amortize both. Throughput is records over
//     the busiest node's modeled busy time (model.go, nothing laned).
//   - Latency (injected run): a single closed-loop client, where batching
//     can only hurt. A lone append leaves at once (nothing of its shard is
//     unacknowledged), so the cost is the hand-off to the batcher
//     goroutine; the regression must stay bounded by MaxBatchDelay.
func clientBatchAblation(cfg RunConfig) laneAblation {
	const latency = "1-client mean latency"
	tuning := clientBatchTuning()
	a := laneAblation{
		title:   "client-side batching ablation: coalesced appends amortize ordering and data RPCs; a lone client pays no linger",
		xHeader: "batching",
		unit:    "kRec/s",
		total:   "Append throughput",
		modes: []ablationMode{
			{name: "off", lone: latency},
			{name: "on", lone: latency, tweak: func(c *core.ClusterConfig) { c.ClientBatch = tuning }},
		},
		loads:   []int{64},
		ops:     400,
		loneOps: 150,
		cluster: clusterSpec{shards: 1},
		workload: func(f *fixture, _ ablationMode, _ int, _ bool) (load, error) {
			handle, err := f.clients(1)
			if err != nil {
				return load{}, err
			}
			return appendLoad(handle, []types.ColorID{types.MasterColor}, workload.Payload(128, 11), 0), nil
		},
		observe: func(p ablationPoint, record func(series, unit string, v float64)) ([]string, error) {
			size := 1.0 // unbatched, every append is its own request
			if p.mode.name == "on" {
				size = p.f.handles[0].Metrics().BatchRecords.MeanValue()
			}
			record("Mean batch size", "rec", size)
			return nil, nil
		},
	}
	if cfg.Quick {
		a.loads, a.ops, a.loneOps = []int{16}, 100, 40
	}
	a.notes = []string{
		fmt.Sprintf("%d concurrent callers on one handle; tuning: %d rec / %d KiB / held at most %v / %d in flight",
			a.loads[0], tuning.MaxBatchRecords, tuning.MaxBatchBytes>>10, tuning.MaxBatchDelay, tuning.MaxInFlight),
	}
	return a
}
