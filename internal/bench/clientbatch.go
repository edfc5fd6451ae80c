package bench

import (
	"fmt"
	"sync"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/metrics"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ablate-clientbatch",
		Title: "Ablation: client-side append batching & pipelining (v2 API)",
		Run:   runAblateClientBatch,
	})
}

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

// runAblateClientBatch measures what the client-side batching layer buys
// and what it costs:
//
//   - Throughput (modeled, functional run): 64 concurrent callers share one
//     client handle and append back-to-back. Unbatched, every append is its
//     own AppendReq broadcast and three OrderReqs at the leaf sequencer;
//     batched, coalesced batches amortize both. Throughput is records over
//     the busiest node's modeled busy time (messages x ProcCost + device
//     time), clients excluded — the fig4/fig11 methodology.
//   - Latency (injected run): a single closed-loop client, where batching
//     can only hurt. A lone append leaves at once (nothing of its shard is
//     unacknowledged), so the cost is the hand-off to the batcher
//     goroutine; the regression must stay bounded by MaxBatchDelay.
func runAblateClientBatch(cfg RunConfig) (*Report, error) {
	callers := 64
	opsPerCaller := 400
	latOps := 150
	if cfg.Quick {
		callers, opsPerCaller, latOps = 16, 100, 40
	}

	thruS := metrics.NewSeries("Append throughput", "kRec/s")
	latS := metrics.NewSeries("1-client mean latency", "usec")
	sizeS := metrics.NewSeries("Mean batch size", "rec")

	for _, mode := range []string{"off", "on"} {
		var opts []core.Option
		if mode == "on" {
			opts = append(opts, core.WithBatching(clientBatchTuning()))
		}

		// Throughput, functional.
		ccfg := core.BenchClusterConfig()
		cl, err := core.SimpleCluster(ccfg, 1)
		if err != nil {
			return nil, err
		}
		c, err := cl.NewClient(opts...)
		if err != nil {
			cl.Stop()
			return nil, err
		}
		baseMsgs := cl.Network().NodeDelivered()
		baseDev := replicaDeviceTime(cl)
		payload := workload.Payload(128, 11)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < opsPerCaller; i++ {
					if _, err := c.Append([][]byte{payload}, types.MasterColor); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("caller %d op %d: %w", w, i, err)
						}
						mu.Unlock()
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if firstErr != nil {
			cl.Stop()
			return nil, firstErr
		}
		busiest := busiestNodeTime(cl, baseMsgs, baseDev)
		if busiest <= 0 {
			cl.Stop()
			return nil, fmt.Errorf("clientbatch: no modeled busy time")
		}
		records := float64(callers * opsPerCaller)
		thruS.Add(mode, records/busiest.Seconds()/1e3)
		if mode == "on" {
			sizeS.Add(mode, c.Metrics().BatchRecords.MeanValue())
		} else {
			sizeS.Add(mode, 1) // every append is its own request
		}
		cl.Stop()

		// Latency, injected, single closed-loop client.
		err = withLatencyInjection(func() error {
			cl2, err := core.SimpleCluster(core.BenchClusterConfig(), 1)
			if err != nil {
				return err
			}
			defer cl2.Stop()
			c2, err := cl2.NewClient(opts...)
			if err != nil {
				return err
			}
			h := metrics.NewHistogram()
			for i := 0; i < latOps; i++ {
				start := time.Now()
				if _, err := c2.Append([][]byte{payload}, types.MasterColor); err != nil {
					return err
				}
				h.Record(time.Since(start))
			}
			latS.Add(mode, float64(h.Mean())/1e3)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	return &Report{
		ID:      "ablate-clientbatch",
		Title:   "client-side batching ablation: coalesced appends amortize ordering and data RPCs; a lone client pays no linger",
		XHeader: "batching",
		Series:  []*metrics.Series{thruS, latS, sizeS},
		Notes: []string{
			fmt.Sprintf("%d concurrent callers on one handle; tuning: %d rec / %d KiB / held at most %v / %d in flight",
				callers, clientBatchTuning().MaxBatchRecords, clientBatchTuning().MaxBatchBytes>>10,
				clientBatchTuning().MaxBatchDelay, clientBatchTuning().MaxInFlight),
		},
	}, nil
}
