package bench

import (
	"fmt"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/workload"
)

// readPathAblation measures what the concurrent read/subscribe lane buys:
//
//   - Throughput (modeled, functional run): N reader clients run a read-
//     heavy mix against one shard. With the lane off every ReadReq is
//     processed serially on the replica's delivery loop, competing with
//     the mutation stream; with the lane on, read-class messages fan out
//     across the replica's worker pool and only mutations stay serial, so
//     the model (model.go) divides the read side by the lane's workers.
//   - Latency (injected run): a single closed-loop reader, where the lane
//     cannot help — the acceptance bar is that it also does not hurt
//     (dispatch overhead must stay in the noise).
//
// Client-side append batching is ON in both modes — all readers share one
// client handle so concurrent appends actually coalesce — keeping the
// mutation lane equally amortized; the comparison isolates the read path.
func readPathAblation(cfg RunConfig) laneAblation {
	a := laneAblation{
		title:   "read-path ablation: the read lane unserializes replica reads; a lone reader pays nothing",
		xHeader: "readers",
		unit:    "kOps/s",
		loads:   []int{1, 4, 16, 64},
		ops:     300,
		loneOps: 150,
		cluster: clusterSpec{shards: 1},
		workload: func(f *fixture, m ablationMode, readers int, _ bool) (load, error) {
			handle, err := f.clients(1, core.WithBatching(readPathTuning()))
			if err != nil {
				return load{}, err
			}
			return newReadOwnWrites(handle, readers, m.readPercent, workload.Payload(128, 7), 5, 23).load(), nil
		},
		model: func(f *fixture) laneModel { return laneModel{readSide, max(1, f.cfg.Profile.ReadWorkers)} },
		notes: []string{
			"modeled throughput over the busiest node; read-class messages and device reads charged at 1/workers with the lane on",
			"client-side append batching enabled in both modes; reads hit the striped cache zero-copy",
		},
		// Keep the lane counters of the biggest lane-on run.
		observe: func(p ablationPoint, _ func(string, string, float64)) ([]string, error) {
			if !p.last || p.mode.name != "95%R lane on" {
				return nil, nil
			}
			var enq, maxDepth, wakeups uint64
			var busy time.Duration
			for _, r := range p.f.replicas() {
				ls, _ := r.LaneStats()
				enq += ls.Enqueued
				busy += ls.Busy
				maxDepth = max(maxDepth, ls.MaxDepth)
				wakeups += r.Stats().HeldWakeups
			}
			return []string{fmt.Sprintf("lane counters at %d readers / %d%%R: %d enqueued, max queue depth %d, worker busy %v, %d held-read wakeups",
				p.workers, p.mode.readPercent, enq, maxDepth, busy.Round(time.Microsecond), wakeups)}, nil
		},
	}
	if cfg.Quick {
		a.loads, a.ops, a.loneOps = []int{1, 64}, 80, 40
	}
	for _, mix := range []int{95, 50} {
		for _, lane := range []string{"off", "on"} {
			m := ablationMode{
				name:        fmt.Sprintf("%d%%R lane %s", mix, lane),
				readPercent: mix,
				tweak: func(c *core.ClusterConfig) {
					c.SeqBackups = 0
					if lane == "off" {
						c.Profile.ReadWorkers = 0
					}
				},
			}
			// Single-reader injected latency: the lane must not tax a lone
			// reader. One point each, anchored at the 1-reader row.
			if mix == 95 {
				m.lone = "1-reader lat " + lane
			}
			a.modes = append(a.modes, m)
		}
	}
	return a
}

// readPathTuning is clientBatchTuning with a 10x MaxBatchDelay. The runs
// here are functional (modeled time, not wall time), but coalescing happens
// in real time: on a loaded CI machine a 100 µs cap on how long appends are
// held behind unacknowledged batches cuts ragged small batches, which makes
// the serial mutation share — and so the lane-off/lane-on ratio — noisy
// across runs. With the longer cap batches leave on acknowledgements and on
// size, not on scheduling luck, in both lane modes alike.
func readPathTuning() core.BatchConfig {
	t := clientBatchTuning()
	t.MaxBatchDelay = time.Millisecond
	return t
}
