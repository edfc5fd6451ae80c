package bench

import (
	"fmt"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

// writePathChainDepth is the depth of the region chain under the master
// color. With the single shard attached to the deepest leaf, the shard
// lies in every ancestor's region, so chainDepth+1 distinct colors all
// land on the same replicas — the worst case for a serialized write path.
const writePathChainDepth = 7

// writePathAblation measures what the parallel write path buys, on a
// deployment designed to stress it: a region chain master←c1←…←c7 with
// one shard at the deepest leaf, so 8 colors' append streams converge on
// one replica set. Two modes:
//
//   - serial: WriteWorkers=0 — every mutation runs on the replica's
//     delivery loop, so group commit and order coalescing (which every
//     replica runs) find nothing to fold.
//   - full:   the keyed write lane spreads mutation-class messages (and
//     their PM work) across the worker pool by color; concurrent PM
//     batches fold into shared group-commit windows and order requests
//     coalesce per color on the replica→sequencer edge.
//
// Throughput is modeled from a functional run (model.go) with the write
// side divided by the lane's workers (a sequencer's order lane counts as
// its write lane; order-request coalescing shows up as fewer delivered
// messages). Each writer owns the chain color colors[w mod 8] and appends
// there through its own client, one closed-loop caller per client, so the
// client's batcher has nothing to coalesce — the comparison isolates the
// replica-side write path, not client coalescing. Latency is a separate
// injected run with one closed-loop writer, serial vs full, where the
// lane cannot help; the bar is that it also does not hurt. Drop counters
// (appends abandoned by storage hard-failures, order requests dropped
// before reaching a sequencer) are reported for the full mode and must
// stay zero.
func writePathAblation(cfg RunConfig) laneAblation {
	colors := []types.ColorID{types.MasterColor}
	for i := 1; i <= writePathChainDepth; i++ {
		colors = append(colors, types.ColorID(i))
	}
	mode := func(name, lone string, lanes bool) ablationMode {
		return ablationMode{name: name, lone: lone, tweak: func(c *core.ClusterConfig) {
			c.SeqBackups = 0
			if !lanes {
				c.Profile.WriteWorkers = 0
			}
		}}
	}
	a := laneAblation{
		title:   "write-path ablation: lanes unserialize per-color appends, so group commit folds PM transactions and coalescing thins the sequencer edge",
		xHeader: "writers",
		unit:    "kOps/s",
		modes: []ablationMode{
			mode("serial", "1-writer lat serial", false),
			mode("full", "1-writer lat full", true),
		},
		loads:   []int{1, 4, 16, 64},
		ops:     300,
		loneOps: 150,
		cluster: clusterSpec{regions: writePathChainDepth, chain: true, shards: 1},
		workload: func(f *fixture, _ ablationMode, writers int, _ bool) (load, error) {
			clients, err := f.clients(writers)
			if err != nil {
				return load{}, err
			}
			return appendLoad(clients, colors, workload.Payload(128, 11), 2), nil
		},
		model: func(f *fixture) laneModel { return laneModel{writeSide, max(1, f.cfg.Profile.WriteWorkers)} },
		notes: []string{
			fmt.Sprintf("region chain of depth %d, one shard at the deepest leaf: %d colors share one replica set",
				writePathChainDepth, writePathChainDepth+1),
			"modeled throughput over the busiest node; write-class messages and device writes charged at 1/workers with the lane on",
		},
		// The full mode reports its drop counters at every point and the
		// lane counters of its biggest run.
		observe: func(p ablationPoint, record func(series, unit string, v float64)) ([]string, error) {
			if p.mode.name != "full" {
				return nil, nil
			}
			var appendDrops, oreqDrops, enq, maxDepth, gcWindows, gcOps uint64
			var busy time.Duration
			for _, r := range p.f.replicas() {
				s := r.Stats()
				appendDrops += s.AppendDrops
				oreqDrops += s.OReqDrops
				_, ws := r.LaneStats()
				enq += ws.Enqueued
				busy += ws.Busy
				maxDepth = max(maxDepth, ws.MaxDepth)
				gs := r.Store().Stats().GC
				gcWindows += gs.Windows
				gcOps += gs.Ops
			}
			record("append drops (full)", "msgs", float64(appendDrops))
			record("oreq drops (full)", "msgs", float64(oreqDrops))
			if !p.last {
				return nil, nil
			}
			return []string{fmt.Sprintf("write-lane counters at %d writers (%s): %d enqueued, max queue depth %d, worker busy %v; group commit folded %d ops into %d windows",
				p.workers, p.mode.name, enq, maxDepth, busy.Round(time.Microsecond), gcOps, gcWindows)}, nil
		},
	}
	if cfg.Quick {
		a.loads, a.ops, a.loneOps = []int{1, 64}, 60, 40
	}
	return a
}
