package bench

import (
	"fmt"

	"flexlog/internal/seq"
	"flexlog/internal/types"
)

// seqPathWorkers sizes the order lane in the lane-on modes.
const seqPathWorkers = 16

// seqPathAblation measures what the lock-free hot path buys on the
// topology built to stress it: a sequencer chain root(c0)←c1←…←cN where
// the deepest node is the shard's entry leaf, so order requests for N
// distinct colors — one closed-loop driver pinned to each — all enter at
// ONE sequencer and climb to their owners. With the serialized delivery
// loop every color contends on that one goroutine; with the order lane
// they only share atomics. Two modes:
//
//   - serial: OrderWorkers=0 — every order message runs on the
//     sequencer's single delivery loop.
//   - full:   the keyed order lane delivers different colors on different
//     workers (one color stays FIFO on one worker), so the atomic SN word
//     and the striped dedup/pending structures actually run concurrently.
//
// The flusher pipelines upward rounds and packs a round's colors into one
// frame in both; the lane without that (the retired +lanes row, 10 MReqs/s
// at 64 colors) is a record in EXPERIMENTS.md, not a code path.
//
// Throughput is modeled from a functional run (model.go): per sequencer
// node, unlaned messages are serial while laned messages charge the
// busiest lane worker (colors pin to workers, so the busiest worker
// bounds the lane). Latency is a separate injected run, serial vs
// full, with one closed-loop driver on the paper's 3-sequencer chain
// asking for master-color SNs at the leaf — the full two-stage climb, so
// every mechanism under test sits on its critical path but the lane
// cannot help; the bar is that it also does not hurt.
func seqPathAblation(cfg RunConfig) laneAblation {
	mode := func(name, lone string, workers int) ablationMode {
		return ablationMode{name: name, lone: lone, seqTweak: func(c *seq.Config) { c.OrderWorkers = workers }}
	}
	a := laneAblation{
		title:   "sequencer hot-path ablation: order lanes unserialize concurrent colors",
		xHeader: "concurrent colors",
		unit:    "kReqs/s",
		modes: []ablationMode{
			mode("serial", "1-driver lat serial", 0),
			mode("full", "1-driver lat full", seqPathWorkers),
		},
		loads:   []int{4, 16, 64},
		ops:     300,
		loneOps: 150,
		ordering: func(m ablationMode, colors int, lone bool) orderingSpec {
			depth := colors
			if lone {
				depth = 2
			}
			return orderingSpec{n: depth, batch: throughputBatchWindow, tweak: m.seqTweak, drivers: colors}
		},
		workload: func(f *fixture, _ ablationMode, colors int, lone bool) (load, error) {
			if lone {
				return f.orderLoad([]types.ColorID{types.MasterColor}, 0), nil
			}
			own := make([]types.ColorID, colors)
			for w := range own {
				own[w] = types.ColorID(w + 1)
			}
			// Warm-up: fault in queues, token stripes, lane workers.
			return f.orderLoad(own, 2), nil
		},
		model: func(*fixture) laneModel { return laneModel{side: writeSide} },
		notes: []string{
			fmt.Sprintf("sequencer chain of depth N: N colors' order requests enter at one leaf and climb to their owners; lane-on modes run %d order workers", seqPathWorkers),
			"modeled throughput over the busiest sequencer node; laned messages charge the busiest lane worker, everything else stays serial",
		},
		observe: func(p ablationPoint, _ func(string, string, float64)) ([]string, error) {
			if !p.last || p.mode.name != "full" {
				return nil, nil
			}
			st := p.f.seqs[len(p.f.seqs)-1].Stats() // the entry leaf
			return []string{fmt.Sprintf("leaf flusher at %d colors (full): %d flush rounds (%d urgent) carried %d upward batches, %d pipelined on top of an unanswered round",
				p.workers, st.FlushRounds, st.UrgentFlushes, st.BatchesSent, st.PipelinedBatches)}, nil
		},
	}
	if cfg.Quick {
		a.ops, a.loneOps = 60, 40
	}
	return a
}
