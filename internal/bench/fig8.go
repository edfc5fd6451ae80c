package bench

import (
	"fmt"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/metrics"
	"flexlog/internal/workload"
)

// replicationFactors is the Fig. 8 sweep.
var replicationFactors = []int{2, 3, 4, 6, 8}

// runFig8 deploys one shard with varying replica counts connected to the
// root sequencer (the minimal ordering layer for linearizability, §9.2)
// and measures append and read latency under a 95%W/5%R workload with the
// calibrated latency injection.
func runFig8(cfg RunConfig) (*Report, error) {
	opsPerPoint := 400
	factors := replicationFactors
	if cfg.Quick {
		opsPerPoint = 80
		factors = []int{2, 3, 8}
	}
	appendS := metrics.NewSeries("Appends", "ms")
	readS := metrics.NewSeries("Reads", "ms")

	err := withLatencyInjection(func() error {
		for _, rf := range factors {
			app, rd, err := measureClusterLatency(rf, opsPerPoint, 5)
			if err != nil {
				return err
			}
			appendS.Add(fmt.Sprint(rf), float64(app)/1e6)
			readS.Add(fmt.Sprint(rf), float64(rd)/1e6)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:      "fig8",
		Title:   "latency vs replication factor; paper: appends stable to 3 then grow, reads flat (local reads)",
		XHeader: "replication",
		Series:  []*metrics.Series{appendS, readS},
		Notes:   []string{"1 shard, root sequencer, 95%W/5%R, 1 KiB records"},
	}, nil
}

// measureClusterLatency runs a single closed-loop client against a fresh
// single-region cluster with one shard of `rf` replicas, measuring mean
// append and read latency at the given read percentage.
func measureClusterLatency(rf, ops, readPercent int) (appendLat, readLat time.Duration, err error) {
	f, err := newClusterFixture(clusterSpec{shards: 1, rf: rf, tweak: func(c *core.ClusterConfig) {
		c.SeqBackups = 0 // ordering fault tolerance is orthogonal here
	}})
	if err != nil {
		return 0, 0, err
	}
	defer f.stop()
	client, err := f.clients(1)
	if err != nil {
		return 0, 0, err
	}
	mix := newReadOwnWrites(client, 1, readPercent, workload.Payload(1024, 1), 7, 11)
	if err := closedLoop(1, ops, mix.load(), nil); err != nil {
		return 0, 0, err
	}
	if mix.readH.Count() == 0 {
		// Guarantee at least one read sample.
		if err := mix.read(0); err != nil {
			return 0, 0, err
		}
	}
	return mix.appendH.Mean(), mix.readH.Mean(), nil
}
