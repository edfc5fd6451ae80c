package bench

import (
	"fmt"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/metrics"
	"flexlog/internal/workload"
)

// runFig11 deploys the paper's two data-layer scales — 3 shards under one
// leaf sequencer, and 6 shards under two leaves of a 3-sequencer tree —
// and reports, per offered load (client count), the modeled throughput
// (per-node message + device accounting over a functional run) and the
// measured append/read latency (separate calibrated-injection run).
func runFig11(cfg RunConfig) (*Report, error) {
	clientCounts := []int{1, 2, 4, 8}
	latOps, thrOps := 120, 1500
	if cfg.Quick {
		clientCounts = []int{1, 4}
		latOps, thrOps = 40, 1000
	}
	thrS3 := metrics.NewSeries("Throughput (3 shards)", "kOps/s")
	thrS6 := metrics.NewSeries("Throughput (6 shards)", "kOps/s")
	appS3 := metrics.NewSeries("Append lat (3 shards)", "ms")
	appS6 := metrics.NewSeries("Append lat (6 shards)", "ms")
	rdS3 := metrics.NewSeries("Read lat (3 shards)", "ms")
	rdS6 := metrics.NewSeries("Read lat (6 shards)", "ms")

	for _, clients := range clientCounts {
		label := fmt.Sprint(clients)
		for _, setup := range []struct {
			leaves       int // 3 shards under each
			thr, app, rd *metrics.Series
		}{
			{1, thrS3, appS3, rdS3},
			{2, thrS6, appS6, rdS6},
		} {
			// Throughput: functional run, accounting-based.
			ops, _, _, err := fig11Point(setup.leaves, clients, thrOps)
			if err != nil {
				return nil, err
			}
			setup.thr.Add(label, ops/1e3)

			// Latency: calibrated injection, small closed loop.
			var appLat, rdLat time.Duration
			err = withLatencyInjection(func() error {
				var err error
				_, appLat, rdLat, err = fig11Point(setup.leaves, clients, latOps)
				return err
			})
			if err != nil {
				return nil, err
			}
			setup.app.Add(label, float64(appLat)/1e6)
			setup.rd.Add(label, float64(rdLat)/1e6)
		}
	}
	return &Report{
		ID:      "fig11",
		Title:   "latency vs throughput, 3 vs 6 shards; paper: ~2x throughput at 6 shards, reads flat, appends slightly higher with tree depth",
		XHeader: "clients",
		Series:  []*metrics.Series{thrS3, thrS6, appS3, appS6, rdS3, rdS6},
		Notes: []string{
			"throughput modeled from per-node message+device accounting over a functional run",
			"95% reads / 5% appends to the master (totally ordered) region, 1 KiB records; reads use the client placement cache",
		},
	}, nil
}

// fig11Point runs the 95%R/5%W mix on a fresh deployment of the given
// scale, each client reading back its own records. Throughput comes from
// modeledRate, which snapshots its baseline once all clients are warm so
// the measured phase reflects steady state; latency from the workload's
// own histograms.
func fig11Point(leaves, clients, opsPerClient int) (opsPerSec float64, appendLat, readLat time.Duration, err error) {
	f, err := newClusterFixture(clusterSpec{regions: leaves, shards: 3, tweak: func(c *core.ClusterConfig) { c.SeqBackups = 0 }})
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.stop()
	cs, err := f.clients(clients)
	if err != nil {
		return 0, 0, 0, err
	}
	mix := newReadOwnWrites(cs, clients, 95, workload.Payload(1024, 5), 3, 17)
	opsPerSec, _, err = f.modeledRate(clients, opsPerClient, mix.load(), laneModel{})
	return opsPerSec, mix.appendH.Mean(), mix.readH.Mean(), err
}
