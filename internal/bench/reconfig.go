package bench

import (
	"fmt"
	"time"

	"flexlog/internal/ctrlplane"
	"flexlog/internal/metrics"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

// reconfigWriters is the closed-loop append fleet size.
const reconfigWriters = 4

// runAblateReconfig measures what a live reconfiguration costs the write
// path: the same closed-loop append fleet runs through three phases —
// before any reconfiguration, WHILE the control plane splits the shard's
// leaf and drains a replica from the original shard, and after the plans
// complete. The DESIGN.md §15 availability claim is that the dip during
// the window is bounded (clients ride typed retryable rejections and
// epoch-fenced re-resolution, never stalls) and post-split throughput
// recovers to at least the pre-split level — the added shard can only
// widen the append fan-out.
//
// Unlike the modeled ablations this one reports wall-clock throughput:
// the cluster runs on the latency-free test link, so wall time is
// dominated by real synchronization — exactly the retry/fencing cost
// under test.
func runAblateReconfig(cfg RunConfig) (*Report, error) {
	opsPerWriter := 600
	if cfg.Quick {
		opsPerWriter = 300
	}

	f, err := newClusterFixture(clusterSpec{test: true, shards: 1})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	cl := f.cl
	ctrl := ctrlplane.New(cl, ctrlplane.Config{
		PollInterval: time.Millisecond,
		DrainTimeout: 10 * time.Second,
	})
	clients, err := f.clients(reconfigWriters)
	if err != nil {
		return nil, err
	}
	appends := appendLoad(clients, []types.ColorID{types.MasterColor}, workload.Payload(128, 17), 0)

	// measure runs one closed-loop phase and returns kOps/s of wall time.
	measure := func(ops int) (float64, error) {
		start := time.Now()
		if err := closedLoop(reconfigWriters, ops, appends, nil); err != nil {
			return 0, err
		}
		return float64(reconfigWriters*ops) / 1e3 / time.Since(start).Seconds(), nil
	}

	if _, err := measure(20); err != nil { // warmup
		return nil, err
	}
	pre, err := measure(opsPerWriter)
	if err != nil {
		return nil, err
	}

	// The reconfiguration window: split the leaf (a second shard starts
	// absorbing appends) and drain a replica from the original shard, both
	// while the fleet keeps appending.
	shard := cl.Topology().Snapshot().Shards[0].ID
	reconfigDone := make(chan error, 1)
	go func() {
		if _, err := ctrl.SplitShard(types.MasterColor); err != nil {
			reconfigDone <- err
			return
		}
		_, err := ctrl.DrainReplica(shard, 0)
		reconfigDone <- err
	}()
	during, err := measure(opsPerWriter)
	if err != nil {
		return nil, err
	}
	if err := <-reconfigDone; err != nil {
		return nil, fmt.Errorf("reconfig during load: %w", err)
	}
	post, err := measure(opsPerWriter)
	if err != nil {
		return nil, err
	}

	s := metrics.NewSeries("append throughput", "kOps/s")
	s.Add("pre", pre)
	s.Add("during", during)
	s.Add("post", post)
	rel := metrics.NewSeries("vs pre", "x")
	rel.Add("pre", 1)
	rel.Add("during", during/pre)
	rel.Add("post", post/pre)

	return &Report{
		ID:      "ablate-reconfig",
		Title:   "live reconfiguration: append throughput before, during, and after a concurrent shard split + replica drain",
		XHeader: "phase",
		Series:  []*metrics.Series{s, rel},
		Notes: []string{
			fmt.Sprintf("%d closed-loop writers, %d appends each per phase; wall-clock throughput on the latency-free link", reconfigWriters, opsPerWriter),
			"during-phase appends overlap SplitShard + DrainReplica; clients absorb typed retryable rejections and re-resolve membership (DESIGN.md §15)",
			"bars: bounded dip during the window, post >= 95% of pre",
		},
	}, nil
}
