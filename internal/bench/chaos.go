package bench

import (
	"context"
	"fmt"
	"time"

	"flexlog/internal/chaos"
	"flexlog/internal/core"
	"flexlog/internal/histcheck"
	"flexlog/internal/metrics"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// chaosBenchSeed pins the nemesis schedules and the network fault rng so
// the reported numbers replay bit-for-bit.
const chaosBenchSeed int64 = 20260805

// runChaos measures availability per nemesis family: a recorded workload
// runs against a live cluster while one family of faults is injected —
// lossy links, replica crash/recover, sequencer leader kill/restart, or
// partition blips — and each run reports the append success rate, the
// longest window without an acknowledged append, and the history-checker
// verdict over the run's full operation record.
func runChaos(cfg RunConfig) (*Report, error) {
	dur := 4 * cfg.PointDuration()
	if dur < time.Second {
		dur = time.Second
	}
	colors := []types.ColorID{1, 2}

	avail := metrics.NewSeries("Append availability", "%")
	gap := metrics.NewSeries("Max append gap", "ms")
	acked := metrics.NewSeries("Appends acked", "")
	viol := metrics.NewSeries("History violations", "")

	families := []struct {
		label  string
		events func(replicas []types.NodeID) []chaos.Event
	}{
		{"baseline", func([]types.NodeID) []chaos.Event { return nil }},
		{"lossy-links", func([]types.NodeID) []chaos.Event {
			return []chaos.Event{
				{At: dur / 10, Kind: chaos.EvSetFaults, Fault: transport.FaultModel{
					DropProb: 0.02, DupProb: 0.02, ReorderProb: 0.03, JitterMax: 200 * time.Microsecond}},
				{At: dur * 9 / 10, Kind: chaos.EvClearFaults},
			}
		}},
		{"replica-crash", func(replicas []types.NodeID) []chaos.Event {
			var evs []chaos.Event
			down := 60 * time.Millisecond
			for i, at := 0, dur/10; at+down < dur*9/10; i, at = i+1, at+400*time.Millisecond {
				id := replicas[i%len(replicas)]
				evs = append(evs,
					chaos.Event{At: at, Kind: chaos.EvCrashReplica, Node: id},
					chaos.Event{At: at + down, Kind: chaos.EvRecoverReplica, Node: id})
			}
			return evs
		}},
		{"leader-kill", func([]types.NodeID) []chaos.Event {
			var evs []chaos.Event
			down := 200 * time.Millisecond
			for i, at := 0, dur/10; at+down < dur*9/10; i, at = i+1, at+700*time.Millisecond {
				color := colors[i%len(colors)]
				evs = append(evs,
					chaos.Event{At: at, Kind: chaos.EvKillLeader, Color: color},
					chaos.Event{At: at + down, Kind: chaos.EvRestartLeader, Color: color})
			}
			return evs
		}},
		{"partition", func(replicas []types.NodeID) []chaos.Event {
			var evs []chaos.Event
			down := 40 * time.Millisecond
			for i, at := 0, dur/10; at+down < dur*9/10; i, at = i+1, at+300*time.Millisecond {
				a := replicas[i%len(replicas)]
				b := replicas[(i+1)%len(replicas)]
				evs = append(evs,
					chaos.Event{At: at, Kind: chaos.EvPartition, A: a, B: b},
					chaos.Event{At: at + down, Kind: chaos.EvHeal, A: a, B: b})
			}
			return evs
		}},
	}

	// family runs the recorded workload on a fresh cluster under one
	// family's schedule and checks the history once everything has healed.
	family := func(events func(replicas []types.NodeID) []chaos.Event) (chaos.Stats, []histcheck.Violation, error) {
		f, err := newClusterFixture(clusterSpec{test: true, regions: 2, shards: 1, tweak: func(c *core.ClusterConfig) {
			c.FailureTimeout = 100 * time.Millisecond
			// Publish the soak's clusters into the shared registry so
			// flexlog-bench -metrics-dump captures injection counters and
			// per-node state from the last family run.
			c.Obs = cfg.Obs
		}})
		if err != nil {
			return chaos.Stats{}, nil, err
		}
		defer f.stop()
		var replicas []types.NodeID
		for _, c := range colors {
			for _, sh := range f.cl.Topology().ShardsInRegion(c) {
				replicas = append(replicas, sh.Replicas...)
			}
		}
		eng := chaos.NewEngine(f.cl, chaos.Schedule{Seed: chaosBenchSeed, Duration: dur, Events: events(replicas)})

		ctx, cancel := context.WithTimeout(context.Background(), dur)
		defer cancel()
		wl, err := chaos.StartWorkload(ctx, f.cl, chaos.WorkloadConfig{
			Seed:      chaosBenchSeed,
			Colors:    colors,
			Writers:   2,
			Readers:   1,
			OpTimeout: 2 * time.Second,
		})
		if err != nil {
			return chaos.Stats{}, nil, err
		}
		eng.Run(ctx)
		<-ctx.Done()
		wl.Wait()

		if err := eng.HealAndRecover(replicas, colors, 20*time.Second); err != nil {
			return chaos.Stats{}, nil, err
		}
		time.Sleep(10 * f.cfg.RetryTimeout)
		final, err := chaos.CollectFinal(f.cl, colors)
		if err != nil {
			return chaos.Stats{}, nil, err
		}
		return wl.Stats(), histcheck.Check(wl.Recorder().Ops(), final), nil
	}

	notes := []string{fmt.Sprintf("seed=%d, %s per family; availability = acked appends / attempted", chaosBenchSeed, dur)}
	for _, fam := range families {
		st, violations, err := family(fam.events)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fam.label, err)
		}
		total := st.Appends + st.AppendFails
		pct := 100.0
		if total > 0 {
			pct = 100 * float64(st.Appends) / float64(total)
		}
		avail.Add(fam.label, pct)
		gap.Add(fam.label, float64(st.MaxAppendGap.Milliseconds()))
		acked.Add(fam.label, float64(st.Appends))
		viol.Add(fam.label, float64(len(violations)))
		if len(violations) > 0 {
			notes = append(notes, fmt.Sprintf("%s: %d history violations, e.g. %s", fam.label, len(violations), violations[0]))
		}
	}

	return &Report{
		ID:      "chaos",
		Title:   "Extension: availability under seeded nemeses (chaos engine + history checker)",
		XHeader: "nemesis",
		Series:  []*metrics.Series{avail, gap, acked, viol},
		Notes:   notes,
	}, nil
}
