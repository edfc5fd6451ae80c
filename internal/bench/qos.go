package bench

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/metrics"
	"flexlog/internal/qos"
	"flexlog/internal/transport"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

// Tenant identities of the QoS ablation: the victim carries the paying
// workload (weighted 4, never rate-limited), the aggressor floods under
// a tight admission envelope.
const (
	qosVictim    types.TenantID = 1
	qosAggressor types.TenantID = 2
)

// runAblateQoS measures the two QoS mechanisms of DESIGN.md §13 on a
// live cluster, wall-clock:
//
//   - Noisy-neighbor isolation: closed-loop victim writers run solo
//     ("baseline" row), then again while an aggressor tenant floods the
//     same shard ("qos" row). Token-bucket admission throttles the
//     aggressor at replica ingress and the weighted-fair lanes keep the
//     victim's share of service: on an idle host the victim keeps
//     ≥ ~80% of its solo throughput, and on any host the replicas'
//     per-tenant books must show the victim holding the dominant share
//     of served records. At nominal (solo) load nothing may be shed.
//   - Hedged-read tail: one replica of the shard gets millisecond-scale
//     link jitter (the slow-replica nemesis). A closed-loop reader
//     measures read P99 without hedging ("baseline") and with hedging
//     ("qos"); the hedge must cut the tail, because a straggling round
//     is cloned to a healthy sibling after the straggler threshold.
func runAblateQoS(cfg RunConfig) (*Report, error) {
	dur := cfg.PointDuration()
	reads := 400
	if cfg.Quick {
		reads = 200
	}

	solo, err := qosIsolationRun(false, dur)
	if err != nil {
		return nil, err
	}
	noisy, err := qosIsolationRun(true, dur)
	if err != nil {
		return nil, err
	}

	unhedgedP99, _, err := qosHedgedTail(false, reads)
	if err != nil {
		return nil, err
	}
	hedgedP99, hedges, err := qosHedgedTail(true, reads)
	if err != nil {
		return nil, err
	}

	// Each series is a (baseline, qos) pair.
	pair := func(name, unit string, baseline, qos float64) *metrics.Series {
		s := metrics.NewSeries(name, unit)
		s.Add("baseline", baseline)
		s.Add("qos", qos)
		return s
	}
	series := []*metrics.Series{
		pair("victim appends", "kOps/s", float64(solo.victimOps)/dur.Seconds()/1e3, float64(noisy.victimOps)/dur.Seconds()/1e3),
		// Server-side fairness, from the replicas' own per-tenant books: the
		// victim's share of all records the shard actually served. Unlike the
		// wall-clock rows this is insensitive to how fast the bench host
		// happened to run each window.
		pair("victim served share", "%", solo.victimShare()*100, noisy.victimShare()*100),
		pair("agg throttled", "records", 0, float64(noisy.aggThrottled)),
		pair("lane sheds", "msgs", float64(solo.sheds), float64(noisy.sheds)),
		pair("read P99", "usec", float64(unhedgedP99)/1e3, float64(hedgedP99)/1e3),
		pair("hedged rounds", "count", 0, float64(hedges)),
	}

	ratio := 0.0
	if solo.victimOps > 0 {
		ratio = float64(noisy.victimOps) / float64(solo.victimOps)
	}
	return &Report{
		ID:      "ablate-qos",
		Title:   "multi-tenant QoS: admission + weighted-fair lanes contain the aggressor; hedged reads cut the slow-replica tail",
		XHeader: "scenario",
		Series:  series,
		Notes: []string{
			"'victim appends'/'agg throttled'/'lane sheds': baseline = victim solo, qos = victim + rate-capped aggressor flood; wall-clock closed-loop over " + dur.String(),
			fmt.Sprintf("victim keeps %.0f%% of solo throughput with the aggressor flooding (acceptance bar: >= ~80%% on an idle host)", ratio*100),
			"'victim served share': replica-side per-tenant record accounting — admission caps the aggressor's slice of served work regardless of bench-host speed",
			"'read P99'/'hedged rounds': one replica has millisecond link jitter; baseline = hedging off, qos = hedging on (straggler threshold 300us, budget 60%)",
		},
	}, nil
}

// qosIsoResult aggregates one isolation window: the victim's completed
// appends (client wall-clock), plus the replicas' server-side per-tenant
// record books, aggressor throttles, and lane sheds.
type qosIsoResult struct {
	victimOps    uint64
	aggThrottled uint64
	sheds        uint64
	victimRecs   uint64 // records the replicas served for the victim
	aggRecs      uint64 // records the replicas served for the aggressor
}

// victimShare is the victim's fraction of all tenant records the shard
// served. Replica-side accounting counts both tenants identically, so
// the ratio is independent of replication fan-out and of how fast the
// bench host ran the window.
func (r qosIsoResult) victimShare() float64 {
	total := r.victimRecs + r.aggRecs
	if total == 0 {
		return 0
	}
	return float64(r.victimRecs) / float64(total)
}

// qosIsolationRun drives the noisy-neighbor scenario for dur.
func qosIsolationRun(withAggressor bool, dur time.Duration) (qosIsoResult, error) {
	var res qosIsoResult
	// The aggressor's envelope must be small relative to shard capacity —
	// that is what an operator's rate cap is for. Capacity on this
	// 2-vCPU host also shrinks several-fold when the process or the
	// machine is busy (the full test sweep), so the cap is sized against
	// the degraded case: 200 rec/s admitted stays a small slice of even a
	// quartered victim capacity.
	f, err := newClusterFixture(clusterSpec{test: true, shards: 1, tweak: func(c *core.ClusterConfig) {
		c.Tenants = []qos.TenantConfig{
			{ID: qosVictim, Weight: 4},
			{ID: qosAggressor, Weight: 1, Rate: 200, Burst: 20},
		}
	}})
	if err != nil {
		return res, err
	}
	defer f.stop()

	// Four victim writers and, with the aggressor, two flood workers — not
	// four: the aggressor and victim share the bench host's CPU as ordinary
	// goroutines, and QoS governs the cluster's resources, not the flooding
	// process's own CPU — more workers would measure Go scheduler
	// fair-share, not lane fairness.
	const victims = 4
	clients, err := f.clients(victims, core.WithTenant(qosVictim))
	if err == nil && withAggressor {
		var flood []*core.Client
		flood, err = f.clients(2, core.WithTenant(qosAggressor))
		clients = append(clients, flood...)
	}
	if err != nil {
		return res, err
	}
	payload := workload.Payload(128, 11)
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	var ok atomic.Uint64
	// No worker reports an error: aggressor errors are the mechanism
	// working — throttled appends surface ErrThrottled with a retry-after
	// hint the client backoff honors on the next attempt.
	_ = fanOut(len(clients), func(w int) error {
		for ctx.Err() == nil {
			opCtx, opCancel := context.WithTimeout(ctx, time.Second)
			_, err := clients[w].AppendCtx(opCtx, [][]byte{payload}, types.MasterColor)
			opCancel()
			if err == nil && w < victims {
				ok.Add(1)
			}
		}
		return nil
	})

	for _, r := range f.replicas() {
		for _, ts := range r.TenantStats() {
			switch ts.Tenant {
			case qosAggressor:
				res.aggThrottled += ts.Throttled
				res.aggRecs += ts.Records
			case qosVictim:
				res.victimRecs += ts.Records
			}
			res.sheds += ts.Shed
		}
	}
	res.victimOps = ok.Load()
	return res, nil
}

// qosHedgedTail measures closed-loop read P99 against a shard with one
// jitter-degraded replica, with hedging off or on, and reports how many
// rounds actually hedged.
func qosHedgedTail(hedged bool, reads int) (p99 time.Duration, hedges uint64, err error) {
	f, err := newClusterFixture(clusterSpec{test: true, shards: 1})
	if err != nil {
		return 0, 0, err
	}
	defer f.stop()

	var opts []core.Option
	if hedged {
		opts = append(opts, core.WithHedging(core.HedgeConfig{
			Delay:         300 * time.Microsecond,
			BudgetPercent: 60,
		}))
	}
	reader, err := f.clients(1, opts...)
	if err != nil {
		return 0, 0, err
	}

	// The reader warms a working set of 32 records before the replica is
	// degraded: appends need acks from ALL replicas, so warming under
	// jitter would only slow the setup without adding signal.
	mix := newReadOwnWrites(reader, 1, 100, workload.Payload(128, 13), 0, 17)
	l := mix.load()
	l.warmOps = 32
	err = closedLoop(1, reads, l, func() {
		slow := f.cl.Topology().ShardsInRegion(types.MasterColor)[0].Replicas[0]
		f.net.SetNodeFaults(slow, transport.FaultModel{JitterMax: 3 * time.Millisecond})
	})
	return mix.readH.Percentile(99), reader[0].HedgedReads(), err
}
