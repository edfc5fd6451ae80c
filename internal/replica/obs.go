package replica

import (
	"fmt"
	"slices"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// This file publishes the replica into the observability registry and
// hosts its request tracing.
//
// Counters are func-backed over the existing atomic counters struct (the
// read and write lanes keep bumping the same atomics; scrapes read them).
// Tracing is two Tracers — op="append" and op="read" — whose stage
// histograms decompose where a request's latency goes on this node:
//
//	append: lane_wait → persist → order_wait → commit
//	read:   lane_wait → serve
//
// lane_wait is recorded in aggregate by the transport lane's Observe hook
// (per-request correlation through the lane would need the lane to carry
// the trace, which the hot path should not pay for); the other append
// stages are stamped per request via pendingOrder and folded into the
// slow-request ring when the end-to-end latency crosses Config.TraceSlow.

// initObs creates the tracers and registers the counter publications.
// No-op when Config.Obs is nil: the tracers stay nil and every recording
// call no-ops.
func (r *Replica) initObs() {
	reg := r.cfg.Obs
	if reg == nil {
		return
	}
	slow := r.cfg.TraceSlow
	if slow <= 0 {
		slow = time.Millisecond
	}
	lb := obs.Labels{"node": fmt.Sprintf("%d", r.cfg.ID)}
	r.appendTr = obs.NewTracer(reg, "append", lb, slow, r.cfg.TraceRing)
	r.readTr = obs.NewTracer(reg, "read", lb, slow, r.cfg.TraceRing)

	for _, c := range []struct {
		name string
		help string
		fn   func() uint64
	}{
		{"flexlog_replica_appends_total", "Append requests processed (AppendReq handler entries).", r.stats.appends.Load},
		{"flexlog_replica_batch_appends_total", "Client-side coalesced batches processed (AppendBatchReq).", r.stats.batchAppends.Load},
		{"flexlog_replica_batch_records_total", "Records carried by coalesced batches.", r.stats.batchRecords.Load},
		{"flexlog_replica_commits_total", "Order responses applied (SN assignments committed).", r.stats.commits.Load},
		{"flexlog_replica_reads_total", "Read requests served.", r.stats.reads.Load},
		{"flexlog_replica_held_reads_total", "Reads parked for a not-yet-seen SN.", r.stats.heldReads.Load},
		{"flexlog_replica_held_wakeups_total", "Parked reads released by a satisfying commit.", r.stats.heldWakeups.Load},
		{"flexlog_replica_read_misses_total", "Reads answered with bottom (hole or trimmed).", r.stats.readMisses.Load},
		{"flexlog_replica_subscribes_total", "Subscribe requests served.", r.stats.subscribes.Load},
		{"flexlog_replica_trims_total", "Trim requests applied.", r.stats.trims.Load},
		{"flexlog_replica_oreq_retries_total", "Order requests re-issued after RetryTimeout.", r.stats.oreqRetries.Load},
		{"flexlog_replica_append_drops_total", "Appends dropped because persistence failed (capacity/oversize).", r.stats.appendDrops.Load},
		{"flexlog_replica_oreq_drops_total", "Order requests dropped on topology lookup failure.", r.stats.oreqDrops.Load},
		{"flexlog_replica_syncs_total", "Sync-phase runs completed.", r.stats.syncs.Load},
		{"flexlog_replica_sync_retries_total", "Stalled sync-phase stages re-driven.", r.stats.syncRetries.Load},
		{"flexlog_replica_sync_aborts_total", "Wedged sync runs abandoned.", r.stats.syncAborts.Load},
		{"flexlog_replica_replays_total", "Multi-append record sets replayed.", r.stats.replays.Load},
		{"flexlog_replica_join_rounds_total", "Join catch-up fetch rounds ingested.", r.stats.joinRounds.Load},
		{"flexlog_replica_join_records_total", "Records ingested through join catch-up.", r.stats.joinRecords.Load},
		{"flexlog_replica_reconfig_rejects_total", "Appends rejected with Reject(reconfiguring) while draining.", r.stats.reconfigRejects.Load},
		{"flexlog_replica_topo_applies_total", "Topology snapshots adopted from TopoUpdate broadcasts.", r.stats.topoApplies.Load},
	} {
		reg.CounterFunc(c.name, c.help, lb, c.fn)
	}
	// Per-tenant QoS accounting, one series per declared tenant plus the
	// default tenant — cardinality stays bounded by the operator's tenant
	// list even if traffic carries arbitrary tenant ids.
	ids := []types.TenantID{types.DefaultTenant}
	for _, t := range r.cfg.Tenants {
		if !slices.Contains(ids, t.ID) {
			ids = append(ids, t.ID)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		c := r.tenantCounters(id)
		tlb := obs.Labels{"node": fmt.Sprintf("%d", r.cfg.ID), "tenant": fmt.Sprintf("%d", id)}
		for _, f := range []struct {
			name string
			help string
			fn   func() uint64
		}{
			{"flexlog_replica_tenant_appends_total", "Admitted append requests per tenant.", c.appends.Load},
			{"flexlog_replica_tenant_records_total", "Records carried by admitted appends per tenant.", c.records.Load},
			{"flexlog_replica_tenant_reads_total", "Read requests served per tenant.", c.reads.Load},
			{"flexlog_replica_tenant_throttled_total", "Appends rejected by token-bucket admission per tenant.", c.throttled.Load},
			{"flexlog_replica_tenant_shed_total", "Requests shed from full QoS lane queues per tenant.", c.shed.Load},
		} {
			reg.CounterFunc(f.name, f.help, tlb, f.fn)
		}
	}
	reg.GaugeFunc("flexlog_replica_held_reads",
		"Reads currently parked awaiting their SN.", lb,
		func() float64 { return float64(r.held.size()) })
	reg.GaugeFunc("flexlog_replica_pending_orders",
		"Appends persisted but still awaiting a sequence number.", lb,
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.pending))
		})
	reg.GaugeFunc("flexlog_replica_mode",
		"Replica mode: 0 operational, 1 syncing, 2 crashed, 3 stopped, 4 joining, 5 draining.", lb,
		func() float64 { return float64(r.mode.load()) })
	reg.GaugeFunc("flexlog_replica_join_lag",
		"Estimated records behind the donor while joining (0 when not joining).", lb,
		func() float64 {
			if r.mode.load() != ModeJoining {
				return 0
			}
			return float64(r.joinLag.Load())
		})
}

// traceAppend folds one committed append into the append tracer: persist
// was measured in doAppend, order_wait is send→OrderResp arrival, commit
// is the storage commit. Called only when the tracer was enabled at both
// ends (commitStart and arrivedAt non-zero).
func (r *Replica) traceAppend(token types.Token, po *pendingOrder, commitStart time.Time) {
	now := time.Now()
	spans := []obs.Span{{Name: "persist", D: po.persistD}}
	if !po.sentAt.IsZero() && commitStart.After(po.sentAt) {
		spans = append(spans, obs.Span{Name: "order_wait", D: commitStart.Sub(po.sentAt)})
	}
	spans = append(spans, obs.Span{Name: "commit", D: now.Sub(commitStart)})
	r.appendTr.Observe(fmt.Sprintf("tok=%#x", uint64(token)), now.Sub(po.arrivedAt), spans)
}

// LaneStats snapshots the replica's read and write lanes (the zero value
// for a lane configured with no workers).
func (r *Replica) LaneStats() (read, write transport.LaneStats) { return r.lanes.Stats() }

// LaneSnapshots reports this replica's lanes for /debug/lanes: the
// "read" row, then the "write" row. The write row's Drops column carries
// the replica's append drops (persistence failures), the closest thing a
// lane has to a loss counter.
func (r *Replica) LaneSnapshots() []obs.LaneSnapshot {
	read, write := r.lanes.Stats()
	w := write.Snapshot(r.cfg.ID, "write")
	w.Drops = r.stats.appendDrops.Load()
	return []obs.LaneSnapshot{read.Snapshot(r.cfg.ID, "read"), w}
}

// Tracers returns the replica's request tracers for the debug server
// (empty when observability is off).
func (r *Replica) Tracers() []*obs.Tracer {
	var out []*obs.Tracer
	if r.appendTr != nil {
		out = append(out, r.appendTr)
	}
	if r.readTr != nil {
		out = append(out, r.readTr)
	}
	return out
}
