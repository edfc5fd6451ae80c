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
// Counters and gauges are the replica's Stats, published by obs.Publish
// (the read and write lanes keep bumping the same atomics; scrapes read
// them).
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

// initObs creates the tracers and publishes the replica's Stats and its
// per-tenant counters. No-op when Config.Obs is nil: the tracers stay nil
// and every recording call no-ops.
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
	r.appendTr = obs.NewTracer(reg, "append", lb, slow, 0)
	r.readTr = obs.NewTracer(reg, "read", lb, slow, 0)

	obs.Publish(reg, lb, r.Stats)
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
