package seq

import (
	"fmt"
	"slices"

	"flexlog/internal/obs"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// PublishObs registers the sequencer's counters and role with the
// observability registry. Publication is func-backed and wait-free end to
// end: every family reads atomic counters (or the packed SN word), so a
// /metrics scrape can never stall the ordering path.
func (s *Sequencer) PublishObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lb := obs.Labels{"node": fmt.Sprintf("%d", s.cfg.ID)}
	for _, c := range []struct {
		name string
		help string
		fn   func(Stats) uint64
	}{
		{"flexlog_seq_assigned_total", "Sequence numbers issued by this node as region owner.", func(st Stats) uint64 { return st.Assigned }},
		{"flexlog_seq_direct_reqs_total", "Order requests received from replicas (including batch items).", func(st Stats) uint64 { return st.DirectReqs }},
		{"flexlog_seq_req_batches_total", "Coalesced OrderReqBatch messages received.", func(st Stats) uint64 { return st.ReqBatches }},
		{"flexlog_seq_child_reqs_total", "Aggregated requests received from child sequencers.", func(st Stats) uint64 { return st.ChildReqs }},
		{"flexlog_seq_batches_sent_total", "Aggregated requests sent to the parent sequencer.", func(st Stats) uint64 { return st.BatchesSent }},
		{"flexlog_seq_resends_total", "Unanswered aggregated requests re-sent (parent failover).", func(st Stats) uint64 { return st.Resends }},
		{"flexlog_seq_elections_total", "Leaderships won by this node.", func(st Stats) uint64 { return st.Elections }},
		{"flexlog_seq_epoch_grants_total", "Epochs granted to child groups.", func(st Stats) uint64 { return st.EpochGrants }},
		{"flexlog_seq_dup_tokens_total", "Duplicate order requests absorbed by the token cache.", func(st Stats) uint64 { return st.DupTokens }},
		{"flexlog_seq_dropped_stale_total", "Stale-epoch messages dropped.", func(st Stats) uint64 { return st.DroppedStale }},
		{"flexlog_seq_flush_rounds_total", "Flusher passes over the pending per-color queues.", func(st Stats) uint64 { return st.FlushRounds }},
		{"flexlog_seq_urgent_flushes_total", "Flush rounds triggered early by a queue crossing the 256-record flush threshold.", func(st Stats) uint64 { return st.UrgentFlushes }},
		{"flexlog_seq_pipelined_batches_total", "Upward batches sent while a prior round for the same color was still unanswered.", func(st Stats) uint64 { return st.PipelinedBatches }},
	} {
		fn := c.fn
		reg.CounterFunc(c.name, c.help, lb, func() uint64 { return fn(s.Stats()) })
	}
	reg.GaugeFunc("flexlog_seq_epoch",
		"Ordering epoch this sequencer currently serves.", lb,
		func() float64 { return float64(s.Epoch()) })
	reg.GaugeFunc("flexlog_seq_pending_records",
		"Records waiting in the per-color pending queues for the next upward flush.", lb,
		func() float64 {
			var n int64
			for _, q := range s.pendingQueues() {
				n += q.nrec.Load()
			}
			if n < 0 {
				n = 0
			}
			return float64(n)
		})
	reg.GaugeFunc("flexlog_seq_inflight_batches",
		"Aggregated upward batches awaiting a parent response.", lb,
		func() float64 {
			n := 0
			s.inflight.Range(func(_, _ any) bool {
				n++
				return true
			})
			return float64(n)
		})
	// Per-tenant ordering accounting, one series per declared tenant plus
	// the default tenant (unclaimed colors) — cardinality is bounded by
	// the operator's tenant list, never by traffic.
	if len(s.cfg.TenantOf) > 0 {
		tenants := []types.TenantID{types.DefaultTenant}
		for _, t := range s.cfg.TenantOf {
			if !slices.Contains(tenants, t) {
				tenants = append(tenants, t)
			}
		}
		slices.Sort(tenants)
		for _, t := range tenants {
			id := t
			tlb := obs.Labels{"node": fmt.Sprintf("%d", s.cfg.ID), "tenant": fmt.Sprintf("%d", id)}
			reg.CounterFunc("flexlog_seq_tenant_ordered_total",
				"Records ordered per tenant, attributed at the entry sequencer by the color→tenant map.",
				tlb, func() uint64 { return s.TenantOrdered()[id] })
		}
	}
	reg.GaugeFunc("flexlog_seq_leader",
		"1 when this node is its group's serving leader, else 0.", lb,
		func() float64 {
			if s.Serving() {
				return 1
			}
			return 0
		})
}

// LaneStats snapshots the sequencer's order lane (the zero value with
// OrderWorkers == 0).
func (s *Sequencer) LaneStats() transport.LaneStats {
	_, order := s.lanes.Stats()
	return order
}

// LaneSnapshots reports the order lane as the "order" row of
// /debug/lanes.
func (s *Sequencer) LaneSnapshots() []obs.LaneSnapshot {
	return []obs.LaneSnapshot{s.LaneStats().Snapshot(s.cfg.ID, "order")}
}
