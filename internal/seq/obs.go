package seq

import (
	"fmt"
	"slices"

	"flexlog/internal/obs"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// PublishObs publishes the sequencer's Stats, its counters and ordering
// state, with the observability registry, plus the per-tenant ordered
// records.
func (s *Sequencer) PublishObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	obs.Publish(reg, obs.Labels{"node": fmt.Sprintf("%d", s.cfg.ID)}, s.Stats)
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
