package transport

import (
	"fmt"

	"flexlog/internal/obs"
	"flexlog/internal/types"
)

// Snapshot renders the lane's counters as the node's row of that name on
// /debug/lanes.
func (s LaneStats) Snapshot(node types.NodeID, lane string) obs.LaneSnapshot {
	return obs.LaneSnapshot{
		Node: fmt.Sprintf("%d", node), Lane: lane,
		Enqueued: s.Enqueued, Dequeued: s.Dequeued,
		Depth: s.Depth, MaxDepth: s.MaxDepth,
		Busy: s.Busy, Shed: s.Shed,
	}
}

// PublishObs registers the network's delivery and fault-injection
// counters with the observability registry. The fault counters are the
// chaos layer's injection totals (drops, dups, reorders, jitter) — they
// were previously only reachable through FaultStats snapshots; publishing
// them func-backed keeps the single atomic source of truth.
func (n *Network) PublishObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("flexlog_net_delivered_total",
		"Messages delivered by the in-process network.", nil,
		n.delivered.Load)
	reg.CounterFunc("flexlog_net_dropped_total",
		"Messages dropped by the in-process network (partitions, stopped nodes).", nil,
		n.dropped.Load)
	for _, kind := range []struct {
		name string
		fn   func() uint64
	}{
		{"drop", n.faults.drops.Load},
		{"dup", n.faults.dups.Load},
		{"reorder", n.faults.reorders.Load},
		{"jitter", n.faults.jittered.Load},
	} {
		reg.CounterFunc("flexlog_fault_injected_total",
			"Faults injected by the chaos layer, by kind.",
			obs.Labels{"kind": kind.name}, kind.fn)
	}
}

// PublishObs publishes the TCP endpoint's Stats, its codec and syscall
// counters, with the observability registry, labelled with the endpoint's
// node id so endpoints sharing a registry keep their own series.
func (e *TCPEndpoint) PublishObs(reg *obs.Registry) {
	obs.Publish(reg, obs.Labels{"node": fmt.Sprintf("%d", e.id)}, e.Stats)
}
