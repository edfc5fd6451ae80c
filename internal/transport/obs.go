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

// PublishObs registers the TCP endpoint's codec and syscall counters with
// the observability registry. All series are func-backed views over the
// endpoint's atomics, so scraping never touches the send path.
func (e *TCPEndpoint) PublishObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("flexlog_tcp_frames_total",
		"Frames encoded (out) and decoded (in) by the TCP transport.",
		obs.Labels{"dir": "out"}, e.framesOut.Load)
	reg.CounterFunc("flexlog_tcp_frames_total",
		"Frames encoded (out) and decoded (in) by the TCP transport.",
		obs.Labels{"dir": "in"}, e.framesIn.Load)
	reg.CounterFunc("flexlog_tcp_bytes_total",
		"Wire bytes written (out) and read (in) by the TCP transport.",
		obs.Labels{"dir": "out"}, e.bytesOut.Load)
	reg.CounterFunc("flexlog_tcp_bytes_total",
		"Wire bytes written (out) and read (in) by the TCP transport.",
		obs.Labels{"dir": "in"}, e.bytesIn.Load)
	reg.CounterFunc("flexlog_tcp_sends_total",
		"Send/Broadcast destination deliveries (a broadcast counts once per peer, its frame once).",
		nil, e.sendsOut.Load)
	reg.CounterFunc("flexlog_tcp_gob_frames_total",
		"Frames that fell back to gob encoding (codec=gob or unknown message type).",
		nil, e.gobFrames.Load)
	reg.CounterFunc("flexlog_tcp_buf_pool_total",
		"Frame buffer pool lookups by result.",
		obs.Labels{"result": "hit"}, e.poolHits.Load)
	reg.CounterFunc("flexlog_tcp_buf_pool_total",
		"Frame buffer pool lookups by result.",
		obs.Labels{"result": "miss"}, e.poolMisses.Load)
	reg.CounterFunc("flexlog_tcp_writev_calls_total",
		"Vectored write syscalls issued; frames_total{dir=out}/writev_calls_total is the mean batch size.",
		nil, e.writevCalls.Load)
	reg.GaugeFunc("flexlog_tcp_writev_max_batch",
		"Largest number of frames coalesced into a single vectored write.",
		nil, func() float64 { return float64(e.writevMax.Load()) })
	reg.CounterFunc("flexlog_tcp_decode_errors_total",
		"Inbound frames that failed to decode (connection is dropped).",
		nil, e.decodeErrs.Load)
}
