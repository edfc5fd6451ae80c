package replica

import (
	"slices"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/proto"
	"flexlog/internal/qos"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// This file implements the replica's parallel write path: the keyed write
// lane that spreads mutation traffic across workers by color, and the
// order-request coalescer that batches the replica→sequencer edge.
//
// The write lane relies on two properties for correctness:
//
//   - per-color serial: the lane pins each color to one worker, so two
//     messages of the same color never run concurrently, and a tenant's
//     appends of one color run in arrival order. An OrderResp is a
//     protocol message: the worker serves it before the appends queued
//     beside it, so it may overtake the append it commits. The early
//     buffer, not the lane, orders the two: commit buffers a response for
//     a token the store does not know yet, and the append's await takes
//     it. (Over TCP they arrive on different connections anyway.)
//   - cross-color independence: appends and commits of different colors
//     share no state beyond r.mu (brief, pending-map bookkeeping), the
//     storage stack (per-color index locks + narrow allocator lock, see
//     internal/storage), and atomic counters. PM durability waits — the
//     long pole — overlap across workers and fold into shared group-commit
//     windows.
//
// Trim, sync-phase, and multi-append traffic stays on the serialized
// delivery loop: it is rare, touches multi-color state, and its protocols
// assume an ordered view of their own messages.

// writeClass keys mutation-class messages by color for the write lane.
// Only messages whose handlers are safe to run concurrently per color are
// classified; everything else stays on the delivery loop.
func writeClass(msg transport.Message) (uint64, bool) {
	switch m := msg.(type) {
	case proto.AppendReq:
		return uint64(m.Color), true
	case proto.AppendBatchReq:
		return uint64(m.Color), true
	case proto.OrderResp:
		return uint64(m.Color), true
	case proto.OrderRespBatch:
		return uint64(m.Color), true
	}
	return 0, false
}

// laneConfigs sizes the replica's two lanes: the shared read lane
// (readpath.go) and the keyed write lane, which share one QoS config
// (qos.go). With tracing on, each reports its queue wait into its tracer's
// lane_wait stage histogram.
func (r *Replica) laneConfigs() (read, write transport.LaneConfig) {
	lq := transport.LaneQoS{TenantOf: laneTenantOf, Weights: qos.Weights(r.cfg.Tenants), Shed: r.onShed}
	read = transport.LaneConfig{Workers: r.cfg.ReadWorkers, Key: readClass, QoS: lq, Observe: laneWait(r.readTr)}
	write = transport.LaneConfig{Workers: r.cfg.WriteWorkers, Key: writeClass, QoS: lq, Observe: laneWait(r.appendTr)}
	return read, write
}

func laneWait(tr *obs.Tracer) func(queueWait, service time.Duration) {
	if tr == nil {
		return nil
	}
	return func(queueWait, _ time.Duration) { tr.ObserveStage("lane_wait", queueWait) }
}

// ---- Order-request coalescing ----

// Order requests batch on the replica→leaf edge the way the tree
// aggregates upward (§5.2), through a combining queue (internal/combine):
// a request leaves at once when no send is running, else with the
// running sender's next batch. An idle replica pays no window; W
// concurrent writers share ~2 messages per send instead of ~2W.

// maxOrderBatch caps the requests one flush ships: 1024 items keep each
// color's OrderReqBatch inside the 64 KiB read window of a TCP peer.
const maxOrderBatch = 1024

// orderReq is one queued order request.
type orderReq struct {
	color types.ColorID
	item  proto.OrderItem
}

// sendOrderBatch is the order queue's flush: one frame per color, colors
// in first-arrival order.
func (r *Replica) sendOrderBatch(batch []orderReq) {
	for i, o := range batch {
		if slices.ContainsFunc(batch[:i], func(p orderReq) bool { return p.color == o.color }) {
			continue // sent with its color's first request
		}
		var items []proto.OrderItem
		for _, p := range batch[i:] {
			if p.color == o.color {
				items = append(items, p.item)
			}
		}
		r.sendOrderItems(o.color, items)
	}
}
