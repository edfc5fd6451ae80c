package replica

import (
	"sync"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// This file implements the replica's parallel write path: the keyed write
// lane that spreads mutation traffic across workers by color, and the
// order-request coalescer that batches the replica→sequencer edge.
//
// The write lane relies on two properties for correctness:
//
//   - per-color FIFO: the lane pins each color to one worker and the
//     delivery loop dispatches in arrival order, so two messages of the
//     same color are never reordered or concurrent. An AppendReq and the
//     OrderResp that commits it share a color, hence a worker.
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
// (readpath.go) and the keyed write lane. With tracing on, each reports
// its queue wait into its tracer's lane_wait stage histogram.
func (r *Replica) laneConfigs() (read, write transport.LaneConfig) {
	read = transport.LaneConfig{Workers: r.cfg.ReadWorkers, Key: readClass, QoS: r.laneQoS(), Observe: laneWait(r.readTr)}
	write = transport.LaneConfig{Workers: r.cfg.WriteWorkers, Key: writeClass, QoS: r.laneQoS(), Observe: laneWait(r.appendTr)}
	return read, write
}

func laneWait(tr *obs.Tracer) func(queueWait, service time.Duration) {
	if tr == nil {
		return nil
	}
	return func(queueWait, _ time.Duration) { tr.ObserveStage("lane_wait", queueWait) }
}

// onOrderRespBatch commits a batched set of assignments. Items share the
// batch's color, so on a write lane the whole batch runs on that color's
// worker, FIFO with the appends it commits.
func (r *Replica) onOrderRespBatch(m proto.OrderRespBatch) {
	for _, it := range m.Items {
		r.onOrderResp(proto.OrderResp{Token: it.Token, LastSN: it.LastSN, NRecords: it.NRecords, Color: m.Color})
	}
}

// ---- Order-request coalescing ----

// orderCoalescer batches the replica→leaf edge of the ordering tree the
// same way the tree aggregates upward (§5.2), and only while that edge is
// busy: the caller that finds no send running sends its own request at
// once, inline, and then ships — one OrderReqBatch per color — whatever
// queued behind it while it was in the socket. An idle replica pays no
// window; W concurrent writers share ~2 messages per send instead of ~2W.
type orderCoalescer struct {
	r *Replica

	mu       sync.Mutex
	pending  []colorItems // queued behind the running send, first-arrival order
	flushing bool         // a caller is sending; it takes pending with it
}

// colorItems is one color's queued order requests.
type colorItems struct {
	color types.ColorID
	items []proto.OrderItem
}

// enqueue sends one order request now, or leaves it to the caller that is
// already sending.
func (c *orderCoalescer) enqueue(color types.ColorID, it proto.OrderItem) {
	c.mu.Lock()
	if c.flushing {
		i := 0
		for i < len(c.pending) && c.pending[i].color != color {
			i++
		}
		if i == len(c.pending) {
			c.pending = append(c.pending, colorItems{color: color})
		}
		c.pending[i].items = append(c.pending[i].items, it)
		c.mu.Unlock()
		return
	}
	c.flushing = true
	c.mu.Unlock()
	c.r.sendOrderItems(color, []proto.OrderItem{it})
	c.mu.Lock()
	for len(c.pending) > 0 {
		pending := c.pending
		c.pending = nil
		c.mu.Unlock()
		for _, p := range pending {
			c.r.sendOrderItems(p.color, p.items)
		}
		c.mu.Lock()
	}
	c.flushing = false
	c.mu.Unlock()
}
