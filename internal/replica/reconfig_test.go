package replica

import (
	"testing"

	"flexlog/internal/proto"
	"flexlog/internal/types"
)

// TestCtrlReconfigHandler drives one replica through the control ops a
// controller sends (DESIGN.md §15), checking each CtrlAck — the
// controller's only view of a replica — and that a retransmitted command
// changes nothing.
func TestCtrlReconfigHandler(t *testing.T) {
	r, ep := steppedReplica(t, nil)
	const ctrl, donor = types.NodeID(500), types.NodeID(2)
	seq := uint64(0)
	do := func(op uint8, donor types.NodeID) proto.CtrlAck {
		t.Helper()
		seq++
		r.handle(ctrl, proto.CtrlReconfig{Seq: seq, Op: op, Donor: donor, From: ctrl})
		ep.mu.Lock()
		defer ep.mu.Unlock()
		ack, ok := ep.sent[len(ep.sent)-1].(proto.CtrlAck)
		if !ok || ack.Seq != seq || ack.Op != op || ack.From != r.cfg.ID {
			t.Fatalf("op %d answered with %#v", op, ep.sent[len(ep.sent)-1])
		}
		return ack
	}
	fetches := func() (n int) {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		for _, m := range ep.sent {
			if _, ok := m.(proto.JoinFetch); ok {
				n++
			}
		}
		return n
	}
	want := func(what string, ack proto.CtrlAck, ok bool, mode Mode, lag uint64) {
		t.Helper()
		if ack.OK != ok || Mode(ack.Mode) != mode || ack.Lag != lag || ack.Version != r.topo.Version() {
			t.Fatalf("%s: ack ok=%v mode=%s lag=%d version=%d; want ok=%v mode=%s lag=%d version=%d",
				what, ack.OK, Mode(ack.Mode), ack.Lag, ack.Version, ok, mode, lag, r.topo.Version())
		}
	}

	want("status of a serving replica", do(proto.CtrlOpStatus, 0), true, ModeOperational, 0)
	want("join without a donor", do(proto.CtrlOpJoin, 0), false, ModeOperational, 0)
	want("unknown op", do(99, 0), false, ModeOperational, 0)

	want("join", do(proto.CtrlOpJoin, donor), true, ModeJoining, joinLagUnknown)
	r.joinLag.Store(42) // as a catch-up round measuring the donor's frontier does
	want("status while joining", do(proto.CtrlOpStatus, 0), true, ModeJoining, 42)
	want("retransmitted join", do(proto.CtrlOpJoin, donor), true, ModeJoining, 42)
	if n := fetches(); n != 1 {
		t.Fatalf("%d catch-up fetches after a join and its retransmission, want 1", n)
	}

	// Shard 1 is a singleton, so the promotion sync-phase ends at once.
	want("promote", do(proto.CtrlOpPromote, 0), true, ModeOperational, 0)
	want("retransmitted promote", do(proto.CtrlOpPromote, 0), true, ModeOperational, 0)
	if n := r.Stats().Syncs; n != 1 {
		t.Fatalf("%d sync-phases after a promote and its retransmission, want 1", n)
	}

	r.mu.Lock()
	r.pending[types.MakeToken(7, 1)] = &pendingOrder{}
	r.mu.Unlock()
	want("status with an order pending", do(proto.CtrlOpStatus, 0), true, ModeOperational, 0)
	want("drain", do(proto.CtrlOpDrain, 0), true, ModeDraining, 1)
	r.topo.RaiseVersion(77)
	if ack := do(proto.CtrlOpStatus, 0); ack.Version != 77 {
		t.Fatalf("status reports layout version %d, want 77", ack.Version)
	}
}
