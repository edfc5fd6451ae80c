package replica

import (
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/types"
)

// This file implements the replica side of online reconfiguration
// (DESIGN.md §15): join catch-up for replicas added to a live shard, the
// draining mode for replicas being removed, and the control messages the
// control plane drives both with.
//
// Joining is deliberately different from the §6.3 sync-phase: a sync-phase
// pauses the whole shard, which is exactly what adding capacity must not
// do. A joining replica instead lives OUTSIDE the topology — clients never
// address it — and pulls committed history from a donor replica in bounded
// rounds (JoinFetch/JoinEntries, served and ingested by catchup.go) while
// the shard keeps serving. Only when the catch-up lag reaches zero does the
// control plane add the node to the shard and call Promote, which runs one
// ordinary sync-phase to converge the final in-flight tail — the shard
// pause is then proportional to the tail, not to the log.
//
// Draining inverts the order: the control plane first removes the node
// from the topology (so the membership clients re-resolve no longer names
// it), then switches it to ModeDraining. A draining replica answers new
// appends with Reject(reconfiguring) — a typed, retryable signal — but
// keeps committing its pending orders, serving reads, and participating in
// trims until the control plane observes PendingOrders()==0 and stops it.
// Removal never loses acked data: an acked append was committed on every
// member at ack time, so the surviving members hold it.

// drainRetryAfter is the retry hint attached to Reject(reconfiguring):
// long enough for the client's next resolve to see the new membership.
const drainRetryAfter = 2 * time.Millisecond

// joinLagUnknown is the lag reported before the first catch-up round has
// measured the donor's frontier.
const joinLagUnknown = ^uint64(0)

// joinState tracks one catch-up transfer this replica is driving.
type joinState struct {
	id        uint64
	donor     types.NodeID
	lastDrive time.Time // last round sent or answered; zero before the first
}

// StartJoin begins pulling committed history from the donor. The replica
// must have been created outside the topology (clients must not address
// it); the control plane promotes it once JoinLag reaches zero.
func (r *Replica) StartJoin(donor types.NodeID) {
	r.mu.Lock()
	r.syncSeq++
	id := uint64(r.cfg.ID)<<32 | r.syncSeq
	r.join = &joinState{id: id, donor: donor}
	r.mu.Unlock()
	r.joinLag.Store(joinLagUnknown)
	r.mode.store(ModeJoining)
	r.retryJoin(time.Now())
}

// JoinLag estimates how many records this replica is behind its donor:
// the per-color gap between the donor's last reported frontier and the
// local one, summed. MaxUint64 until the first round answers.
func (r *Replica) JoinLag() uint64 { return r.joinLag.Load() }

// joinDonor returns the donor of the running join, 0 when there is none.
func (r *Replica) joinDonor() types.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.join == nil {
		return 0
	}
	return r.join.donor
}

// Promote ends the catch-up and converges the final in-flight tail with
// the shard through an ordinary sync-phase. The control plane must have
// added this node to the shard's membership first, so the sync-phase
// participants include the existing replicas.
func (r *Replica) Promote() {
	r.mu.Lock()
	r.join = nil
	r.mu.Unlock()
	r.joinLag.Store(0)
	r.startSyncPhase()
}

// Drain switches the replica to draining: new appends get a typed
// retryable Reject while pending orders keep committing. The control
// plane must have removed this node from the topology first and calls
// Stop once PendingOrders drains to zero.
func (r *Replica) Drain() {
	r.mode.store(ModeDraining)
}

// PendingOrders reports the appends persisted here that still await their
// sequence number — the drain-completion signal.
func (r *Replica) PendingOrders() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// retryJoin sends the joiner's next catch-up round when none was sent or
// answered for a retry interval: the first round, a round that got no
// answer (lost message or donor hiccup), and the poll of the donor's
// frontier once caught up, so records committed under live traffic keep
// flowing to the joiner.
func (r *Replica) retryJoin(now time.Time) {
	retry := r.cfg.RetryTimeout
	if retry <= 0 {
		retry = 30 * time.Millisecond
	}
	r.mu.Lock()
	j := r.join
	if j == nil || now.Sub(j.lastDrive) < retry {
		r.mu.Unlock()
		return
	}
	j.lastDrive = now
	id, donor := j.id, j.donor
	r.mu.Unlock()
	r.ep.Send(donor, r.catchupFetch(id))
}

// rejectDraining answers an append that reached a draining replica with
// the typed retryable rejection; the client re-resolves membership and
// lands on the surviving replicas.
func (r *Replica) rejectDraining(from types.NodeID, color types.ColorID, token types.Token, client types.NodeID) {
	if client == 0 {
		client = from
	}
	r.stats.reconfigRejects.Add(1)
	r.ep.Send(client, proto.Reject{
		Token:            token,
		Color:            color,
		Code:             proto.RejectReconfiguring,
		RetryAfterMicros: uint64(drainRetryAfter / time.Microsecond),
	})
}

// onTopoUpdate adopts a broadcast topology snapshot if it is newer than
// the local layout (epoch fencing: stale snapshots are dropped).
func (r *Replica) onTopoUpdate(m proto.TopoUpdate) {
	if r.topo.ApplyWire(m) {
		r.stats.topoApplies.Add(1)
	}
}

// onCtrlReconfig executes one control-plane operation and answers with a
// CtrlAck carrying the replica's mode, lag, and topology version — the
// controller's polling surface. The controller retransmits a command
// until it is acknowledged, so each one is idempotent: a join already
// running from the named donor is not restarted, and a promote acts only
// on a joining replica (a second one would pause the shard for a needless
// sync-phase).
func (r *Replica) onCtrlReconfig(from types.NodeID, m proto.CtrlReconfig) {
	ack := proto.CtrlAck{Seq: m.Seq, Op: m.Op, From: r.cfg.ID}
	joining := r.mode.load() == ModeJoining
	switch m.Op {
	case proto.CtrlOpJoin:
		ack.OK = m.Donor != 0
		if ack.OK && !(joining && r.joinDonor() == m.Donor) {
			r.StartJoin(m.Donor)
		}
	case proto.CtrlOpPromote:
		if joining {
			r.Promote()
		}
		ack.OK = true
	case proto.CtrlOpDrain:
		r.Drain()
		ack.OK = true
	case proto.CtrlOpStatus:
		ack.OK = true
	}
	ack.Mode = uint8(r.mode.load())
	ack.Lag = r.ctrlLag()
	ack.Version = r.topo.Version()
	r.ep.Send(from, ack)
}

// ctrlLag is the progress figure a CtrlAck reports: catch-up lag while
// joining, un-flushed pending orders while draining, zero otherwise.
func (r *Replica) ctrlLag() uint64 {
	switch r.mode.load() {
	case ModeJoining:
		return r.joinLag.Load()
	case ModeDraining:
		return uint64(r.PendingOrders())
	}
	return 0
}

// orderReplicas returns the commit fan-out list for an order request: the
// shard's current membership, plus this replica when the topology no
// longer names it (draining). The removed replica still holds persisted
// records awaiting their SN and must hear the OrderResp to flush them.
func (r *Replica) orderReplicas(replicas []types.NodeID) []types.NodeID {
	for _, id := range replicas {
		if id == r.cfg.ID {
			return replicas
		}
	}
	out := make([]types.NodeID, 0, len(replicas)+1)
	out = append(out, replicas...)
	return append(out, r.cfg.ID)
}
