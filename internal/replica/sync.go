package replica

import (
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// This file implements the §6.3 recovery protocols:
//
//   - replica crash/recovery with the sync-phase: the recovering replica
//     pauses the shard with SyncRequest, every replica then pulls from each
//     shard peer in turn through the catch-up path (catchup.go) — the
//     committed records above its own frontier, the SNs its peers gave the
//     batches it persisted but never saw ordered, the peer's trim frontier
//     and epoch — and an all-to-all SyncDone barrier gates the return to
//     operational mode;
//   - sequencer failover handling: on SeqInit from a new leader the shard
//     passes through a sync-phase and only then acknowledges, guaranteeing
//     that interrupted broadcasts of the previous epoch are received by all
//     replicas before the new epoch starts;
//   - re-issuing of order requests for the records no peer has ordered
//     after the sync-phase.
//
// There is no "most up-to-date" replica to elect (DESIGN.md §4): a shard
// that holds several colors may have each color's frontier on a different
// replica, and a batch may be missing below any frontier a replica names.
// Pulling from every peer by frontier and by token covers both.

// syncRun tracks one sync-phase this replica participates in.
type syncRun struct {
	id           uint64
	coordinator  types.NodeID
	participants []types.NodeID // shard replicas (incl. self)
	pulls        []types.NodeID // peers not yet pulled from, in turn; empty once caught up
	dones        map[types.NodeID]bool

	// Retry state: sync messages are fire-and-forget, so on lossy links
	// every stage is re-driven until the run completes (retrySyncRuns).
	started   time.Time
	lastDrive time.Time
}

// syncAbortRetries bounds how long a sync run may stall before it is
// abandoned, in units of RetryTimeout. Retries recover lost messages, but
// a run whose peer CRASHED mid-run is unrecoverable: Crash wipes the
// peer's syncRuns, so it can neither answer the old run's barrier nor its
// coordinator role. Such runs are dropped; a coordinator restarts with a
// fresh id over the current peers (longer than any structural nemesis
// window, so only truly wedged runs are aborted).
const syncAbortRetries = 10

// Crash simulates a crash failure of the replica process: the devices stop
// and all messages are ignored until Recover.
func (r *Replica) Crash() {
	r.mode.store(ModeCrashed)
	r.held.drain() // parked reads are dropped; clients time out and retry
	r.mu.Lock()
	r.pending = make(map[types.Token]*pendingOrder)
	r.trims = make(map[uint64]*trimWait)
	r.syncRuns = make(map[uint64]*syncRun)
	r.mu.Unlock()
	r.st.Crash()
}

// Recover restarts the replica after a crash: storage is re-opened and
// scanned, then the sync-phase runs so the shard converges before this
// replica serves again (§6.3 "When a replica recovers, a synchronization
// phase takes place…").
func (r *Replica) Recover() error {
	if err := r.st.Recover(); err != nil {
		return err
	}
	r.mode.store(ModeSyncing)
	r.maxSeen.reset() // the sync-phase rebuilds the watermarks from storage
	r.startSyncPhase()
	return nil
}

// enterSyncLocked registers run id, coordinated by coordinator, over the
// shard's current membership and pauses the replica. Caller holds r.mu.
func (r *Replica) enterSyncLocked(id uint64, coordinator types.NodeID) *syncRun {
	peers := r.shardPeers()
	now := time.Now()
	run := &syncRun{
		id:           id,
		coordinator:  coordinator,
		participants: append([]types.NodeID{r.cfg.ID}, peers...),
		pulls:        peers,
		dones:        make(map[types.NodeID]bool),
		started:      now,
		lastDrive:    now,
	}
	r.syncRuns[id] = run
	r.mode.store(ModeSyncing)
	return run
}

// startSyncPhase begins a sync-phase with this replica as coordinator.
func (r *Replica) startSyncPhase() {
	r.mu.Lock()
	r.syncSeq++
	id := uint64(r.cfg.ID)<<32 | r.syncSeq
	peers := r.enterSyncLocked(id, r.cfg.ID).pulls
	r.stats.syncs.Add(1)
	if len(peers) == 0 {
		// Singleton shard: nothing to converge with.
		delete(r.syncRuns, id)
		if len(r.syncRuns) == 0 {
			r.finishSyncLocked()
		}
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.ep.Broadcast(peers, proto.SyncRequest{ID: id, From: r.cfg.ID})
	r.ep.Send(peers[0], r.catchupFetch(id))
}

// onSyncRequest enters a run and starts pulling. Sync mode stops appends
// (§6.3); reads keep being served — committed entries stay readable.
// Concurrent recoveries each coordinate their own run; a replica
// participates in all of them and resumes when the last completes. A
// repeated request comes from a coordinator that misses this replica's
// SyncDone: once caught up, it is sent again.
func (r *Replica) onSyncRequest(m proto.SyncRequest) {
	r.mu.Lock()
	run, known := r.syncRuns[m.ID]
	if !known {
		run = r.enterSyncLocked(m.ID, m.From)
	}
	pulls := run.pulls
	r.mu.Unlock()
	switch {
	case len(pulls) == 0:
		r.broadcastSyncDone(m.ID)
	case !known:
		r.ep.Send(pulls[0], r.catchupFetch(m.ID))
	}
}

// pulled ends this replica's pull from peer in run id — the peer's last
// catch-up round said nothing more remains — and starts the pull from the
// next peer; after the last one the replica enters the SyncDone barrier.
func (r *Replica) pulled(id uint64, peer types.NodeID) {
	r.mu.Lock()
	run := r.syncRuns[id]
	if run == nil || len(run.pulls) == 0 || run.pulls[0] != peer {
		r.mu.Unlock()
		return // a late duplicate of a finished pull
	}
	run.pulls = run.pulls[1:]
	run.lastDrive = time.Now()
	next := run.pulls
	r.mu.Unlock()
	if len(next) > 0 {
		r.ep.Send(next[0], r.catchupFetch(id))
		return
	}
	r.broadcastSyncDone(id)
}

// broadcastSyncDone performs this replica's half of the all-to-all barrier.
func (r *Replica) broadcastSyncDone(id uint64) {
	r.mu.Lock()
	run := r.syncRuns[id]
	if run == nil {
		r.mu.Unlock()
		return
	}
	run.dones[r.cfg.ID] = true
	run.lastDrive = time.Now()
	participants := append([]types.NodeID(nil), run.participants...)
	done := r.syncBarrierDoneLocked(run)
	r.mu.Unlock()
	for _, p := range participants {
		if p != r.cfg.ID {
			r.ep.Send(p, proto.SyncDone{ID: id, From: r.cfg.ID})
		}
	}
	if done {
		r.completeSync(id)
	}
}

func (r *Replica) onSyncDone(m proto.SyncDone) {
	r.mu.Lock()
	run := r.syncRuns[m.ID]
	if run == nil {
		r.mu.Unlock()
		return
	}
	run.dones[m.From] = true
	done := r.syncBarrierDoneLocked(run)
	r.mu.Unlock()
	if done {
		r.completeSync(m.ID)
	}
}

// syncBarrierDoneLocked reports whether every participant (including self)
// has broadcast SyncDone. Caller holds r.mu.
func (r *Replica) syncBarrierDoneLocked(run *syncRun) bool {
	for _, p := range run.participants {
		if !run.dones[p] {
			return false
		}
	}
	return true
}

// completeSync returns to operational mode and re-issues order requests for
// records without SNs ("replicas might still need to re-issue OReq requests
// for records that have not been assigned an SN after the sync-phase").
func (r *Replica) completeSync(id uint64) {
	r.mu.Lock()
	if r.syncRuns[id] == nil {
		r.mu.Unlock()
		return
	}
	delete(r.syncRuns, id)
	if len(r.syncRuns) == 0 {
		r.finishSyncLocked()
	}
	r.mu.Unlock()
}

// finishSyncLocked transitions to operational, acks a pending SeqInit, and
// re-drives the batches still uncommitted: the pulls committed every batch
// a peer had ordered, so only those no peer ordered are left. Caller holds
// r.mu.
func (r *Replica) finishSyncLocked() {
	r.mode.store(ModeOperational)
	initSeq, initEpo := r.initSeq, r.initEpo
	r.initSeq, r.initEpo = 0, 0
	if initSeq != 0 {
		r.seqNode = initSeq
		if initEpo > r.epoch {
			r.epoch = initEpo
		}
	}
	id := r.cfg.ID
	ep := r.ep
	uncommitted := r.st.Uncommitted()
	for _, b := range uncommitted {
		if po := r.pending[b.Token]; po == nil {
			r.pending[b.Token] = &pendingOrder{
				color:    b.Color,
				nRecords: uint32(len(b.Records)),
				clients:  map[types.NodeID]bool{},
				sentAt:   time.Now(),
			}
		}
	}
	go func() {
		if initSeq != 0 {
			ep.Send(initSeq, proto.SeqInitAck{Epoch: initEpo, From: id})
		}
		for _, b := range uncommitted {
			r.sendOrderReq(b.Token, b.Color, uint32(len(b.Records)))
		}
	}()
}

// retrySyncRuns re-drives stalled sync-phases. Every sync message is
// fire-and-forget, so on lossy links any stage can be lost; each stage is
// therefore idempotent and re-driven from this replica's current state
// until the run's all-to-all barrier completes:
//
//   - a coordinator re-sends SyncRequest to every participant whose
//     SyncDone it misses (one that never got the request has not started);
//   - a pulling replica asks its current peer for the next catch-up round
//     again, from the frontier it has reached by now;
//   - a caught-up replica re-sends its SyncDone to the participants whose
//     SyncDone it misses.
func (r *Replica) retrySyncRuns(now time.Time) {
	retry := r.cfg.RetryTimeout
	if retry <= 0 {
		return
	}
	type action struct {
		to  []types.NodeID
		msg transport.Message
	}
	var acts []action
	restart, aborted := false, false
	r.mu.Lock()
	for _, run := range r.syncRuns {
		if now.Sub(run.started) > syncAbortRetries*retry {
			// Wedged beyond repair (a peer crashed and lost the run's
			// state): abandon the run. A coordinator re-runs the whole
			// phase with a fresh id; a participant whose last run this was
			// resumes — it was consistent when the foreign run started.
			delete(r.syncRuns, run.id)
			r.stats.syncAborts.Add(1)
			aborted = true
			if run.coordinator == r.cfg.ID {
				restart = true
			}
			continue
		}
		if now.Sub(run.lastDrive) < retry {
			continue
		}
		run.lastDrive = now
		r.stats.syncRetries.Add(1)
		var missing []types.NodeID
		for _, p := range run.participants {
			if p != r.cfg.ID && !run.dones[p] {
				missing = append(missing, p)
			}
		}
		if run.coordinator == r.cfg.ID {
			acts = append(acts, action{to: missing, msg: proto.SyncRequest{ID: run.id, From: r.cfg.ID}})
		}
		if len(run.pulls) > 0 {
			acts = append(acts, action{to: run.pulls[:1], msg: r.catchupFetch(run.id)})
		} else {
			acts = append(acts, action{to: missing, msg: proto.SyncDone{ID: run.id, From: r.cfg.ID}})
		}
	}
	// Only the abort path may finish here: Recover stores ModeSyncing just
	// before startSyncPhase inserts its run, so an unconditional
	// empty-map finish could race that window and serve un-synced state.
	if aborted && len(r.syncRuns) == 0 && !restart && r.mode.load() == ModeSyncing {
		r.finishSyncLocked()
	}
	r.mu.Unlock()
	if restart {
		r.startSyncPhase()
	}
	for _, a := range acts {
		for _, to := range a.to {
			r.ep.Send(to, a.msg)
		}
	}
}

// onSeqInit handles a new sequencer's initialization request (§6.3
// "Sequencer failures"): record the new leader, run a sync-phase with the
// shard, and ack only once the shard is synchronized to the previous epoch.
func (r *Replica) onSeqInit(m proto.SeqInit) {
	r.mu.Lock()
	if m.Epoch < r.epoch {
		r.mu.Unlock()
		return // stale leader
	}
	r.initSeq = m.From
	r.initEpo = m.Epoch
	alreadySyncing := len(r.syncRuns) > 0
	coordinator := r.syncCoordinator()
	r.mu.Unlock()
	if alreadySyncing {
		return // the running sync-phase will ack on completion
	}
	if coordinator == r.cfg.ID {
		r.startSyncPhase()
	}
	// Non-coordinators wait for the coordinator's SyncRequest; if the
	// coordinator's SeqInit was lost, the retry path (sequencer re-sending
	// SeqInit) re-triggers this handler.
}

// syncCoordinator picks the deterministic sync-phase initiator for
// sequencer-failover syncs: the smallest replica id of the shard.
func (r *Replica) syncCoordinator() types.NodeID {
	sh, err := r.topo.Shard(r.cfg.Shard)
	if err != nil || len(sh.Replicas) == 0 {
		return r.cfg.ID
	}
	min := sh.Replicas[0]
	for _, id := range sh.Replicas[1:] {
		if id < min {
			min = id
		}
	}
	return min
}
