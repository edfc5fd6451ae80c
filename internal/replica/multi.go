package replica

import (
	"encoding/binary"
	"fmt"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/types"
)

// This file implements the broker-replica half of the atomic multi-color
// append protocol (Alg. 2, §6.4).
//
// The client first appends each record set to the special (broker) color,
// with the target color and the caller's FID persisted alongside the data
// (EncodeStaged/DecodeStaged). After all staged appends ack, the client
// broadcasts MultiAppendEnd; every broker replica then replays each staged
// set into its target color via the normal append protocol and acks the
// client when all sets are fully appended.
//
// All broker replicas derive the same replay token from the staged token
// and pick the same target shard, so the replicas of the target shard
// deduplicate the concurrent replays and the appended records are identical
// no matter how many brokers replay them — this is what makes the protocol
// all-or-nothing under broker crashes (§7, multi-color proof).

// stagedHeader is the metadata persisted with each staged record set.
const stagedMagic = 0x464C4D41 // "FLMA"

// EncodeStaged frames a multi-append record set for staging in the broker
// color: [magic][target color][fid][count][len_i][data_i]...
func EncodeStaged(target types.ColorID, fid uint32, records [][]byte) []byte {
	total := 16
	for _, rec := range records {
		total += 4 + len(rec)
	}
	buf := make([]byte, total)
	binary.LittleEndian.PutUint32(buf[0:4], stagedMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(target))
	binary.LittleEndian.PutUint32(buf[8:12], fid)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(records)))
	off := 16
	for _, rec := range records {
		binary.LittleEndian.PutUint32(buf[off:off+4], uint32(len(rec)))
		off += 4
		copy(buf[off:], rec)
		off += len(rec)
	}
	return buf
}

// DecodeStaged parses a staged record set.
func DecodeStaged(data []byte) (target types.ColorID, fid uint32, records [][]byte, err error) {
	if len(data) < 16 || binary.LittleEndian.Uint32(data[0:4]) != stagedMagic {
		return 0, 0, nil, fmt.Errorf("replica: not a staged multi-append record")
	}
	target = types.ColorID(binary.LittleEndian.Uint32(data[4:8]))
	fid = binary.LittleEndian.Uint32(data[8:12])
	count := binary.LittleEndian.Uint32(data[12:16])
	off := 16
	for i := uint32(0); i < count; i++ {
		if off+4 > len(data) {
			return 0, 0, nil, fmt.Errorf("replica: truncated staged set")
		}
		l := int(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 4
		if off+l > len(data) {
			return 0, 0, nil, fmt.Errorf("replica: truncated staged record")
		}
		records = append(records, data[off:off+l])
		off += l
	}
	return target, fid, records, nil
}

// ReplayToken derives the token used when a staged set is replayed into its
// target color. It is a deterministic function of the staged token so every
// broker replica produces the same token and target-shard replicas dedupe
// the concurrent replays.
func ReplayToken(staged types.Token) types.Token {
	// SplitMix64-style mix; deterministic and collision-resistant against
	// the (fid<<32|ctr) token space of live clients.
	x := uint64(staged) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return types.Token(x ^ (x >> 31))
}

// replayWait tracks one replayed set awaiting AppendAcks from the target
// shard's replicas. Its barrier follows the live membership, as a client's
// append does (core's appendCall): rebuilt on every retry tick, and
// resolved once more when it empties, so a replica promoted into the shard
// mid-replay must ack too. Guarded by the replica's mu, except that ok may
// be read once done is closed.
type replayWait struct {
	shard  types.ShardID
	needed map[types.NodeID]bool // the ack barrier: members that have not acked
	acked  map[types.NodeID]bool // responders so far, kept across membership changes
	done   chan struct{}         // closed when the replay ends, either way
	ok     bool                  // every member acked
	closed bool
}

// covers puts every given member that has not acked into the barrier.
// Caller holds the replica's mu.
func (w *replayWait) covers(members []types.NodeID) {
	for _, id := range members {
		if !w.acked[id] {
			w.needed[id] = true
		}
	}
}

// settle ends the replay, once: successfully if nobody is left to ack, or
// with the failure if failed is set. Caller holds r.mu.
func (w *replayWait) settle(failed bool) {
	if !w.closed && (failed || len(w.needed) == 0) {
		w.closed, w.ok = true, !failed
		close(w.done)
	}
}

// onMultiAppendEnd replays each staged set into its target color and acks
// the client when all sets are appended (Alg. 2 replica role).
func (r *Replica) onMultiAppendEnd(from types.NodeID, m proto.MultiAppendEnd) {
	if r.mode.load() != ModeOperational {
		return
	}
	client := m.Client
	if client == 0 {
		client = from
	}
	// Replaying involves blocking waits on other shards: run off the
	// delivery goroutine.
	go r.replayStaged(client, m)
}

func (r *Replica) replayStaged(client types.NodeID, m proto.MultiAppendEnd) {
	for _, token := range m.Tokens {
		if !r.replayOne(token) {
			// Could not complete this set (e.g. target shard unreachable):
			// do not ack; the client retries MultiAppendEnd and the
			// replays are idempotent.
			return
		}
	}
	r.stats.replays.Add(uint64(len(m.Tokens)))
	r.ep.Send(client, proto.MultiAppendAck{ID: m.ID})
}

// replayOne replays a single staged set. Returns true once every replica of
// the target shard acked the append.
func (r *Replica) replayOne(staged types.Token) bool {
	brokerColor, sn, ok := r.st.TokenInfo(staged)
	if !ok || !sn.Valid() {
		// We never persisted (or committed) this staged set: we cannot
		// replay it. Another broker replica that has it will.
		return false
	}
	// The staged payload is the single record of the staging batch.
	data, err := r.st.Get(brokerColor, sn)
	if err != nil {
		return false
	}
	target, _, records, err := DecodeStaged(data)
	if err != nil {
		return false
	}
	// Deterministic target shard (all brokers agree).
	shards := r.topo.ShardsInRegion(target)
	if len(shards) == 0 {
		return false
	}
	sh := shards[int(uint64(staged)%uint64(len(shards)))]
	token := ReplayToken(staged)

	r.mu.Lock()
	if existing, dup := r.replays[token]; dup {
		// A retried end marker found the replay in flight: share its
		// outcome, whichever it is.
		r.mu.Unlock()
		select {
		case <-existing.done:
			return existing.ok
		case <-r.stopCh:
			return false
		}
	}
	wait := &replayWait{
		shard:  sh.ID,
		needed: make(map[types.NodeID]bool, len(sh.Replicas)),
		acked:  make(map[types.NodeID]bool, len(sh.Replicas)),
		done:   make(chan struct{}),
	}
	wait.covers(sh.Replicas)
	r.replays[token] = wait
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		wait.settle(true) // a failed replay releases its followers with the failure
		delete(r.replays, token)
		r.mu.Unlock()
	}()

	req := proto.AppendBatchReq{Color: target, Token: token, Sets: [][][]byte{records}, Client: r.cfg.ID}
	deadline := time.Now().Add(50 * r.cfg.RetryTimeout)
	for {
		r.ep.Broadcast(sh.Replicas, req)
		select {
		case <-wait.done:
			return wait.ok
		case <-r.stopCh:
			return false
		case <-time.After(r.cfg.RetryTimeout):
			if time.Now().After(deadline) {
				return false
			}
			// As the client's append driver does on its retry tick,
			// rebuild the barrier from the target shard's current members:
			// a replica drained out of it can no longer ack and must not
			// wedge the replay, a replica promoted into it must ack. A
			// shard removed outright fails the replay; the client's
			// retried end marker picks a shard of the new set.
			cur, err := r.topo.Shard(sh.ID)
			if err != nil {
				return false
			}
			sh = cur
			r.mu.Lock()
			clear(wait.needed)
			wait.covers(sh.Replicas)
			wait.settle(false)
			r.mu.Unlock()
		}
	}
}

// onAppendAck collects acknowledgements for replays this replica initiated
// (Alg. 2 line 16: "wait(token, sn) from all replicas in shard").
func (r *Replica) onAppendAck(from types.NodeID, m proto.AppendAck) {
	r.mu.Lock()
	wait := r.replays[m.Token]
	if wait == nil {
		r.mu.Unlock()
		return
	}
	delete(wait.needed, from)
	wait.acked[from] = true
	if len(wait.needed) == 0 {
		// Resolve the membership once more: a replica promoted into the
		// shard since the last tick is not in the barrier yet, and the
		// set would be missing on it for good. A removed shard's records
		// migrated with the members that acked.
		if cur, err := r.topo.Shard(wait.shard); err == nil {
			wait.covers(cur.Replicas)
		}
	}
	wait.settle(false)
	r.mu.Unlock()
}
