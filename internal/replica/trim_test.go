package replica

import (
	"errors"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/storage"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// commitRecords drives n records through the harness shard.
func commitRecords(t *testing.T, h *harness, n int) {
	t.Helper()
	sh, _ := h.topo.Shard(1)
	for i := 1; i <= n; i++ {
		token := types.MakeToken(7, uint32(i))
		h.cliEP.Broadcast(sh.Replicas, proto.AppendReq{
			Color: 0, Token: token, Records: [][]byte{payloadOf(i)}, Client: 500,
		})
		req := h.expectOrderReq(t, token)
		h.grant(req, types.MakeSN(1, uint32(i)))
		// Wait for every replica's ack so the commit is fully applied.
		for acks := 0; acks < len(sh.Replicas); {
			m := h.waitClient(t, func(m transport.Message) bool {
				a, ok := m.(proto.AppendAck)
				return ok && a.Token == token
			})
			_ = m
			acks++
		}
	}
}

func payloadOf(i int) []byte { return []byte{byte(i), byte(i >> 8)} }

// TestTrimBarrierAcrossShard verifies the §6.2 trim rounds at the protocol
// level: all replicas trim, exchange peer acks, and each reports [head,
// tail] to the caller only after the barrier.
func TestTrimBarrierAcrossShard(t *testing.T) {
	h := newHarness(t, 3)
	commitRecords(t, h, 6)
	sh, _ := h.topo.Shard(1)

	h.cliEP.Broadcast(sh.Replicas, proto.TrimReq{ID: 77, Color: 0, SN: types.MakeSN(1, 4), Client: 500})
	// All three replicas eventually answer with the surviving bounds.
	acks := 0
	for acks < 3 {
		m := h.waitClient(t, func(m transport.Message) bool {
			ta, ok := m.(proto.TrimAck)
			return ok && ta.ID == 77
		})
		ta := m.(proto.TrimAck)
		if ta.Head != types.MakeSN(1, 5) || ta.Tail != types.MakeSN(1, 6) {
			t.Fatalf("trim ack bounds = %v..%v", ta.Head, ta.Tail)
		}
		acks++
	}
	// The records below the cut are gone on every replica.
	for _, r := range h.replicas {
		if _, err := r.Store().Get(0, types.MakeSN(1, 3)); err == nil {
			t.Fatalf("replica %v retains trimmed record", r.ID())
		}
		if _, err := r.Store().Get(0, types.MakeSN(1, 6)); err != nil {
			t.Fatalf("replica %v lost surviving record: %v", r.ID(), err)
		}
	}
}

// TestTrimBarrierWaitsForAllPeers: with one replica unreachable, no
// TrimAck may be issued (§6.2's all-to-all ack requirement blocks).
func TestTrimBarrierWaitsForAllPeers(t *testing.T) {
	h := newHarness(t, 3)
	commitRecords(t, h, 2)
	sh, _ := h.topo.Shard(1)
	// Cut replica 3 off before the trim.
	h.net.Isolate(sh.Replicas[2])
	h.cliEP.Broadcast(sh.Replicas[:2], proto.TrimReq{ID: 78, Color: 0, SN: types.MakeSN(1, 1), Client: 500})
	select {
	case <-func() chan struct{} {
		ch := make(chan struct{}, 1)
		go func() {
			h.waitClientQuiet(func(m transport.Message) bool {
				ta, ok := m.(proto.TrimAck)
				return ok && ta.ID == 78
			}, 80*time.Millisecond)
			ch <- struct{}{}
		}()
		return ch
	}():
		// waitClientQuiet returns after its own timeout; the assertion is
		// in received below.
	}
	if h.sawTrimAck(78) {
		t.Fatal("TrimAck issued without the full peer barrier")
	}
	// Healing the partition lets the barrier finish: the client retries
	// the trim to reach the missing replica.
	h.net.Rejoin(sh.Replicas[2])
	h.cliEP.Broadcast(sh.Replicas, proto.TrimReq{ID: 78, Color: 0, SN: types.MakeSN(1, 1), Client: 500})
	h.waitClient(t, func(m transport.Message) bool {
		ta, ok := m.(proto.TrimAck)
		return ok && ta.ID == 78
	})
}

// waitClientQuiet drains client messages until match or timeout, without
// failing the test.
func (h *harness) waitClientQuiet(match func(transport.Message) bool, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		select {
		case m := <-h.cliCh:
			h.stash = append(h.stash, m)
			if match(m) {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

// sawTrimAck checks the stash for a TrimAck with the given id.
func (h *harness) sawTrimAck(id uint64) bool {
	for _, m := range h.stash {
		if ta, ok := m.(proto.TrimAck); ok && ta.ID == id {
			return true
		}
	}
	return false
}

// TestFailedTrimCounted fills PM with uncommitted entries, which no
// eviction may move, until not even a trim marker fits. The store then
// refuses every trim with ErrOutOfSpace, and each refusal — a TrimReq and
// a catch-up donor's trim frontier — is counted in TrimDrops, not dropped
// silently. A sync run's pull stays open while the donor's frontier is
// refused, and completes once it applies.
func TestFailedTrimCounted(t *testing.T) {
	r, ep := steppedReplica(t, func(cfg *Config) {
		cfg.Store.SegmentSize, cfg.Store.NumSegments = 512, 2
	})
	st := r.Store()
	var err error
	batches := 0
	for ; err == nil; batches++ {
		err = st.PutBatch(0, types.MakeToken(9, uint32(batches+1)), [][]byte{make([]byte, 64)})
	}
	if !errors.Is(err, storage.ErrOutOfSpace) {
		t.Fatalf("filling PM: %v, want ErrOutOfSpace", err)
	}
	err = nil
	for i := 1; err == nil; i++ { // markers may still fit in the last segment's tail
		_, _, err = st.Trim(1, types.MakeSN(1, uint32(i)))
	}
	if !errors.Is(err, storage.ErrOutOfSpace) {
		t.Fatalf("filling PM with trim markers: %v, want ErrOutOfSpace", err)
	}

	r.onTrim(500, proto.TrimReq{ID: 1, Color: 0, SN: types.MakeSN(1, 1), Client: 500})
	if got := r.Stats().TrimDrops; got != 1 {
		t.Fatalf("TrimDrops = %d after a refused TrimReq, want 1", got)
	}
	r.mu.Lock()
	run := &syncRun{id: 7, participants: []types.NodeID{1, 2}, pulls: []types.NodeID{2}, dones: map[types.NodeID]bool{}}
	r.syncRuns[7] = run
	r.mu.Unlock()
	frontier := map[types.ColorID]types.SN{0: types.MakeSN(1, 1)}
	// A refused frontier ends the round: no next fetch, and the pull from
	// the donor stays open, last round or not, for the retry timer.
	for i, more := range []bool{true, false} {
		r.onJoinEntries(proto.JoinEntries{ID: 7, From: 2, More: more, Trimmed: frontier})
		if got := r.Stats().TrimDrops; got != uint64(i+2) {
			t.Fatalf("TrimDrops = %d after %d refused donor trim frontiers, want %d", got, i+1, i+2)
		}
		r.mu.Lock()
		pulls := len(run.pulls)
		r.mu.Unlock()
		if len(ep.sent) != 0 || pulls != 1 {
			t.Fatalf("a refused frontier (more=%v) sent %d messages and left %d pulls, want none and 1", more, len(ep.sent), pulls)
		}
	}
	// Once PM space frees (the batches commit and their oldest segment
	// moves to the cold tier), the re-driven last round applies the
	// frontier and the pull completes.
	for i := 1; i < batches; i++ {
		if err := st.Commit(types.MakeToken(9, uint32(i)), types.MakeSN(1, uint32(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.ForceEvict(); err != nil {
		t.Fatal(err)
	}
	r.onJoinEntries(proto.JoinEntries{ID: 7, From: 2, Trimmed: frontier})
	if got := st.Trimmed(0); got != frontier[0] {
		t.Fatalf("trim frontier after the retried round = %v, want %v", got, frontier[0])
	}
	r.mu.Lock()
	pulls := len(run.pulls)
	r.mu.Unlock()
	if pulls != 0 || len(ep.sent) != 1 {
		t.Fatalf("after the applied frontier: %d pulls left and %d messages sent, want 0 and the SyncDone", pulls, len(ep.sent))
	}
	if done, ok := ep.sent[0].(proto.SyncDone); !ok || done.ID != 7 {
		t.Fatalf("sent %#v, want SyncDone of run 7", ep.sent[0])
	}
}

// TestTrimOvertakenByPeerAck: a peer's ack of a trim can reach a replica
// before the client's TrimReq. The replica must still wait for every peer
// of the color's region — here the other one has not acked — and then
// answer for the trimmed color with that color's bounds.
func TestTrimOvertakenByPeerAck(t *testing.T) {
	r, ep := steppedReplicaIn(t, leafShard(t, 1, 2, 3), nil)
	token := types.MakeToken(7, 1)
	if err := r.st.PutBatch(1, token, [][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	if err := r.commit(1, token, types.MakeSN(1, 3)); err != nil {
		t.Fatal(err)
	}
	trimAcks := func() []proto.TrimAck {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		var out []proto.TrimAck
		for _, m := range ep.sent {
			if a, ok := m.(proto.TrimAck); ok {
				out = append(out, a)
			}
		}
		return out
	}
	cut := types.MakeSN(1, 1)
	r.handle(2, proto.TrimPeerAck{ID: 9, Color: 1, SN: cut, From: 2})
	r.handle(500, proto.TrimReq{ID: 9, Color: 1, SN: cut, Client: 500})
	if acks := trimAcks(); len(acks) != 0 {
		t.Fatalf("answered %+v before replica 3 acked", acks)
	}
	r.handle(3, proto.TrimPeerAck{ID: 9, Color: 1, SN: cut, From: 3})
	want := proto.TrimAck{ID: 9, Color: 1, Head: types.MakeSN(1, 2), Tail: types.MakeSN(1, 3)}
	if acks := trimAcks(); len(acks) != 1 || acks[0] != want {
		t.Fatalf("trim answers %+v, want [%+v]", acks, want)
	}
}
