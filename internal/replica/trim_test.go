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
// silently.
func TestFailedTrimCounted(t *testing.T) {
	r, _ := steppedReplica(t, func(cfg *Config) {
		cfg.Store.SegmentSize, cfg.Store.NumSegments = 512, 2
	})
	st := r.Store()
	var err error
	for i := 1; err == nil; i++ {
		err = st.PutBatch(0, types.MakeToken(9, uint32(i)), [][]byte{make([]byte, 64)})
	}
	if !errors.Is(err, storage.ErrOutOfSpace) {
		t.Fatalf("filling PM: %v, want ErrOutOfSpace", err)
	}
	for err = nil; err == nil; { // markers may still fit in the last segment's tail
		_, _, err = st.Trim(1, types.MakeSN(1, 1))
	}
	if !errors.Is(err, storage.ErrOutOfSpace) {
		t.Fatalf("filling PM with trim markers: %v, want ErrOutOfSpace", err)
	}

	r.onTrim(500, proto.TrimReq{ID: 1, Color: 0, SN: types.MakeSN(1, 1), Client: 500})
	if got := r.Stats().TrimDrops; got != 1 {
		t.Fatalf("TrimDrops = %d after a refused TrimReq, want 1", got)
	}
	r.mu.Lock()
	r.syncRuns[7] = &syncRun{id: 7, pulls: []types.NodeID{2}}
	r.mu.Unlock()
	r.onJoinEntries(proto.JoinEntries{ID: 7, From: 2, More: true, Trimmed: map[types.ColorID]types.SN{0: types.MakeSN(1, 1)}})
	if got := r.Stats().TrimDrops; got != 2 {
		t.Fatalf("TrimDrops = %d after a refused donor trim frontier, want 2", got)
	}
}
