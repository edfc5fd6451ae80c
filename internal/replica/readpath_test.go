package replica

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// TestEarlyBufferEvictsOldestNotNewest is the regression test for the
// early-OrderResp eviction: the old random map-iteration eviction could
// evict the entry that was just inserted, stalling that append until the
// sequencer's retry. Eviction must drop the oldest live entry instead.
func TestEarlyBufferEvictsOldestNotNewest(t *testing.T) {
	r := &Replica{
		cfg:   Config{EarlyBound: 3},
		early: make(map[types.Token]proto.OrderResp),
	}
	resp := func(i int) proto.OrderResp {
		return proto.OrderResp{Token: types.Token(i), LastSN: types.MakeSN(1, uint32(i))}
	}
	for i := 1; i <= 3; i++ {
		r.bufferEarly(resp(i))
	}
	// Overflow: token 1 (oldest) must go; token 4 (newest) must stay.
	r.bufferEarly(resp(4))
	if len(r.early) != 3 {
		t.Fatalf("early size = %d, want 3", len(r.early))
	}
	if _, ok := r.early[types.Token(4)]; !ok {
		t.Fatal("just-inserted early entry was evicted")
	}
	if _, ok := r.early[types.Token(1)]; ok {
		t.Fatal("oldest early entry survived eviction")
	}

	// Stale queue entries (consumed by onAppend) are skipped, not counted:
	// consuming token 2 then overflowing must evict token 3, not 4 or 5.
	delete(r.early, types.Token(2))
	r.bufferEarly(resp(5))
	r.bufferEarly(resp(6))
	for _, want := range []int{4, 5, 6} {
		if _, ok := r.early[types.Token(want)]; !ok {
			t.Fatalf("token %d missing from early buffer: %v", want, r.early)
		}
	}

	// Degenerate bound: with room for one entry the newest always wins.
	r2 := &Replica{cfg: Config{EarlyBound: 1}, early: make(map[types.Token]proto.OrderResp)}
	for i := 10; i < 20; i++ {
		r2.bufferEarly(resp(i))
		if _, ok := r2.early[types.Token(i)]; !ok {
			t.Fatalf("bound=1: just-inserted token %d evicted", i)
		}
		if len(r2.early) != 1 {
			t.Fatalf("bound=1: early size = %d", len(r2.early))
		}
	}
}

// TestEarlyBufferCompactsStaleQueue checks that the insertion-order queue
// does not grow without bound when onAppend keeps consuming entries (the
// map shrinks but the queue only grows until compaction).
func TestEarlyBufferCompactsStaleQueue(t *testing.T) {
	r := &Replica{cfg: Config{EarlyBound: 1 << 20}, early: make(map[types.Token]proto.OrderResp)}
	for i := 0; i < 10_000; i++ {
		tok := types.Token(i)
		r.bufferEarly(proto.OrderResp{Token: tok, LastSN: types.MakeSN(1, uint32(i))})
		delete(r.early, tok) // as onAppend does when the AppendReq arrives
	}
	if len(r.earlyOrder) > 1024 {
		t.Fatalf("earlyOrder grew to %d entries with an empty map", len(r.earlyOrder))
	}
}

// TestSubscribeErrorSendsEmptyResp: a failed storage scan must still
// answer the subscriber (an empty view, like a lagging replica) instead
// of leaving it to time out.
func TestSubscribeErrorSendsEmptyResp(t *testing.T) {
	h := newHarness(t, 1)
	token := types.MakeToken(1, 1)
	h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: token, Records: [][]byte{[]byte("v")}, Client: 500})
	h.grant(h.expectOrderReq(t, token), types.MakeSN(1, 1))
	h.waitClient(t, func(m transport.Message) bool {
		_, ok := m.(proto.AppendAck)
		return ok
	})

	// Power-fail the devices (not the replica): the scan's record read fails.
	h.replicas[0].Store().Crash()
	h.cliEP.Send(1, proto.SubscribeReq{ID: 77, Color: 0})
	m := h.waitClient(t, func(m transport.Message) bool {
		sr, ok := m.(proto.SubscribeResp)
		return ok && sr.ID == 77
	})
	if sr := m.(proto.SubscribeResp); len(sr.Records) != 0 {
		t.Fatalf("subscribe over crashed storage returned %d records", len(sr.Records))
	}
}

// TestConcurrentReadsServedOnLane drives many parallel reads through a
// replica with lane workers enabled and checks results stay correct while
// the lane (not the delivery loop) serves them.
func TestConcurrentReadsServedOnLane(t *testing.T) {
	h := newHarness(t, 1)
	const n = 64
	for i := 1; i <= n; i++ {
		tok := types.MakeToken(1, uint32(i))
		h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: tok, Records: [][]byte{[]byte(fmt.Sprintf("v%d", i))}, Client: 500})
		h.grant(h.expectOrderReq(t, tok), types.MakeSN(1, uint32(i)))
		h.waitClient(t, func(m transport.Message) bool {
			ack, ok := m.(proto.AppendAck)
			return ok && ack.Token == tok
		})
	}

	var wg sync.WaitGroup
	errCh := make(chan error, n)
	resps := make(chan proto.ReadResp, n)
	done := make(chan struct{})
	go func() {
		seen := 0
		for {
			select {
			case m := <-h.cliCh:
				if rr, ok := m.(proto.ReadResp); ok {
					resps <- rr
					seen++
					if seen == n {
						close(done)
						return
					}
				}
			case <-time.After(5 * time.Second):
				close(done)
				return
			}
		}
	}()
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := h.cliEP.Send(1, proto.ReadReq{ID: uint64(i), Color: 0, SN: types.MakeSN(1, uint32(i))}); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	<-done
	close(resps)
	got := 0
	for rr := range resps {
		if !rr.Found {
			t.Fatalf("read %d not found", rr.ID)
		}
		want := fmt.Sprintf("v%d", rr.ID)
		if string(rr.Data) != want {
			t.Fatalf("read %d returned %q, want %q", rr.ID, rr.Data, want)
		}
		got++
	}
	if got != n {
		t.Fatalf("got %d read responses, want %d", got, n)
	}
	if ls, _ := h.replicas[0].LaneStats(); ls.Enqueued < n {
		t.Fatalf("lane stats = %+v, want >= %d enqueued", ls, n)
	}
}

// TestHeldReadWokenBySatisfyingCommitOnly checks the striped registry
// wakes a parked read when its SN commits, and that commits of other
// colors do not release it early.
func TestHeldReadWokenBySatisfyingCommitOnly(t *testing.T) {
	h := newHarness(t, 1)
	r := h.replicas[0]

	// Park a read above the frontier of color 0.
	sn := types.MakeSN(1, 5)
	h.cliEP.Send(1, proto.ReadReq{ID: 9, Color: 0, SN: sn})
	deadline := time.Now().Add(2 * time.Second)
	for r.HeldReads() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("read was never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// A commit on another color must not wake it.
	tok2 := types.MakeToken(2, 1)
	h.cliEP.Send(1, proto.AppendReq{Color: 7, Token: tok2, Records: [][]byte{[]byte("other")}, Client: 500})
	h.grant(h.expectOrderReq(t, tok2), types.MakeSN(1, 9))
	h.waitClient(t, func(m transport.Message) bool {
		ack, ok := m.(proto.AppendAck)
		return ok && ack.Token == tok2
	})
	if r.HeldReads() == 0 {
		t.Fatal("held read released by a commit of a different color")
	}

	// The satisfying commit wakes it with the data.
	tok := types.MakeToken(1, 1)
	h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: tok, Records: [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}, Client: 500})
	h.grant(h.expectOrderReq(t, tok), sn)
	m := h.waitClient(t, func(m transport.Message) bool {
		rr, ok := m.(proto.ReadResp)
		return ok && rr.ID == 9
	})
	rr := m.(proto.ReadResp)
	if !rr.Found || string(rr.Data) != "e" {
		t.Fatalf("woken read = %+v, want found data %q", rr, "e")
	}
	st := r.Stats()
	if st.HeldWakeups == 0 {
		t.Fatalf("stats.HeldWakeups = 0 after wakeup; stats = %+v", st)
	}
}

// TestSameDispatchOnBothFabrics builds one replica on the in-process
// network and one over a plain handler (the form a TCP endpoint takes):
// both run the same dispatcher, so a read and an append ride their lanes
// and show up in LaneSnapshots either way.
func TestSameDispatchOnBothFabrics(t *testing.T) {
	builds := map[string]func(Config, *transport.Network) (*Replica, error){
		"New": New,
		"NewWithEndpoint": func(cfg Config, net *transport.Network) (*Replica, error) {
			return NewWithEndpoint(cfg, func(h transport.Handler) (transport.Endpoint, error) {
				return net.Register(cfg.ID, h)
			})
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			h := newHarnessWith(t, 1, build)
			tok, sn := types.MakeToken(1, 1), types.MakeSN(1, 1)
			h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: tok, Records: [][]byte{[]byte("v")}, Client: 500})
			h.grant(h.expectOrderReq(t, tok), sn)
			h.waitClient(t, func(m transport.Message) bool {
				ack, ok := m.(proto.AppendAck)
				return ok && ack.Token == tok
			})
			h.cliEP.Send(1, proto.ReadReq{ID: 7, Color: 0, SN: sn})
			h.waitClient(t, func(m transport.Message) bool {
				rr, ok := m.(proto.ReadResp)
				return ok && rr.ID == 7 && rr.Found
			})
			rows := h.replicas[0].LaneSnapshots()
			if len(rows) != 2 || rows[0].Lane != "read" || rows[1].Lane != "write" {
				t.Fatalf("lane rows = %+v, want read then write", rows)
			}
			if rows[0].Enqueued < 1 || rows[1].Enqueued < 2 {
				t.Fatalf("lane rows = %+v, want the read on the read lane and the append and its commit on the write lane", rows)
			}
		})
	}
}
