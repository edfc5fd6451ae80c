package replica

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// TestDupTokenPersistedUncommittedAcked covers the duplicate-token ack
// path: a token already persisted on the replica (e.g. re-ingested by
// recovery, or a batch whose first OrderResp was lost) but not yet
// committed. The retrying client's AppendReq must register it in
// pending[token].clients so the eventual commit acks it — the batch is
// NOT re-persisted.
func TestDupTokenPersistedUncommittedAcked(t *testing.T) {
	h := newHarness(t, 1)
	r := h.replicas[0]
	token := types.MakeToken(7, 1)

	// Inject the persisted-uncommitted state directly into storage.
	if err := r.Store().PutBatch(0, token, [][]byte{[]byte("orphan")}); err != nil {
		t.Fatal(err)
	}

	// The client retries the append.
	h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: token, Records: [][]byte{[]byte("orphan")}, Client: 500})

	// The replica re-drives the order request instead of re-persisting...
	oreq := h.expectOrderReq(t, token)
	if r.Stats().AppendDrops != 0 {
		t.Fatalf("dup append counted as drop")
	}
	// ...and the commit acks the retrying client.
	h.grant(oreq, types.MakeSN(1, 1))
	m := h.waitClient(t, func(m transport.Message) bool {
		ack, ok := m.(proto.AppendAck)
		return ok && ack.Token == token
	})
	if ack := m.(proto.AppendAck); ack.SN != types.MakeSN(1, 1) {
		t.Fatalf("ack SN = %v", ack.SN)
	}
}

// TestDupTokenCommitRaceStillAcked races a direct storage commit (the
// sync path runs on the serialized loop, concurrent with write-lane
// appends) against the retrying client's AppendReq. Whatever the
// interleaving, the client must receive an AppendAck: either the dup
// check sees the committed SN, the post-registration re-check catches a
// commit that landed in between (the fixed window — previously the entry
// was stranded until the retry timer), or the pending entry survives and
// the sequencer's cached grant acks it.
func TestDupTokenCommitRaceStillAcked(t *testing.T) {
	h := newHarness(t, 1)
	r := h.replicas[0]
	// Answer every order request like a real sequencer would answer a dup
	// token: re-grant the cached assignment.
	var grantMu sync.Mutex
	grants := make(map[types.Token]types.SN)
	go func() {
		for req := range h.seqCh {
			grantMu.Lock()
			sn := grants[req.Token]
			grantMu.Unlock()
			h.grant(req, sn)
		}
	}()

	for i := 1; i <= 60; i++ {
		token := types.MakeToken(8, uint32(i))
		snI := types.MakeSN(1, uint32(i))
		grantMu.Lock()
		grants[token] = snI
		grantMu.Unlock()
		rec := []byte(fmt.Sprintf("r%03d", i))
		if err := r.Store().PutBatch(0, token, [][]byte{rec}); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			r.Store().Commit(token, snI)
			close(done)
		}()
		h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: token, Records: [][]byte{rec}, Client: 500})
		m := h.waitClient(t, func(m transport.Message) bool {
			ack, ok := m.(proto.AppendAck)
			return ok && ack.Token == token
		})
		if ack := m.(proto.AppendAck); ack.SN != snI {
			t.Fatalf("iter %d: ack SN = %v, want %v", i, ack.SN, snI)
		}
		<-done
	}
}

// TestWriteLanePreservesPerColorFIFO sends interleaved appends and
// commits for many colors through a replica with a small write-lane pool
// and verifies every append commits with its own SN — same-color
// messages must not be reordered (an OrderResp overtaking its AppendReq
// would be buffered as "early" and still commit, so the stronger signal
// is that ALL tokens commit and no replica state wedges).
func TestWriteLanePreservesPerColorFIFO(t *testing.T) {
	h := newHarness(t, 1)
	r := h.replicas[0]
	if r.cfg.WriteWorkers <= 0 {
		t.Fatal("harness replica has no write lane")
	}
	const colors = 8
	const perColor = 40
	next := make(map[types.ColorID]uint32)
	for i := 1; i <= perColor; i++ {
		for c := 1; c <= colors; c++ {
			color := types.ColorID(c)
			token := types.MakeToken(uint32(100+c), uint32(i))
			h.cliEP.Send(1, proto.AppendReq{Color: color, Token: token, Records: [][]byte{[]byte("x")}, Client: 500})
			next[color]++
			// Grant immediately: the OrderResp chases the AppendReq onto
			// the same color worker.
			h.seqEP.Send(1, proto.OrderResp{Token: token, LastSN: types.MakeSN(1, next[color]), NRecords: 1, Color: color})
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if r.Stats().Commits >= colors*perColor {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commits = %d, want %d", r.Stats().Commits, colors*perColor)
		}
		time.Sleep(time.Millisecond)
	}
	for c := 1; c <= colors; c++ {
		color := types.ColorID(c)
		if max := r.Store().MaxSN(color); max != types.MakeSN(1, perColor) {
			t.Fatalf("color %d maxSN = %v", c, max)
		}
	}
}

// recordingEndpoint captures what a replica sends, for tests that drive a
// replica's handlers and timer by hand.
type recordingEndpoint struct {
	mu   sync.Mutex
	sent []transport.Message
	// inSend, when set, is called from Send with the message, outside mu.
	inSend func(transport.Message)
}

func (e *recordingEndpoint) ID() types.NodeID { return 1 }
func (e *recordingEndpoint) Close() error     { return nil }
func (e *recordingEndpoint) Send(_ types.NodeID, msg transport.Message) error {
	if e.inSend != nil {
		e.inSend(msg)
	}
	e.mu.Lock()
	e.sent = append(e.sent, msg)
	e.mu.Unlock()
	return nil
}
func (e *recordingEndpoint) Broadcast(tos []types.NodeID, msg transport.Message) error {
	for _, to := range tos {
		e.Send(to, msg)
	}
	return nil
}

// orderItems flattens every order request sent so far into its items.
func (e *recordingEndpoint) orderItems() (items []proto.OrderItem, frames int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.sent {
		switch m := m.(type) {
		case proto.OrderReq:
			items = append(items, proto.OrderItem{Token: m.Token, NRecords: m.NRecords})
			frames++
		case proto.OrderReqBatch:
			items = append(items, m.Items...)
			frames++
		}
	}
	return items, frames
}

// steppedReplica is a replica over a recordingEndpoint whose timer loop is
// not running: the test calls tick with the times it chooses.
func steppedReplica(t *testing.T, edit func(*Config)) (*Replica, *recordingEndpoint) {
	t.Helper()
	topo := topology.New()
	if err := topo.AddRegion(0, 0, 900, nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddShard(1, 0, []types.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ID, cfg.Shard, cfg.Topo = 1, 1, topo
	if edit != nil {
		edit(&cfg)
	}
	st, err := buildStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	r := newReplica(cfg, st)
	ep := &recordingEndpoint{}
	r.ep = ep
	r.ready.Store(true)
	return r, ep
}

// TestIdleReplicaSendsNothing steps the timer through one second of 1 ms
// ticks (the cadence the read-hold timeout imposes on it): a replica with
// no append, sync run or join in flight has no background traffic
// (OPERATIONS.md §2.2).
func TestIdleReplicaSendsNothing(t *testing.T) {
	r, ep := steppedReplica(t, func(cfg *Config) {
		cfg.ReadHoldTimeout = time.Millisecond
		cfg.HeartbeatInterval = 100 * time.Millisecond
	})
	start := time.Now()
	for i := 1; i <= 1000; i++ {
		r.tick(start.Add(time.Duration(i) * time.Millisecond))
	}
	if len(ep.sent) != 0 {
		t.Fatalf("idle replica sent %d messages over 1000 ticks, first %T; want none", len(ep.sent), ep.sent[0])
	}
}

// TestDupAppendRedrivesOnce covers the duplicate-token branch of doAppend:
// a retried append whose token is still awaiting its SN re-sends the order
// request once, itself — the next timer tick must not send it again.
func TestDupAppendRedrivesOnce(t *testing.T) {
	r, ep := steppedReplica(t, func(cfg *Config) { cfg.RetryTimeout = time.Second })
	token := types.MakeToken(7, 1)
	req := proto.AppendReq{Color: 0, Token: token, Records: [][]byte{[]byte("x")}, Client: 500}
	r.handle(500, req)
	r.handle(501, req) // the duplicate
	r.tick(time.Now().Add(time.Millisecond))
	items, _ := ep.orderItems()
	if len(items) != 2 {
		t.Fatalf("%d order requests for one append and one duplicate, want 2", len(items))
	}
	if got := r.Stats().OReqRetries; got != 0 {
		t.Fatalf("OReqRetries = %d after a duplicate append, want 0", got)
	}
	// The retry timer still covers the token, counted from the re-drive.
	r.tick(time.Now().Add(2 * time.Second))
	if items, _ := ep.orderItems(); len(items) != 3 || r.Stats().OReqRetries != 1 {
		t.Fatalf("after RetryTimeout: %d order requests, %d retries; want 3 and 1", len(items), r.Stats().OReqRetries)
	}
}

// TestOrderCoalescerStress has K goroutines submit order requests through
// one coalescer while sends are slow enough to overlap: every request must
// reach the wire exactly once, the frames must be fewer than the requests
// (work that queued behind a send left combined), and once the submitters
// return nothing may be left behind — the sender that was running shipped
// its followers' items before it returned.
func TestOrderCoalescerStress(t *testing.T) {
	r, ep := steppedReplica(t, func(cfg *Config) { cfg.OrderCoalesce = true })
	ep.inSend = func(transport.Message) { time.Sleep(50 * time.Microsecond) }
	const submitters, each, colors = 8, 200, 3
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.sendOrderReq(types.MakeToken(uint32(g+1), uint32(i+1)), types.ColorID(i%colors), 1)
			}
		}(g)
	}
	wg.Wait()
	r.coal.mu.Lock()
	left, flushing := len(r.coal.pending), r.coal.flushing
	r.coal.mu.Unlock()
	if left != 0 || flushing {
		t.Fatalf("coalescer not drained after the last submitter returned: %d colors pending, flushing=%v", left, flushing)
	}
	items, frames := ep.orderItems()
	seen := make(map[types.Token]bool, len(items))
	for _, it := range items {
		if seen[it.Token] {
			t.Fatalf("token %v sent twice", it.Token)
		}
		seen[it.Token] = true
	}
	if len(seen) != submitters*each {
		t.Fatalf("%d distinct order requests on the wire, want %d", len(seen), submitters*each)
	}
	if frames >= len(items) {
		t.Fatalf("%d frames for %d requests: nothing was combined behind a busy sender", frames, len(items))
	}
}
