package replica

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// harness wires one shard of replicas with a fake sequencer and a fake
// client endpoint for direct protocol-level tests (the end-to-end paths
// are covered by the core package's integration suite).
type harness struct {
	stash    []transport.Message
	net      *transport.Network
	topo     *topology.Topology
	replicas []*Replica
	seqCh    chan proto.OrderReq
	cliCh    chan transport.Message
	seqEP    transport.Endpoint
	cliEP    transport.Endpoint
}

func newHarness(t *testing.T, replicas int) *harness {
	t.Helper()
	return newHarnessWith(t, replicas, New)
}

// newHarnessWith builds the harness with the given replica constructor.
func newHarnessWith(t *testing.T, replicas int, build func(Config, *transport.Network) (*Replica, error)) *harness {
	t.Helper()
	h := &harness{
		net:   transport.NewNetwork(transport.ZeroLink()),
		topo:  topology.New(),
		seqCh: make(chan proto.OrderReq, 1024),
		cliCh: make(chan transport.Message, 1024),
	}
	const seqID, cliID = 900, 500
	if err := h.topo.AddRegion(0, 0, seqID, nil); err != nil {
		t.Fatal(err)
	}
	ids := make([]types.NodeID, replicas)
	for i := range ids {
		ids[i] = types.NodeID(i + 1)
	}
	if err := h.topo.AddShard(1, 0, ids); err != nil {
		t.Fatal(err)
	}
	var err error
	h.seqEP, err = h.net.Register(seqID, func(from types.NodeID, msg transport.Message) {
		if req, ok := msg.(proto.OrderReq); ok {
			h.seqCh <- req
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h.cliEP, err = h.net.Register(cliID, func(from types.NodeID, msg transport.Message) {
		h.cliCh <- msg
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		cfg := DefaultConfig()
		cfg.ID = id
		cfg.Shard = 1
		cfg.Topo = h.topo
		cfg.ReadHoldTimeout = 5 * time.Millisecond
		cfg.HeartbeatInterval = 2 * time.Millisecond
		cfg.RetryTimeout = 25 * time.Millisecond
		r, err := build(cfg, h.net)
		if err != nil {
			t.Fatal(err)
		}
		h.replicas = append(h.replicas, r)
		t.Cleanup(r.Stop)
	}
	return h
}

// expectOrderReq waits for (deduplicated) order requests for a token.
func (h *harness) expectOrderReq(t *testing.T, token types.Token) proto.OrderReq {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case req := <-h.seqCh:
			if req.Token == token {
				return req
			}
		case <-deadline:
			t.Fatalf("no OrderReq for %v", token)
		}
	}
}

// grant broadcasts the OrderResp for a request as the sequencer would.
func (h *harness) grant(req proto.OrderReq, sn types.SN) {
	h.seqEP.Broadcast(req.Replicas, proto.OrderResp{
		Token: req.Token, LastSN: sn, NRecords: req.NRecords, Color: req.Color,
	})
}

func (h *harness) waitClient(t *testing.T, match func(transport.Message) bool) transport.Message {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-h.cliCh:
			if match(m) {
				return m
			}
		case <-deadline:
			t.Fatal("timed out waiting for client message")
		}
	}
}

func TestAppendCommitAck(t *testing.T) {
	h := newHarness(t, 3)
	token := types.MakeToken(1, 1)
	req := proto.AppendReq{Color: 0, Token: token, Records: [][]byte{[]byte("v")}, Client: 500}
	h.cliEP.Broadcast([]types.NodeID{1, 2, 3}, req)

	oreq := h.expectOrderReq(t, token)
	if oreq.NRecords != 1 || len(oreq.Replicas) != 3 {
		t.Fatalf("order req = %+v", oreq)
	}
	h.grant(oreq, types.MakeSN(1, 1))

	// All three replicas ack the client.
	acks := 0
	for acks < 3 {
		m := h.waitClient(t, func(m transport.Message) bool {
			_, ok := m.(proto.AppendAck)
			return ok
		})
		ack := m.(proto.AppendAck)
		if ack.SN != types.MakeSN(1, 1) {
			t.Fatalf("ack SN = %v", ack.SN)
		}
		acks++
	}
	// The record is committed everywhere.
	for _, r := range h.replicas {
		if got, err := r.Store().Get(0, types.MakeSN(1, 1)); err != nil || string(got) != "v" {
			t.Fatalf("replica %v store: %q, %v", r.ID(), got, err)
		}
	}
}

func TestEarlyOrderRespBuffered(t *testing.T) {
	h := newHarness(t, 1)
	token := types.MakeToken(1, 2)
	// OResp arrives BEFORE the append broadcast (race §6.1).
	h.seqEP.Send(1, proto.OrderResp{Token: token, LastSN: types.MakeSN(1, 7), NRecords: 1, Color: 0})
	time.Sleep(5 * time.Millisecond)
	h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: token, Records: [][]byte{[]byte("late")}, Client: 500})
	m := h.waitClient(t, func(m transport.Message) bool {
		ack, ok := m.(proto.AppendAck)
		return ok && ack.Token == token
	})
	if m.(proto.AppendAck).SN != types.MakeSN(1, 7) {
		t.Fatalf("ack = %+v", m)
	}
}

func TestReadFoundAndBottom(t *testing.T) {
	h := newHarness(t, 1)
	token := types.MakeToken(1, 3)
	h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: token, Records: [][]byte{[]byte("data")}, Client: 500})
	oreq := h.expectOrderReq(t, token)
	h.grant(oreq, types.MakeSN(1, 1))
	h.waitClient(t, func(m transport.Message) bool { _, ok := m.(proto.AppendAck); return ok })

	h.cliEP.Send(1, proto.ReadReq{ID: 1, Color: 0, SN: types.MakeSN(1, 1), Client: 500})
	m := h.waitClient(t, func(m transport.Message) bool {
		rr, ok := m.(proto.ReadResp)
		return ok && rr.ID == 1
	})
	rr := m.(proto.ReadResp)
	if !rr.Found || !bytes.Equal(rr.Data, []byte("data")) {
		t.Fatalf("read resp = %+v", rr)
	}
	// A read below the frontier for a missing SN is an immediate ⊥... but
	// SN 1 is the frontier; ask for a hole-free below: SN 1 exists, so ask
	// for a committed-range hole by reading SN over the frontier and
	// letting the hold expire.
	start := time.Now()
	h.cliEP.Send(1, proto.ReadReq{ID: 2, Color: 0, SN: types.MakeSN(1, 50), Client: 500})
	m = h.waitClient(t, func(m transport.Message) bool {
		rr, ok := m.(proto.ReadResp)
		return ok && rr.ID == 2
	})
	if m.(proto.ReadResp).Found {
		t.Fatal("future SN read should be ⊥")
	}
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("future read answered in %v — the hold (§6.3) did not apply", el)
	}
}

func TestHeldReadReleasedByCommit(t *testing.T) {
	h := newHarness(t, 1)
	// Read SN 1 before anything is committed: the request must be held
	// and answered as soon as the commit lands.
	h.cliEP.Send(1, proto.ReadReq{ID: 9, Color: 0, SN: types.MakeSN(1, 1), Client: 500})
	time.Sleep(time.Millisecond)
	token := types.MakeToken(1, 4)
	h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: token, Records: [][]byte{[]byte("x")}, Client: 500})
	oreq := h.expectOrderReq(t, token)
	h.grant(oreq, types.MakeSN(1, 1))
	m := h.waitClient(t, func(m transport.Message) bool {
		rr, ok := m.(proto.ReadResp)
		return ok && rr.ID == 9
	})
	if rr := m.(proto.ReadResp); !rr.Found || string(rr.Data) != "x" {
		t.Fatalf("held read resp = %+v", rr)
	}
}

func TestOrderReqRetriedAcrossSilence(t *testing.T) {
	h := newHarness(t, 1)
	token := types.MakeToken(1, 5)
	h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: token, Records: [][]byte{[]byte("r")}, Client: 500})
	first := h.expectOrderReq(t, token)
	// Do not respond: the replica must re-issue (sequencer failover path).
	second := h.expectOrderReq(t, token)
	if first.Token != second.Token {
		t.Fatal("retry changed token")
	}
	if h.replicas[0].Stats().OReqRetries == 0 {
		t.Fatal("retry not counted")
	}
	h.grant(second, types.MakeSN(1, 1))
	h.waitClient(t, func(m transport.Message) bool { _, ok := m.(proto.AppendAck); return ok })
}

func TestSubscribeReturnsLocalView(t *testing.T) {
	h := newHarness(t, 1)
	for i := uint32(1); i <= 3; i++ {
		token := types.MakeToken(2, i)
		h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: token, Records: [][]byte{{byte(i)}}, Client: 500})
		h.grant(h.expectOrderReq(t, token), types.MakeSN(1, i))
		h.waitClient(t, func(m transport.Message) bool {
			a, ok := m.(proto.AppendAck)
			return ok && a.Token == token
		})
	}
	h.cliEP.Send(1, proto.SubscribeReq{ID: 1, Color: 0, From: types.MakeSN(1, 1), Client: 500})
	m := h.waitClient(t, func(m transport.Message) bool {
		_, ok := m.(proto.SubscribeResp)
		return ok
	})
	sub := m.(proto.SubscribeResp)
	if len(sub.Records) != 2 { // From is exclusive
		t.Fatalf("subscribe returned %d records", len(sub.Records))
	}
	if sub.Records[0].SN != types.MakeSN(1, 2) {
		t.Fatalf("first record = %+v", sub.Records[0])
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeOperational: "operational",
		ModeSyncing:     "syncing",
		ModeCrashed:     "crashed",
		ModeStopped:     "stopped",
	} {
		if m.String() != want {
			t.Fatalf("mode %d = %q", m, m.String())
		}
	}
}

func TestStagedEncodingRoundTripProperty(t *testing.T) {
	f := func(target uint32, fid uint32, records [][]byte) bool {
		if len(records) == 0 {
			records = [][]byte{{}}
		}
		enc := EncodeStaged(types.ColorID(target), fid, records)
		gotTarget, gotFID, gotRecs, err := DecodeStaged(enc)
		if err != nil || gotTarget != types.ColorID(target) || gotFID != fid || len(gotRecs) != len(records) {
			return false
		}
		for i := range records {
			if !bytes.Equal(gotRecs[i], records[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeStagedRejectsGarbage(t *testing.T) {
	if _, _, _, err := DecodeStaged([]byte("not staged")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, _, err := DecodeStaged(nil); err == nil {
		t.Fatal("nil accepted")
	}
	// Truncated set.
	enc := EncodeStaged(1, 2, [][]byte{[]byte("abc")})
	if _, _, _, err := DecodeStaged(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated staged set accepted")
	}
}

func TestReplayTokenDeterministicAndDistinct(t *testing.T) {
	a := ReplayToken(types.MakeToken(1, 1))
	b := ReplayToken(types.MakeToken(1, 1))
	c := ReplayToken(types.MakeToken(1, 2))
	if a != b {
		t.Fatal("replay token not deterministic")
	}
	if a == c {
		t.Fatal("distinct staged tokens mapped to same replay token")
	}
	if a == types.MakeToken(1, 1) {
		t.Fatal("replay token equals staged token")
	}
}
