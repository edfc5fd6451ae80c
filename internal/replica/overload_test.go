package replica

import (
	"net"
	"sync"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/qos"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// writeQueueCap is the write lane's per-worker default QueueCap
// (transport.NewLanes), which the replica leaves unset.
const writeQueueCap = 1024

// tcpOverloadRig is replica 1 of shard 1 over loopback TCP, beside a
// fake sequencer (900) and a fake client (500) on their own endpoints.
type tcpOverloadRig struct {
	r        *Replica
	seq, cli transport.Endpoint
	orders   chan types.Token // tokens of the order requests the sequencer got
	toClient chan transport.Message
}

// newTCPOverloadRig builds the rig. persisted becomes the replica's hook
// before its endpoint exists, so no message runs without it.
func newTCPOverloadRig(t *testing.T, tenants []qos.TenantConfig, persisted func(*Replica, types.Token)) *tcpOverloadRig {
	t.Helper()
	ids := []types.NodeID{1, 900, 500}
	addrs := make(map[types.NodeID]string, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[id] = ln.Addr().String()
		ln.Close()
	}
	book := transport.NewAddressBook(addrs)
	topo := topology.New()
	if err := topo.AddRegion(0, 0, 900, nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddShard(1, 0, []types.NodeID{1}); err != nil {
		t.Fatal(err)
	}

	// Room for every order request and client reply the test causes (about
	// writeQueueCap of each), so a fake node never stalls its reader.
	rig := &tcpOverloadRig{
		orders:   make(chan types.Token, 4*writeQueueCap),
		toClient: make(chan transport.Message, 4*writeQueueCap),
	}
	var err error
	rig.seq, err = transport.ListenTCP(900, book, func(_ types.NodeID, msg transport.Message) {
		switch m := msg.(type) {
		case proto.OrderReq:
			rig.orders <- m.Token
		case proto.OrderReqBatch:
			for _, it := range m.Items {
				rig.orders <- it.Token
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.seq.Close() })
	rig.cli, err = transport.ListenTCP(500, book, func(_ types.NodeID, msg transport.Message) {
		rig.toClient <- msg
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.cli.Close() })

	cfg := DefaultConfig()
	cfg.ID, cfg.Shard, cfg.Topo = 1, 1, topo
	cfg.WriteWorkers = 2 // colors 0 and 1 on different workers
	cfg.RetryTimeout = time.Hour
	cfg.Tenants = tenants
	st, err := buildStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := newReplica(cfg, st)
	r.persisted = func(tok types.Token) { persisted(r, tok) }
	ep, err := transport.ListenTCP(1, book, r.lanes.Handler())
	if err != nil {
		r.lanes.Close()
		st.Close()
		t.Fatal(err)
	}
	r.ep = ep
	r.ready.Store(true)
	r.start()
	rig.r = r
	t.Cleanup(func() {
		r.Stop()
		ep.Close()
		st.Close()
	})
	return rig
}

func (rig *tcpOverloadRig) append(t *testing.T, color types.ColorID, token types.Token) {
	t.Helper()
	req := proto.AppendBatchReq{Color: color, Token: token, Sets: [][][]byte{{[]byte("x")}}, Client: 500}
	if err := rig.cli.Send(1, req); err != nil {
		t.Fatal(err)
	}
}

func (rig *tcpOverloadRig) grant(t *testing.T, color types.ColorID, token types.Token) {
	t.Helper()
	resp := proto.OrderResp{Token: token, LastSN: types.MakeSN(1, 1), NRecords: 1, Color: color}
	if err := rig.seq.Send(1, resp); err != nil {
		t.Fatal(err)
	}
}

// expectClient waits for the client message match accepts; what tells
// the failure is the caller's.
func (rig *tcpOverloadRig) expectClient(t *testing.T, what string, match func(transport.Message) bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case m := <-rig.toClient:
			if match(m) {
				return
			}
		case <-deadline:
			t.Fatalf("timed out: %s", what)
		}
	}
}

func ackOf(token types.Token) func(transport.Message) bool {
	return func(m transport.Message) bool {
		ack, ok := m.(proto.AppendAck)
		return ok && ack.Token == token
	}
}

// TestOrderRespNeverWaitsBehindClientsOverTCP parks a color's write
// worker and fills its queue with client appends, then has the sequencer
// send that color's OrderResp and, on the same connection, another
// color's. With or without tenants declared:
//   - the second OrderResp commits while the worker is parked: the
//     first one blocked no TCP reader (without tenants the reader used to
//     wait in dispatch for a free slot);
//   - the first OrderResp is not shed, and the worker serves it before the
//     queued appends, so its token commits without a RetryTimeout (with
//     tenants it used to be shed under the default tenant);
//   - the one append beyond QueueCap is answered with Reject(overloaded)
//     and is the lane's only shed.
func TestOrderRespNeverWaitsBehindClientsOverTCP(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tenants []qos.TenantConfig
	}{
		{"no_tenants", nil},
		{"tenants", []qos.TenantConfig{{ID: 7, Weight: 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) { testOrderRespNeverWaits(t, tc.tenants) })
	}
}

func testOrderRespNeverWaits(t *testing.T, tenants []qos.TenantConfig) {
	parkTok, firstQueued := types.MakeToken(5, 0), types.MakeToken(5, 1)
	otherTok, overTok := types.MakeToken(6, 0), types.MakeToken(5, writeQueueCap+1)
	parked, gate := make(chan struct{}), make(chan struct{})
	var openGate sync.Once
	// committedFirst reports, when the first queued append persists,
	// whether the parked append's token had committed by then.
	committedFirst := make(chan bool, 1)
	rig := newTCPOverloadRig(t, tenants, func(r *Replica, tok types.Token) {
		switch tok {
		case parkTok:
			close(parked)
			<-gate
		case firstQueued:
			sn, _ := r.st.TokenSN(parkTok)
			committedFirst <- sn.Valid()
		}
	})
	t.Cleanup(func() { openGate.Do(func() { close(gate) }) })

	// Color 1's append waits for its SN on the other worker.
	rig.append(t, 1, otherTok)
	for tok := range rig.orders {
		if tok == otherTok {
			break
		}
	}
	// Park color 0's worker on an append, then fill its queue.
	rig.append(t, 0, parkTok)
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the parking append never persisted")
	}
	for i := 1; i <= writeQueueCap; i++ {
		rig.append(t, 0, types.MakeToken(5, uint32(i)))
	}
	waitUntil(t, "the write lane to take every append", func() bool {
		_, write := rig.r.LaneStats()
		return write.Enqueued == writeQueueCap+2
	})

	rig.grant(t, 0, parkTok)
	rig.grant(t, 1, otherTok)
	rig.expectClient(t, "the OrderResp behind the full queue blocked the next one on its connection", ackOf(otherTok))

	rig.append(t, 0, overTok)
	rig.expectClient(t, "no Reject(overloaded) for the append beyond QueueCap", func(m transport.Message) bool {
		rej, ok := m.(proto.Reject)
		return ok && rej.Token == overTok && rej.Code == proto.RejectOverloaded
	})

	openGate.Do(func() { close(gate) })
	select {
	case ok := <-committedFirst:
		if !ok {
			t.Fatal("the worker served the queued appends before the OrderResp")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the queued appends were never served")
	}
	rig.expectClient(t, "the parked append's token never committed (its OrderResp was lost)", ackOf(parkTok))
	if _, write := rig.r.LaneStats(); write.Shed != 1 {
		t.Fatalf("write lane shed %d messages, want only the append beyond QueueCap", write.Shed)
	}
	for _, ts := range rig.r.TenantStats() {
		if ts.Tenant == types.DefaultTenant && ts.Shed != 1 {
			t.Fatalf("default tenant shed = %d, want 1", ts.Shed)
		}
	}
}

// waitUntil polls cond for up to 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
