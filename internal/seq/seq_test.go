package seq

import (
	"sync"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// fakeReplica records order responses and auto-acks SeqInit messages.
type fakeReplica struct {
	id types.NodeID
	ep transport.Endpoint

	mu    sync.Mutex
	resps []proto.OrderResp
	inits []proto.SeqInit
}

func newFakeReplica(t *testing.T, net *transport.Network, id types.NodeID) *fakeReplica {
	t.Helper()
	r := &fakeReplica{id: id}
	ep, err := net.Register(id, func(from types.NodeID, msg transport.Message) {
		switch m := msg.(type) {
		case proto.OrderResp:
			r.mu.Lock()
			r.resps = append(r.resps, m)
			r.mu.Unlock()
		case proto.OrderRespBatch:
			r.mu.Lock()
			for _, it := range m.Items {
				r.resps = append(r.resps, proto.OrderResp{Token: it.Token, LastSN: it.LastSN, NRecords: it.NRecords, Color: m.Color})
			}
			r.mu.Unlock()
		case proto.SeqInit:
			r.mu.Lock()
			r.inits = append(r.inits, m)
			r.mu.Unlock()
			r.ep.Send(m.From, proto.SeqInitAck{Epoch: m.Epoch, From: r.id})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r.ep = ep
	return r
}

func (r *fakeReplica) responses() []proto.OrderResp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]proto.OrderResp(nil), r.resps...)
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out: %s", msg)
}

func testConfig(id types.NodeID, region types.ColorID, topo *topology.Topology) Config {
	cfg := DefaultConfig()
	cfg.ID = id
	cfg.Region = region
	cfg.Topo = topo
	cfg.BatchInterval = 0
	cfg.HeartbeatInterval = 2 * time.Millisecond
	cfg.FailureTimeout = 12 * time.Millisecond
	cfg.RetryTimeout = 30 * time.Millisecond
	cfg.StartAsLeader = true
	return cfg
}

// singleRoot spins up one root sequencer (region 0) with three fake
// replicas forming shard 1.
func singleRoot(t *testing.T) (*transport.Network, *Sequencer, []*fakeReplica) {
	t.Helper()
	net := transport.NewNetwork(transport.ZeroLink())
	topo := topology.New()
	if err := topo.AddRegion(0, 0, 100, nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddShard(1, 0, []types.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var reps []*fakeReplica
	for _, id := range []types.NodeID{1, 2, 3} {
		reps = append(reps, newFakeReplica(t, net, id))
	}
	s, err := New(testConfig(100, 0, topo), net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return net, s, reps
}

func orderReq(tokenCtr uint32, color types.ColorID, n uint32) proto.OrderReq {
	return proto.OrderReq{
		Color:    color,
		Token:    types.MakeToken(9, tokenCtr),
		NRecords: n,
		Shard:    1,
		Replicas: []types.NodeID{1, 2, 3},
	}
}

func TestRootAssignsAndBroadcasts(t *testing.T) {
	_, s, reps := singleRoot(t)
	reps[0].ep.Send(100, orderReq(1, 0, 1))
	for _, r := range reps {
		r := r
		waitUntil(t, time.Second, func() bool { return len(r.responses()) == 1 }, "OResp broadcast")
	}
	resp := reps[0].responses()[0]
	if resp.LastSN != types.MakeSN(1, 1) {
		t.Fatalf("first SN = %v", resp.LastSN)
	}
	if got := s.Stats().Assigned; got != 1 {
		t.Fatalf("assigned = %d", got)
	}
}

func TestSNsAreMonotonic(t *testing.T) {
	_, _, reps := singleRoot(t)
	const n = 50
	for i := uint32(1); i <= n; i++ {
		reps[0].ep.Send(100, orderReq(i, 0, 1))
	}
	r := reps[1]
	waitUntil(t, 2*time.Second, func() bool { return len(r.responses()) == n }, "all responses")
	seen := make(map[types.SN]bool)
	for _, resp := range r.responses() {
		if seen[resp.LastSN] {
			t.Fatalf("duplicate SN %v", resp.LastSN)
		}
		seen[resp.LastSN] = true
	}
}

func TestBatchGetsRange(t *testing.T) {
	_, _, reps := singleRoot(t)
	reps[0].ep.Send(100, orderReq(1, 0, 5))
	r := reps[0]
	waitUntil(t, time.Second, func() bool { return len(r.responses()) == 1 }, "batch response")
	resp := r.responses()[0]
	if resp.LastSN != types.MakeSN(1, 5) || resp.NRecords != 5 {
		t.Fatalf("batch resp = %+v", resp)
	}
}

// TestTokenDedupSameSN pins the duplicate-answer contract: every replica
// of a shard asks for every token, so an already-assigned token is answered
// with the SAME SN to the asking replica only — the rest of the shard got
// the assignment's broadcast and must not be sent it again.
func TestTokenDedupSameSN(t *testing.T) {
	_, s, reps := singleRoot(t)
	req := orderReq(1, 0, 1)
	reps[0].ep.Send(100, req)
	for _, r := range reps {
		r := r
		waitUntil(t, time.Second, func() bool { return len(r.responses()) == 1 }, "assignment broadcast")
	}
	// Replica 2 asks for the same token (by design, or because it missed
	// the OResp), alone and inside a batch: both get the cached SN back.
	asker := reps[1]
	asker.ep.Send(100, req)
	waitUntil(t, time.Second, func() bool { return len(asker.responses()) == 2 }, "dup answer to the sender")
	asker.ep.Send(100, proto.OrderReqBatch{Color: 0, Shard: 1, Replicas: req.Replicas,
		Items: []proto.OrderItem{{Token: req.Token, NRecords: 1}}})
	waitUntil(t, time.Second, func() bool { return len(asker.responses()) == 3 }, "batched dup answer to the sender")
	for _, resp := range asker.responses() {
		if resp.LastSN != types.MakeSN(1, 1) {
			t.Fatalf("dup answer changed the SN: %v", resp.LastSN)
		}
	}
	// A fresh token's broadcast fences the links (FIFO per destination):
	// once it arrived, any dup answer wrongly sent to the others has too.
	reps[0].ep.Send(100, orderReq(2, 0, 1))
	waitUntil(t, time.Second, func() bool { return len(asker.responses()) == 4 }, "fence broadcast")
	for _, r := range []*fakeReplica{reps[0], reps[2]} {
		r := r
		waitUntil(t, time.Second, func() bool { return len(r.responses()) >= 2 }, "fence broadcast")
		if n := len(r.responses()); n != 2 {
			t.Fatalf("replica %v got %d responses, want the two broadcasts only", r.id, n)
		}
	}
	if st := s.Stats(); st.Assigned != 2 || st.DupTokens != 2 {
		t.Fatalf("assigned = %d, dup tokens = %d; want 2 and 2", st.Assigned, st.DupTokens)
	}
}

// twoLevel builds root(0) ← leaf(1), shard 1 on leaf region 1.
func twoLevel(t *testing.T, batch time.Duration) (*transport.Network, *Sequencer, *Sequencer, []*fakeReplica) {
	t.Helper()
	net := transport.NewNetwork(transport.ZeroLink())
	topo := topology.New()
	topo.AddRegion(0, 0, 100, nil)
	topo.AddRegion(1, 0, 110, nil)
	topo.AddShard(1, 1, []types.NodeID{1, 2, 3})
	var reps []*fakeReplica
	for _, id := range []types.NodeID{1, 2, 3} {
		reps = append(reps, newFakeReplica(t, net, id))
	}
	root, err := New(testConfig(100, 0, topo), net)
	if err != nil {
		t.Fatal(err)
	}
	cfgLeaf := testConfig(110, 1, topo)
	cfgLeaf.BatchInterval = batch
	leaf, err := New(cfgLeaf, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Stop(); leaf.Stop() })
	return net, root, leaf, reps
}

func TestTreeForwardsToRoot(t *testing.T) {
	_, root, leaf, reps := twoLevel(t, 0)
	// A total-order request (color 0) entering at the leaf must be
	// assigned by the root.
	req := orderReq(1, 0, 1)
	reps[0].ep.Send(110, req)
	r := reps[2]
	waitUntil(t, time.Second, func() bool { return len(r.responses()) == 1 }, "tree order response")
	if got := root.Stats().Assigned; got != 1 {
		t.Fatalf("root assigned = %d", got)
	}
	if got := leaf.Stats().BatchesSent; got == 0 {
		t.Fatal("leaf sent no batches")
	}
	if resp := r.responses()[0]; resp.Color != 0 {
		t.Fatalf("resp color = %v", resp.Color)
	}
}

func TestLeafOwnedColorSkipsRoot(t *testing.T) {
	_, root, leaf, reps := twoLevel(t, 0)
	// FlexLog-P: appends to the leaf's own color are serialized by the
	// leaf alone (§9.1).
	reps[0].ep.Send(110, orderReq(1, 1, 1))
	r := reps[0]
	waitUntil(t, time.Second, func() bool { return len(r.responses()) == 1 }, "leaf-local response")
	if root.Stats().Assigned != 0 {
		t.Fatal("root should not be involved in leaf-colored appends")
	}
	if leaf.Stats().Assigned != 1 {
		t.Fatalf("leaf assigned = %d", leaf.Stats().Assigned)
	}
}

func TestAggregationMergesRequests(t *testing.T) {
	_, root, leaf, reps := twoLevel(t, 3*time.Millisecond)
	const n = 20
	for i := uint32(1); i <= n; i++ {
		reps[0].ep.Send(110, orderReq(i, 0, 1))
	}
	r := reps[1]
	waitUntil(t, 2*time.Second, func() bool { return len(r.responses()) == n }, "all aggregated responses")
	// With a 3ms window, far fewer upward batches than requests.
	if sent := leaf.Stats().BatchesSent; sent >= n {
		t.Fatalf("aggregation ineffective: %d batches for %d reqs", sent, n)
	}
	if root.Stats().Assigned != n {
		t.Fatalf("root assigned = %d", root.Stats().Assigned)
	}
	// All SNs distinct.
	seen := make(map[types.SN]bool)
	for _, resp := range r.responses() {
		if seen[resp.LastSN] {
			t.Fatalf("duplicate SN %v", resp.LastSN)
		}
		seen[resp.LastSN] = true
	}
}

func TestThreeLevelTree(t *testing.T) {
	net := transport.NewNetwork(transport.ZeroLink())
	topo := topology.New()
	topo.AddRegion(0, 0, 100, nil)
	topo.AddRegion(1, 0, 110, nil)
	topo.AddRegion(2, 1, 120, nil)
	topo.AddShard(1, 2, []types.NodeID{1, 2, 3})
	var reps []*fakeReplica
	for _, id := range []types.NodeID{1, 2, 3} {
		reps = append(reps, newFakeReplica(t, net, id))
	}
	root, _ := New(testConfig(100, 0, topo), net)
	mid, _ := New(testConfig(110, 1, topo), net)
	leaf, _ := New(testConfig(120, 2, topo), net)
	t.Cleanup(func() { root.Stop(); mid.Stop(); leaf.Stop() })

	// Color 0 → root assigns (via middle).
	reps[0].ep.Send(120, orderReq(1, 0, 1))
	// Color 1 → middle assigns.
	reps[0].ep.Send(120, orderReq(2, 1, 1))
	// Color 2 → leaf assigns.
	reps[0].ep.Send(120, orderReq(3, 2, 1))
	r := reps[0]
	waitUntil(t, 2*time.Second, func() bool { return len(r.responses()) == 3 }, "three-level responses")
	if root.Stats().Assigned != 1 || mid.Stats().Assigned != 1 || leaf.Stats().Assigned != 1 {
		t.Fatalf("assigned root=%d mid=%d leaf=%d",
			root.Stats().Assigned, mid.Stats().Assigned, leaf.Stats().Assigned)
	}
	colors := map[types.ColorID]bool{}
	for _, resp := range r.responses() {
		colors[resp.Color] = true
	}
	if len(colors) != 3 {
		t.Fatalf("response colors = %v", colors)
	}
}

func TestStoppedSequencerDropsRequests(t *testing.T) {
	_, s, reps := singleRoot(t)
	s.Stop()
	reps[0].ep.Send(100, orderReq(1, 0, 1))
	time.Sleep(20 * time.Millisecond)
	if len(reps[0].responses()) != 0 {
		t.Fatal("stopped sequencer answered a request")
	}
	if s.Role() != RoleStopped {
		t.Fatalf("role = %v", s.Role())
	}
}

func TestRoleStrings(t *testing.T) {
	if RoleLeader.String() != "leader" || RoleBackup.String() != "backup" || RoleStopped.String() != "stopped" {
		t.Fatal("role strings wrong")
	}
}
