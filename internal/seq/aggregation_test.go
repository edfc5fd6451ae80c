package seq

import (
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// TestAggregatedRangesAreDisjoint pushes multi-record batches through a
// two-level tree and verifies the root-assigned ranges are split without
// overlap or gap reuse (§5.2: "assigns all SNs in the range [s, s+n]").
func TestAggregatedRangesAreDisjoint(t *testing.T) {
	_, root, _, reps := twoLevel(t, 2*time.Millisecond)
	const n = 30
	sizes := make(map[types.Token]uint32)
	for i := uint32(1); i <= n; i++ {
		size := (i % 4) + 1 // batches of 1..4 records
		req := orderReq(i, 0, size)
		sizes[req.Token] = size
		reps[0].ep.Send(110, req)
	}
	r := reps[1]
	waitUntil(t, 5*time.Second, func() bool { return len(r.responses()) == n }, "all range responses")

	type span struct{ first, last uint64 }
	var spans []span
	var total uint32
	for _, resp := range r.responses() {
		size := sizes[resp.Token]
		if resp.NRecords != size {
			t.Fatalf("resp NRecords = %d, want %d", resp.NRecords, size)
		}
		last := uint64(resp.LastSN)
		spans = append(spans, span{first: last - uint64(size) + 1, last: last})
		total += size
	}
	// Overlap check.
	for i, a := range spans {
		for j, b := range spans {
			if i == j {
				continue
			}
			if a.first <= b.last && b.first <= a.last {
				t.Fatalf("ranges overlap: [%d,%d] and [%d,%d]", a.first, a.last, b.first, b.last)
			}
		}
	}
	if got := root.Stats().Assigned; got != uint64(total) {
		t.Fatalf("root assigned %d, want %d", got, total)
	}
}

// TestChildBatchResendIsDeduplicated verifies the owner's (from, batchID)
// dedup: a leaf that re-sends an aggregated batch (e.g. after a timeout)
// must get the same range back instead of a fresh one.
func TestChildBatchResendIsDeduplicated(t *testing.T) {
	net := transport.NewNetwork(transport.ZeroLink())
	topo := topology.New()
	topo.AddRegion(0, 0, 100, nil)
	topo.AddRegion(1, 0, 110, nil)
	root, err := New(testConfig(100, 0, topo), net)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Stop()

	// A bare endpoint impersonating the leaf sequencer.
	respCh := make(chan proto.AggOrderResp, 16)
	leafEP, err := net.Register(110, func(from types.NodeID, msg transport.Message) {
		if m, ok := msg.(proto.AggOrderResp); ok {
			respCh <- m
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	req := proto.AggOrderReq{Color: 0, BatchID: 7, Total: 5, From: 110}
	leafEP.Send(100, req)
	first := <-respCh
	leafEP.Send(100, req) // resend after a (simulated) timeout
	second := <-respCh
	if first.LastSN != second.LastSN || first.BatchID != 7 {
		t.Fatalf("resend changed range: %v vs %v", first.LastSN, second.LastSN)
	}
	if root.Stats().Assigned != 5 {
		t.Fatalf("root assigned %d, want 5 (dedup failed)", root.Stats().Assigned)
	}
	// A distinct batch id gets a fresh, adjacent range.
	leafEP.Send(100, proto.AggOrderReq{Color: 0, BatchID: 8, Total: 3, From: 110})
	third := <-respCh
	if third.LastSN != first.LastSN+3 {
		t.Fatalf("fresh batch range = %v, want %v", third.LastSN, first.LastSN+3)
	}
}

// TestMisroutedColorDropped: a request for a color outside the tree is
// dropped (stat counted), not assigned.
func TestMisroutedColorDropped(t *testing.T) {
	_, s, reps := singleRoot(t)
	reps[0].ep.Send(100, orderReq(1, 42, 1)) // color 42 does not exist
	waitUntil(t, 2*time.Second, func() bool { return s.Stats().DroppedStale > 0 }, "misroute dropped")
	if s.Stats().Assigned != 0 {
		t.Fatal("misrouted request was assigned")
	}
}

// TestEpochInSNsAfterManualElection: SNs issued by a new leader carry the
// new epoch in their high bits, so they compare above all old SNs even
// with a reset counter (§5.2 Safety).
func TestEpochInSNsAfterManualElection(t *testing.T) {
	net, group, reps := failoverCluster(t)
	reps[0].ep.Send(100, orderReq(1, 0, 1))
	r := reps[0]
	waitUntil(t, 2*time.Second, func() bool { return len(r.responses()) == 1 }, "old-epoch SN")
	oldSN := r.responses()[0].LastSN

	group[100].Crash()
	net.Isolate(100)
	waitUntil(t, 10*time.Second, func() bool {
		return group[102].Role() == RoleLeader && group[102].Serving()
	}, "failover")

	reps[0].ep.Send(102, orderReq(2, 0, 1))
	waitUntil(t, 2*time.Second, func() bool { return len(r.responses()) == 2 }, "new-epoch SN")
	newSN := r.responses()[1].LastSN
	if newSN.Counter() > oldSN.Counter() {
		t.Logf("note: new counter %d restarted above old %d", newSN.Counter(), oldSN.Counter())
	}
	if newSN.Epoch() <= oldSN.Epoch() {
		t.Fatalf("epoch did not advance: %v -> %v", oldSN, newSN)
	}
	if newSN <= oldSN {
		t.Fatalf("SN order violated across failover: %v <= %v", newSN, oldSN)
	}
}

// TestChildBatchDedupIsBounded: the owner's (child, batch id) → SN map
// shares the token cache's bounded FIFO, so a region owner's memory does
// not grow with every upward batch it ever served — and a resend of a
// recent batch still gets its original range back.
func TestChildBatchDedupIsBounded(t *testing.T) {
	net := transport.NewNetwork(transport.ZeroLink())
	topo := topology.New()
	topo.AddRegion(0, 0, 100, nil)
	cfg := testConfig(100, 0, topo)
	cfg.TokenCacheSize = 1024
	root, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Stop()

	const batches = 20 * 1024
	var last proto.AggOrderResp
	for id := uint64(1); id <= batches; id++ {
		resp, ok := root.handleAggItem(110, 0, id, 2)
		if !ok {
			t.Fatalf("owner did not answer batch %d", id)
		}
		last = resp
	}
	if again, ok := root.handleAggItem(110, 0, batches, 2); !ok || again.LastSN != last.LastSN {
		t.Fatalf("resend of the latest batch got %v (ok=%v), want its original %v", again.LastSN, ok, last.LastSN)
	}
	if got := root.Stats().Assigned; got != 2*batches {
		t.Fatalf("assigned %d SNs for %d two-record batches and one resend", got, batches)
	}
	held := 0
	for i := range root.aggSeen {
		held += len(root.aggSeen[i].m)
	}
	if held > cfg.TokenCacheSize {
		t.Fatalf("child-batch dedup holds %d entries after %d batches, budget %d", held, batches, cfg.TokenCacheSize)
	}
}
