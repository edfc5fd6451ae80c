package seq

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// This file holds the -race stress tests of the lock-free hot path: many
// colors ordered concurrently through the full tree (lanes, striped token
// dedup, MPSC pending queues, pipelined flush), and an epoch bump forced
// into the middle of a request flood (the packed SN word's poison
// protocol). The assertions are the ordering layer's core invariants:
// ranges never overlap, streams stay FIFO, duplicates get their original
// SN back, and no SN is ever minted under an epoch the node did not serve.

func stressSeqConfig(id types.NodeID, region types.ColorID, topo *topology.Topology) Config {
	cfg := DefaultConfig()
	cfg.ID = id
	cfg.Region = region
	cfg.Topo = topo
	cfg.BatchInterval = 100 * time.Microsecond
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.FailureTimeout = time.Second
	cfg.RetryTimeout = time.Second
	cfg.StartAsLeader = true
	return cfg
}

// stressDriver is a minimal order-requesting replica stand-in.
type stressDriver struct {
	id    types.NodeID
	ep    transport.Endpoint
	mu    sync.Mutex
	waits map[types.Token]chan proto.OrderResp
}

func newStressDriver(t *testing.T, net *transport.Network, id types.NodeID) *stressDriver {
	t.Helper()
	d := &stressDriver{id: id, waits: make(map[types.Token]chan proto.OrderResp)}
	ep, err := net.Register(id, func(from types.NodeID, msg transport.Message) {
		resp, ok := msg.(proto.OrderResp)
		if !ok {
			return
		}
		d.mu.Lock()
		ch := d.waits[resp.Token]
		delete(d.waits, resp.Token)
		d.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	})
	if err != nil {
		t.Fatalf("register driver %v: %v", id, err)
	}
	d.ep = ep
	return d
}

// request sends one OrderReq for token and waits for the response.
func (d *stressDriver) request(target types.NodeID, color types.ColorID, token types.Token, n uint32, timeout time.Duration) (proto.OrderResp, error) {
	ch := make(chan proto.OrderResp, 1)
	d.mu.Lock()
	d.waits[token] = ch
	d.mu.Unlock()
	req := proto.OrderReq{Color: color, Token: token, NRecords: n, Replicas: []types.NodeID{d.id}}
	if err := d.ep.Send(target, req); err != nil {
		return proto.OrderResp{}, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-time.After(timeout):
		d.mu.Lock()
		delete(d.waits, token)
		d.mu.Unlock()
		return proto.OrderResp{}, fmt.Errorf("order request %v timed out", token)
	}
}

// snRange is one assigned range (last-n, last].
type snRange struct {
	last types.SN
	n    uint32
}

// assertDisjoint fails if any two ranges of one color/epoch overlap.
func assertDisjoint(t *testing.T, what string, ranges []snRange) {
	t.Helper()
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].last < ranges[j].last })
	for i := 1; i < len(ranges); i++ {
		prev, cur := ranges[i-1], ranges[i]
		if uint64(cur.last)-uint64(cur.n) < uint64(prev.last) {
			t.Fatalf("%s: overlapping SN ranges: (%v-%d, %v] and (%v-%d, %v]",
				what, prev.last, prev.n, prev.last, cur.last, cur.n, cur.last)
		}
	}
}

// TestConcurrentOrderingStress hammers the 3-sequencer chain with many
// concurrent streams across all three colors — owner-path assignment at
// the leaf, single-hop aggregation at the middle, two-hop at the root —
// with deliberate duplicate retries mixed in, and checks every invariant
// the lock-free structures must uphold.
func TestConcurrentOrderingStress(t *testing.T) {
	net := transport.NewNetwork(transport.ZeroLink())
	topo := topology.New()
	for _, r := range []struct {
		color, parent types.ColorID
		id            types.NodeID
	}{{0, 0, 9000}, {1, 0, 9010}, {2, 1, 9020}} {
		if err := topo.AddRegion(r.color, r.parent, r.id, nil); err != nil {
			t.Fatal(err)
		}
	}
	tenants := map[types.ColorID]types.TenantID{0: 1, 1: 1, 2: 2}
	var seqs []*Sequencer
	for _, r := range []struct {
		color types.ColorID
		id    types.NodeID
	}{{0, 9000}, {1, 9010}, {2, 9020}} {
		cfg := stressSeqConfig(r.id, r.color, topo)
		cfg.TenantOf = tenants
		if r.id == 9020 {
			cfg.OrderWorkers = 8 // the entry leaf takes the concurrent load
		}
		s, err := New(cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, s)
	}
	defer func() {
		for _, s := range seqs {
			s.Stop()
		}
	}()
	leaf := seqs[2]
	const leafID = types.NodeID(9020)

	const goroutines = 8
	const ops = 120
	colors := []types.ColorID{0, 1, 2}

	type result struct {
		color types.ColorID
		resp  proto.OrderResp
		seq   int // per-stream send order
	}
	var resMu sync.Mutex
	results := make([]result, 0, goroutines*ops)
	sent := make([]map[types.ColorID]uint64, goroutines) // records sent per color, incl. dup retries

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		sent[g] = make(map[types.ColorID]uint64)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := newStressDriver(t, net, types.NodeID(100+g))
			fid := uint32(100 + g)
			for i := 0; i < ops; i++ {
				color := colors[i%len(colors)]
				n := uint32(i%3 + 1)
				token := types.MakeToken(fid, uint32(i+1))
				resp, err := d.request(leafID, color, token, n, 10*time.Second)
				if err != nil {
					errs <- err
					return
				}
				resMu.Lock()
				results = append(results, result{color: color, resp: resp, seq: i})
				sent[g][color] += uint64(n)
				resMu.Unlock()
				if i%6 == 5 {
					// Duplicate retry: the token cache must re-answer with
					// the ORIGINAL assignment, never a fresh range. The
					// token's assigned state is written by a racing handler
					// goroutine, so allow a couple of rounds for it to land.
					// Every attempt reaches the sequencer (in-process
					// delivery is reliable), so every attempt is counted
					// toward the tenant-accounting expectation.
					var dup proto.OrderResp
					var derr error
					for attempt := 0; attempt < 3; attempt++ {
						resMu.Lock()
						sent[g][color] += uint64(n)
						resMu.Unlock()
						dup, derr = d.request(leafID, color, token, n, 2*time.Second)
						if derr == nil {
							break
						}
					}
					if derr != nil {
						errs <- fmt.Errorf("dup retry %v: %w", token, derr)
						return
					}
					if dup.LastSN != resp.LastSN {
						errs <- fmt.Errorf("dup retry %v got SN %v, original %v", token, dup.LastSN, resp.LastSN)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Invariant 1: per color, assigned ranges are globally disjoint.
	byColor := make(map[types.ColorID][]snRange)
	for _, r := range results {
		byColor[r.color] = append(byColor[r.color], snRange{last: r.resp.LastSN, n: r.resp.NRecords})
	}
	for color, ranges := range byColor {
		if len(ranges) != goroutines*ops/len(colors) {
			t.Fatalf("color %v: %d responses, want %d", color, len(ranges), goroutines*ops/len(colors))
		}
		assertDisjoint(t, fmt.Sprintf("color %v", color), ranges)
	}

	// Invariant 2: each closed-loop stream sees strictly increasing SNs
	// (per-color FIFO through lane, pending queue, and owner).
	streams := make(map[string][]result)
	for _, r := range results {
		key := fmt.Sprintf("%d/%v", r.resp.Token>>32, r.color)
		streams[key] = append(streams[key], r)
	}
	for key, rs := range streams {
		sort.Slice(rs, func(i, j int) bool { return rs[i].seq < rs[j].seq })
		for i := 1; i < len(rs); i++ {
			if rs[i].resp.LastSN <= rs[i-1].resp.LastSN {
				t.Fatalf("stream %s: SN went backwards: %v then %v", key, rs[i-1].resp.LastSN, rs[i].resp.LastSN)
			}
		}
	}

	// Invariant 3: wait-free tenant accounting at the entry leaf matches
	// the records actually requested (duplicate retries are attributed
	// too — they are received work, dedup or not).
	wantTenant := make(map[types.TenantID]uint64)
	for g := range sent {
		for color, n := range sent[g] {
			wantTenant[tenants[color]] += n
		}
	}
	got := leaf.TenantOrdered()
	for tenant, want := range wantTenant {
		if got[tenant] != want {
			t.Errorf("tenant %v ordered = %d, want %d (full map: %v)", tenant, got[tenant], want, got)
		}
	}
}

// TestEpochBumpDuringFlood forces leadership stand-downs and epoch bumps
// into the middle of a request flood and checks the packed SN word's
// poison protocol: every response carries an epoch this node actually
// served, no SN is minted while stood down, and each epoch's ranges tile
// contiguously from counter 1 — no gaps (lost creep) and no overlaps
// (double assignment) across the transitions.
func TestEpochBumpDuringFlood(t *testing.T) {
	net := transport.NewNetwork(transport.ZeroLink())
	topo := topology.New()
	if err := topo.AddRegion(0, 0, 9000, nil); err != nil {
		t.Fatal(err)
	}
	cfg := stressSeqConfig(9000, 0, topo)
	cfg.OrderWorkers = 4
	s, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	// The collector is the "replica" every request names: it records each
	// OrderResp broadcast to it, and which epochs have answered so far.
	// The marker is the request sent after the flood; its response is the
	// last one.
	marker := types.MakeToken(999, 1)
	drained := make(chan struct{})
	var respMu sync.Mutex
	var resps []proto.OrderResp
	answered := map[uint32]bool{}
	if _, err := net.Register(100, func(from types.NodeID, msg transport.Message) {
		resp, ok := msg.(proto.OrderResp)
		if !ok {
			return
		}
		if resp.Token == marker {
			close(drained)
			return
		}
		respMu.Lock()
		resps = append(resps, resp)
		answered[resp.LastSN.Epoch()] = true
		respMu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	served := map[uint32]bool{}
	var servedMu sync.Mutex
	s.mu.Lock()
	served[uint32(s.epoch)] = true
	s.mu.Unlock()

	// Fire-and-forget flood: unique tokens, no duplicates — every response
	// must be a fresh assignment. The flood is tied to the bumper, not to a
	// request count: a fixed-size flood can be drained whole inside one
	// stood-down window (a stale drop costs ~40 ns), leaving nothing to
	// check. Each sender keeps sending until the bumper is done.
	const senders = 4
	const perSender = 1500 // at least
	bumperDone := make(chan struct{})
	var floodWG sync.WaitGroup
	var sent atomic.Uint64
	for i := 0; i < senders; i++ {
		ep, err := net.Register(types.NodeID(200+i), func(types.NodeID, transport.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		floodWG.Add(1)
		go func(i int, ep transport.Endpoint) {
			defer floodWG.Done()
			fid := uint32(200 + i)
			for c := 0; ; c++ {
				if c >= perSender {
					select {
					case <-bumperDone:
						sent.Add(uint64(c))
						return
					default:
					}
				}
				req := proto.OrderReq{
					Color:    0,
					Token:    types.MakeToken(fid, uint32(c+1)),
					NRecords: uint32(c%3 + 1),
					Replicas: []types.NodeID{100},
				}
				_ = ep.Send(9000, req)
			}
		}(i, ep)
	}

	// The bumper: poison the word (stand down), then re-serve under a
	// bumped epoch, repeatedly, while the flood is in flight. It stands
	// down only once the epoch it is leaving has answered a request, so
	// every transition happens with assignments on both sides of it.
	var bumpedFrom []uint32
	go func() {
		defer close(bumperDone)
		for k := 0; k < 8; k++ {
			s.mu.Lock()
			cur := uint32(s.epoch)
			s.mu.Unlock()
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
				respMu.Lock()
				ok := answered[cur]
				respMu.Unlock()
				if ok {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("epoch %d answered no request in 10s of flood", cur)
					return
				}
			}
			bumpedFrom = append(bumpedFrom, cur)
			s.mu.Lock()
			s.stopServingLocked()
			s.mu.Unlock()
			time.Sleep(500 * time.Microsecond)
			s.mu.Lock()
			s.setEpochLocked(s.epoch + 1)
			servedMu.Lock()
			served[uint32(s.epoch)] = true
			servedMu.Unlock()
			s.beginServingLocked()
			s.mu.Unlock()
		}
	}()

	<-bumperDone
	floodWG.Wait()
	if t.Failed() {
		return
	}
	// Drain: the final epoch is serving and one color's requests stay FIFO
	// from the network through its lane worker to the collector, so the
	// marker's response follows every response the flood will ever get.
	markerEP, err := net.Register(999, func(types.NodeID, transport.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := markerEP.Send(9000, proto.OrderReq{Color: 0, Token: marker, NRecords: 1, Replicas: []types.NodeID{100}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("the marker request sent after the flood was never answered")
	}

	respMu.Lock()
	defer respMu.Unlock()

	byEpoch := make(map[uint32][]snRange)
	for _, r := range resps {
		ep := r.LastSN.Epoch()
		if ep == 0 {
			t.Fatalf("response %v carries the poisoned epoch 0", r.LastSN)
		}
		servedMu.Lock()
		ok := served[ep]
		servedMu.Unlock()
		if !ok {
			t.Fatalf("response %v carries epoch %d, which this node never served (served: %v)", r.LastSN, ep, served)
		}
		byEpoch[ep] = append(byEpoch[ep], snRange{last: r.LastSN, n: r.NRecords})
	}

	// Per epoch, the assigned ranges must tile exactly (1..max]: every
	// fetch-add that succeeded was broadcast, the counter starts at 0 on
	// beginServing, and an epoch is served exactly once.
	for ep, ranges := range byEpoch {
		sort.Slice(ranges, func(i, j int) bool { return ranges[i].last < ranges[j].last })
		var expect uint64
		for _, r := range ranges {
			start := uint64(r.last.Counter()) - uint64(r.n)
			if start != expect {
				t.Fatalf("epoch %d: range (%d, %d] does not tile (expected to start at %d)",
					ep, start, r.last.Counter(), expect)
			}
			expect = uint64(r.last.Counter())
		}
	}
	// Every epoch the bumper left had answered, so all eight are here.
	for _, ep := range bumpedFrom {
		if len(byEpoch[ep]) == 0 {
			t.Errorf("bumped-from epoch %d has no responses", ep)
		}
	}
	t.Logf("flood: %d/%d responses across %d served epochs, stats %+v",
		len(resps), sent.Load(), len(byEpoch), s.Stats())
}
