package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"flexlog/internal/types"
)

// The tests in this file pin what the lane queue does with client
// requests — shed instead of block, DRR shares, within-tenant FIFO, and
// protocol messages served ahead of them — on both lane shapes. They use
// single-worker lanes and one key, so the shapes differ only in which
// slot of the dispatcher holds the lane.

func clientsOnly(c laneCase) bool { return c.clients }

// qosLaneHarness gates a single-worker lane so tests can fill queues
// deterministically: the first dispatched message parks its worker on
// gate; everything dispatched after that stays queued until the gate
// opens.
type qosLaneHarness struct {
	gate    chan struct{}
	started chan struct{}

	mu    sync.Mutex
	got   []laneMsg
	sheds []laneMsg
}

func newQoSLaneHarness() *qosLaneHarness {
	return &qosLaneHarness{
		gate:    make(chan struct{}),
		started: make(chan struct{}, 1024),
	}
}

func (h *qosLaneHarness) handler(_ types.NodeID, m Message) {
	h.started <- struct{}{}
	<-h.gate
	h.mu.Lock()
	h.got = append(h.got, m.(laneMsg))
	h.mu.Unlock()
}

func (h *qosLaneHarness) shed(_ types.NodeID, m Message, _ types.TenantID) {
	h.mu.Lock()
	h.sheds = append(h.sheds, m.(laneMsg))
	h.mu.Unlock()
}

func (h *qosLaneHarness) qos(weights map[types.TenantID]uint32) LaneQoS {
	return LaneQoS{TenantOf: tenantOf, Weights: weights, Shed: h.shed}
}

func (h *qosLaneHarness) served() []laneMsg {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]laneMsg(nil), h.got...)
}

func (h *qosLaneHarness) shedList() []laneMsg {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]laneMsg(nil), h.sheds...)
}

// testLaneSheds pins the full-queue semantics under QoS: a full tenant
// queue sheds (dispatch still reports true and the Shed hook fires, so
// the owner can send a typed rejection) while other tenants keep their
// headroom, nothing blocks the caller, and what was accepted is served in
// order.
func testLaneSheds(t *testing.T, c laneCase) {
	h := newQoSLaneHarness()
	l := c.lanes(h.handler, LaneConfig{Workers: 1, QueueCap: 4, QoS: h.qos(nil)})
	dispatch := func(m laneMsg) {
		t.Helper()
		if !l.dispatch(9, m, time.Time{}) {
			t.Fatalf("dispatch of %+v on an open lane not taken", m)
		}
	}

	// Park the worker, then fill tenant 2's queue to its bound.
	dispatch(laneMsg{T: 2, N: 0})
	<-h.started
	for i := 1; i <= 4; i++ {
		dispatch(laneMsg{T: 2, N: i})
	}
	if got := c.stats(l).Shed; got != 0 {
		t.Fatalf("sheds before the queue is full: %d", got)
	}
	// Queue full: the overflow message is shed, not blocked on — and
	// still reported as taken (handled, not to be run inline).
	dispatch(laneMsg{T: 2, N: 5})
	// A different tenant still has its own headroom.
	dispatch(laneMsg{T: 1, N: 0})
	if s := c.stats(l); s.Enqueued != 6 || s.Depth != 6 {
		t.Fatalf("lane stats = %+v, want the shed message uncounted: 6 enqueued, depth 6", s)
	}

	close(h.gate)
	waitFor(t, "the lane to drain", func() bool { return c.stats(l).Dequeued == 6 })

	st := c.stats(l)
	if st.Shed != 1 {
		t.Fatalf("lane shed = %d, want 1", st.Shed)
	}
	sheds := h.shedList()
	if len(sheds) != 1 || sheds[0] != (laneMsg{T: 2, N: 5}) {
		t.Fatalf("shed hook saw %v, want the overflow message of tenant 2", sheds)
	}
	// Tenant 1's request was served, and the accepted prefix of tenant
	// 2's stream was served in order.
	perTenant := map[types.TenantID][]int{}
	for _, m := range h.served() {
		perTenant[m.T] = append(perTenant[m.T], m.N)
	}
	if fmt.Sprint(perTenant) != fmt.Sprint(map[types.TenantID][]int{1: {0}, 2: {0, 1, 2, 3, 4}}) {
		t.Fatalf("service order per tenant = %v", perTenant)
	}

	l.Close()
	if l.dispatch(9, laneMsg{T: 1, N: 1}, time.Time{}) {
		t.Fatal("dispatch after close must report false")
	}
}

// TestLaneBackpressureProtocolFirst pins the one overload rule. With the
// worker parked and its tenant queue full of client requests, protocol
// messages beyond QueueCap are taken at once: not shed, not waiting for a
// worker. The next client request is shed. Once the worker moves it
// serves the protocol messages first, in their order, then the requests
// in theirs.
func TestLaneBackpressureProtocolFirst(t *testing.T) {
	forEachLane(t, clientsOnly, func(t *testing.T, c laneCase) {
		h := newQoSLaneHarness()
		l := c.lanes(h.handler, LaneConfig{Workers: 1, QueueCap: 2, QoS: h.qos(nil)})
		defer l.Close()
		dispatch := func(msgs ...laneMsg) {
			t.Helper()
			done := make(chan bool)
			go func() {
				taken := true
				for _, m := range msgs {
					taken = l.dispatch(9, m, time.Time{}) && taken
				}
				done <- taken
			}()
			select {
			case taken := <-done:
				if !taken {
					t.Fatalf("dispatch of %v on an open lane not taken", msgs)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("dispatch of %v blocked behind the parked worker", msgs)
			}
		}

		// One request parks the worker, two fill its tenant queue.
		dispatch(laneMsg{N: 0})
		<-h.started
		dispatch(laneMsg{N: 1}, laneMsg{N: 2})
		// Protocol messages beyond the cap: counted, never shed.
		dispatch(laneMsg{Proto: true, N: 10}, laneMsg{Proto: true, N: 11}, laneMsg{Proto: true, N: 12})
		if s := c.stats(l); s.Shed != 0 || s.Enqueued != 6 || s.Depth != 6 {
			t.Fatalf("lane stats = %+v, want 6 enqueued, depth 6, none shed", s)
		}
		// The next client request is over the cap: shed.
		dispatch(laneMsg{N: 3})
		if s := c.stats(l); s.Shed != 1 || s.Enqueued != 6 {
			t.Fatalf("lane stats = %+v, want the request over the cap shed", s)
		}
		if sheds := h.shedList(); len(sheds) != 1 || sheds[0] != (laneMsg{N: 3}) {
			t.Fatalf("shed hook saw %v, want the request over the cap", sheds)
		}

		close(h.gate)
		waitFor(t, "the lane to drain", func() bool { return c.stats(l).Dequeued == 6 })
		var order []int
		for _, m := range h.served() {
			order = append(order, m.N)
		}
		if fmt.Sprint(order) != fmt.Sprint([]int{0, 10, 11, 12, 1, 2}) {
			t.Fatalf("service order = %v, want the protocol messages before the queued requests", order)
		}
	})
}

// TestLaneBackpressureRead: shed-not-block on the shared shape.
func TestLaneBackpressureRead(t *testing.T) {
	testLaneSheds(t, laneCase{name: "shared/wfq", clients: true})
}

// TestLaneBackpressureWrite: shed-not-block on the keyed shape.
func TestLaneBackpressureWrite(t *testing.T) {
	testLaneSheds(t, laneCase{name: "keyed/wfq", keyed: true, clients: true})
}

// TestLaneTenantFIFOWeightedDispatch pins the DRR service order on a
// parked single-worker lane: with weights 3:1, tenant 1 is served three
// messages per round to tenant 2's one, and each tenant's own stream
// stays strictly FIFO.
func TestLaneTenantFIFOWeightedDispatch(t *testing.T) {
	forEachLane(t, clientsOnly, func(t *testing.T, c laneCase) {
		h := newQoSLaneHarness()
		l := c.lanes(h.handler, LaneConfig{
			Workers:  1,
			QueueCap: 64,
			QoS:      h.qos(map[types.TenantID]uint32{1: 3, 2: 1}),
		})
		defer l.Close()

		// Park the worker on a throwaway message so the queues below build
		// up with no concurrent draining — the DRR order is then
		// deterministic.
		if !l.dispatch(9, laneMsg{T: 1, N: -1}, time.Time{}) {
			t.Fatal("dispatch not taken")
		}
		<-h.started
		for i := 0; i < 8; i++ {
			l.dispatch(9, laneMsg{T: 1, N: i}, time.Time{})
		}
		for i := 0; i < 4; i++ {
			l.dispatch(9, laneMsg{T: 2, N: i}, time.Time{})
		}
		close(h.gate)
		waitFor(t, "the lane to drain", func() bool { return c.stats(l).Dequeued == 13 })

		got := h.served()[1:] // drop the parking message
		want := []laneMsg{
			{T: 1, N: 0}, {T: 1, N: 1}, {T: 1, N: 2}, {T: 2, N: 0},
			{T: 1, N: 3}, {T: 1, N: 4}, {T: 1, N: 5}, {T: 2, N: 1},
			{T: 1, N: 6}, {T: 1, N: 7}, {T: 2, N: 2}, {T: 2, N: 3},
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("DRR service order\n got %v\nwant %v", got, want)
		}
	})
}

// TestLaneTenantFIFOConcurrent hammers a weighted lane from concurrent
// per-tenant producers and checks the invariant that matters under load:
// every tenant's stream is served in its own send order, whatever the
// cross-tenant interleave. Run under -race this also exercises the wfq's
// producer/consumer synchronization.
func TestLaneTenantFIFOConcurrent(t *testing.T) {
	forEachLane(t, clientsOnly, func(t *testing.T, c laneCase) {
		const perTenant = 200
		tenants := []types.TenantID{1, 2, 3}
		var mu sync.Mutex
		seen := make(map[types.TenantID][]int)
		// One worker: handler invocation order then equals pop order, so
		// within-tenant FIFO is directly observable (more workers could
		// record two pops out of order even though the lane popped them
		// FIFO).
		l := c.lanes(func(_ types.NodeID, m Message) {
			lm := m.(laneMsg)
			mu.Lock()
			seen[lm.T] = append(seen[lm.T], lm.N)
			mu.Unlock()
		}, LaneConfig{
			Workers:  1,
			QueueCap: perTenant + 1,
			QoS: LaneQoS{
				TenantOf: tenantOf,
				Weights:  map[types.TenantID]uint32{1: 4, 2: 2, 3: 1},
			},
		})

		var wg sync.WaitGroup
		for _, tenant := range tenants {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perTenant; i++ {
					if !l.dispatch(9, laneMsg{T: tenant, N: i}, time.Time{}) {
						t.Errorf("tenant %d dispatch %d not taken", tenant, i)
						return
					}
				}
			}()
		}
		wg.Wait()
		l.Close() // serves what is queued

		if st := c.stats(l); st.Shed != 0 || st.Dequeued != uint64(len(tenants)*perTenant) {
			t.Fatalf("lane stats under nominal load = %+v", st)
		}
		for _, tenant := range tenants {
			order := seen[tenant]
			if len(order) != perTenant {
				t.Fatalf("tenant %d: served %d of %d", tenant, len(order), perTenant)
			}
			for i, n := range order {
				if n != i {
					t.Fatalf("tenant %d: message %d served at position %d — FIFO broken", tenant, n, i)
				}
			}
		}
	})
}
