package transport

import (
	"cmp"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/types"
)

// laneMsg is the lane-class message of these tests: Key is the lane key
// (a color in the replica), T the tenant the QoS queues schedule it
// under, N the per-key (or per-tenant) send order. Proto marks a protocol
// message, which skips the tenant queues. mutMsg is the inline class no
// lane takes. A test that sends them over a Network sends their wire
// forms, tagged messages the codec frames.
type laneMsg struct {
	Key   uint64
	T     types.TenantID
	N     int
	Proto bool
}
type mutMsg struct{ N int }

// wire is the ReadReq a laneMsg travels as: ID the key, SN the order,
// Color 1 for a protocol message.
func (m laneMsg) wire() Message {
	var color types.ColorID
	if m.Proto {
		color = 1
	}
	return proto.ReadReq{ID: m.Key, Tenant: m.T, SN: types.SN(m.N), Color: color}
}

// wire is the MultiAppendAck a mutMsg travels as.
func (m mutMsg) wire() Message { return proto.MultiAppendAck{ID: uint64(m.N)} }

// laneOf reads a laneMsg, dispatched as it is or decoded from its wire
// form.
func laneOf(m Message) (laneMsg, bool) {
	switch m := m.(type) {
	case laneMsg:
		return m, true
	case proto.ReadReq:
		return laneMsg{Key: m.ID, T: m.Tenant, N: int(m.SN), Proto: m.Color == 1}, true
	}
	return laneMsg{}, false
}

func keyOf(m Message) (uint64, bool) {
	lm, ok := laneOf(m)
	return lm.Key, ok
}

func tenantOf(m Message) (types.TenantID, bool) {
	lm, ok := laneOf(m)
	return lm.T, ok && !lm.Proto
}

// laneCase is one cell of the lane matrix: shape (one shared queue vs one
// queue per pinned worker) x message class. Every lane queue is the same
// weighted-fair queue; the cell names keep the queue kinds they once
// named. A "chan" cell's lane has no TenantOf, so its messages are
// protocol messages (the sequencer's order lane): one unbounded FIFO,
// never shed. A "wfq" cell's messages are client requests in bounded
// per-tenant queues (the replica's lanes).
type laneCase struct {
	name    string
	keyed   bool
	clients bool
}

var laneMatrix = []laneCase{
	{"shared/chan", false, false},
	{"shared/wfq", false, true},
	{"keyed/chan", true, false},
	{"keyed/wfq", true, true},
}

// lanes builds a dispatcher whose only lane is the one under test, its
// tenant queues bounded at queueCap (0: the bound NewLanes gives the shape).
func (c laneCase) lanes(h Handler, cfg LaneConfig, queueCap int) *Lanes {
	cfg.Key = keyOf
	if !c.clients {
		cfg.QoS.TenantOf = nil
	} else if cfg.QoS.TenantOf == nil {
		cfg.QoS.TenantOf = tenantOf
	}
	if c.keyed {
		return &Lanes{handler: h, write: newLane(cfg, h, cfg.Workers, cmp.Or(queueCap, keyedQueueCap))}
	}
	return &Lanes{handler: h, read: newLane(cfg, h, 1, cmp.Or(queueCap, sharedQueueCap))}
}

func (c laneCase) stats(l *Lanes) LaneStats {
	read, write := l.Stats()
	if c.keyed {
		return write
	}
	return read
}

// forEachLane runs the test over the whole matrix, or one half of it.
func forEachLane(t *testing.T, keep func(laneCase) bool, run func(t *testing.T, c laneCase)) {
	for _, c := range laneMatrix {
		if keep == nil || keep(c) {
			t.Run(c.name, func(t *testing.T) { run(t, c) })
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// attach registers the dispatcher as node 1 of a zero-latency network and
// returns a second node's endpoint to send from.
func attach(t *testing.T, l *Lanes) Endpoint {
	t.Helper()
	net := NewNetwork(ZeroLink())
	t.Cleanup(net.Shutdown)
	t.Cleanup(l.Close)
	if _, err := net.RegisterWithLanes(1, l); err != nil {
		t.Fatal(err)
	}
	src, err := net.Register(2, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestLaneConcurrency proves lane messages are served concurrently in
// both shapes: with W workers and W distinct keys, W handlers must be in
// flight at once, which a single delivery loop can never produce.
func TestLaneConcurrency(t *testing.T) {
	forEachLane(t, nil, func(t *testing.T, c laneCase) {
		const workers = 4
		var inFlight atomic.Int64
		release := make(chan struct{})
		l := c.lanes(func(types.NodeID, Message) {
			inFlight.Add(1)
			<-release
		}, LaneConfig{Workers: workers}, 0)
		src := attach(t, l)
		for i := 0; i < workers; i++ {
			if err := src.Send(1, laneMsg{Key: uint64(i)}.wire()); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "every worker to hold a message", func() bool { return inFlight.Load() == workers })
		close(release)
		if s := c.stats(l); s.Enqueued != workers {
			t.Fatalf("lane enqueued = %d, want %d", s.Enqueued, workers)
		}
	})
}

// TestLaneMutationFIFO checks that inline traffic keeps per-sender FIFO
// order and that a message handed to a lane sees every earlier mutation
// already processed (reads complete late, never early).
func TestLaneMutationFIFO(t *testing.T) {
	forEachLane(t, nil, func(t *testing.T, c laneCase) {
		var mutSeen atomic.Int64
		type obs struct {
			read     bool
			mutsDone int64
			n        int
		}
		const rounds = 200
		obsCh := make(chan obs, 2*rounds)
		l := c.lanes(func(from types.NodeID, msg Message) {
			if m, ok := laneOf(msg); ok {
				obsCh <- obs{read: true, n: m.N, mutsDone: mutSeen.Load()}
			} else {
				obsCh <- obs{n: int(msg.(proto.MultiAppendAck).ID), mutsDone: mutSeen.Add(1)}
			}
		}, LaneConfig{Workers: 3}, 0)
		src := attach(t, l)
		for i := 0; i < rounds; i++ {
			if err := src.Send(1, mutMsg{N: i}.wire()); err != nil {
				t.Fatal(err)
			}
			if err := src.Send(1, laneMsg{Key: uint64(i), N: i}.wire()); err != nil {
				t.Fatal(err)
			}
		}
		nextMut := 0
		for seen := 0; seen < 2*rounds; seen++ {
			var o obs
			select {
			case o = <-obsCh:
			case <-time.After(5 * time.Second):
				t.Fatalf("timed out after %d observations", seen)
			}
			if o.read {
				// Read i was enqueued after mutation i, so mutation i must
				// already have been handled when the read ran.
				if o.mutsDone < int64(o.n+1) {
					t.Fatalf("read %d ran with only %d mutations done", o.n, o.mutsDone)
				}
			} else {
				if o.n != nextMut {
					t.Fatalf("mutation order violated: got %d, want %d", o.n, nextMut)
				}
				nextMut++
			}
		}
	})
}

// TestWriteLanePerKeyFIFO floods a keyed lane from one sender and
// verifies that every key's messages are handled in send order, whatever
// worker they land on.
func TestWriteLanePerKeyFIFO(t *testing.T) {
	forEachLane(t, func(c laneCase) bool { return c.keyed }, func(t *testing.T, c laneCase) {
		const keys = 8
		const perKey = 200
		var mu sync.Mutex
		lastSeq := make(map[uint64]int)
		violations := 0
		l := c.lanes(func(from types.NodeID, msg Message) {
			lm, _ := laneOf(msg)
			mu.Lock()
			if lm.N != lastSeq[lm.Key]+1 {
				violations++
			}
			lastSeq[lm.Key] = lm.N
			mu.Unlock()
		}, LaneConfig{Workers: 3}, 0)
		src := attach(t, l)
		for seq := 1; seq <= perKey; seq++ {
			for k := uint64(0); k < keys; k++ {
				if err := src.Send(1, laneMsg{Key: k, N: seq}.wire()); err != nil {
					t.Fatal(err)
				}
			}
		}
		waitFor(t, "the lane to drain", func() bool { return c.stats(l).Dequeued == keys*perKey })
		mu.Lock()
		v := violations
		mu.Unlock()
		if v != 0 {
			t.Fatalf("%d per-key FIFO violations", v)
		}
		s := c.stats(l)
		if s.Enqueued != keys*perKey || s.Shed != 0 {
			t.Fatalf("lane stats = %+v", s)
		}
		var perWorker uint64
		for _, n := range s.PerWorker {
			perWorker += n
		}
		if perWorker != keys*perKey {
			t.Fatalf("per-worker sum = %d", perWorker)
		}
	})
}

// TestWithLanesClassifiesBothWays exercises the dispatcher as a plain
// handler, the form TCP deployments attach: read-class, write-class and
// inline messages all reach the node's handler, Close drains both pools,
// and a message dispatched after Close (or through a dispatcher with no
// lanes) runs inline on the caller.
func TestWithLanesClassifiesBothWays(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	h := func(from types.NodeID, msg Message) {
		mu.Lock()
		defer mu.Unlock()
		switch m := msg.(type) {
		case laneMsg:
			if m.Key == 0 {
				seen["read"]++
			} else {
				seen["write"]++
			}
		default:
			seen["inline"]++
		}
	}
	count := func(class string) int {
		mu.Lock()
		defer mu.Unlock()
		return seen[class]
	}
	readKey := func(m Message) (uint64, bool) {
		lm, ok := m.(laneMsg)
		return 0, ok && lm.Key == 0
	}
	l := NewLanes(h, LaneConfig{Workers: 2, Key: readKey}, LaneConfig{Workers: 2, Key: keyOf})
	handle := l.Handler()
	for i := 1; i <= 10; i++ {
		handle(2, laneMsg{Key: 0, N: i})
		handle(2, laneMsg{Key: uint64(1 + i%3), N: i})
		handle(2, mutMsg{N: i})
	}
	l.Close()
	if count("read") != 10 || count("write") != 10 || count("inline") != 10 {
		t.Fatalf("seen = %v", seen)
	}
	read, write := l.Stats()
	if read.Enqueued != 10 || read.Dequeued != 10 {
		t.Fatalf("read stats = %+v, want 10/10", read)
	}
	if write.Enqueued != 10 || write.Dequeued != 10 {
		t.Fatalf("write stats = %+v, want 10/10", write)
	}

	// Closed lanes take nothing: the message runs inline, before handle
	// returns.
	handle(2, laneMsg{Key: 0})
	handle(2, laneMsg{Key: 1})
	if count("read") != 11 || count("write") != 11 {
		t.Fatalf("after Close, seen = %v, want the two messages handled inline", seen)
	}
	if read, write := l.Stats(); read.Enqueued != 10 || write.Enqueued != 10 {
		t.Fatalf("closed lanes counted a message: read %+v write %+v", read, write)
	}

	// Workers == 0 is a dispatcher that takes nothing.
	plain := NewLanes(h, LaneConfig{Key: readKey}, LaneConfig{Key: keyOf})
	plain.Handler()(2, laneMsg{Key: 0})
	if count("read") != 12 {
		t.Fatalf("pass-through reads = %d, want 12", count("read"))
	}
	if read, write := plain.Stats(); read.PerWorker != nil || write.PerWorker != nil {
		t.Fatalf("disabled lanes report workers: read %+v write %+v", read, write)
	}
	plain.Close()
}

// TestLaneDepthBounded hammers a lane of every shape and message class
// with a trivial handler while polling its stats: Depth (and the MaxDepth
// high-water mark) must stay within what the lane can physically hold —
// its bounded tenant queues, the messages in service, and the callers
// inside dispatch.
// Counting the enqueue after the push, or loading Enqueued before
// Dequeued, lets a fast worker get ahead and wraps the unsigned depth.
func TestLaneDepthBounded(t *testing.T) {
	forEachLane(t, nil, func(t *testing.T, c laneCase) {
		const (
			workers   = 2
			producers = 2
			queueCap  = 8
			perProd   = 30_000
		)
		// A shed costs its producer a yield, so the workers get to run and
		// most messages are accepted.
		yield := LaneQoS{TenantOf: tenantOf, Shed: func(types.NodeID, Message, types.TenantID) { runtime.Gosched() }}
		l := c.lanes(func(types.NodeID, Message) {}, LaneConfig{Workers: workers, QoS: yield}, queueCap)
		defer l.Close()
		queues := 1
		if c.keyed {
			queues = workers
		}
		bound := uint64(queues*queueCap + workers + producers)
		if !c.clients {
			// Protocol messages are never shed and never wait, so only
			// what was dispatched bounds them; the check is that Depth
			// never wraps below zero.
			bound = producers * perProd
		}

		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProd; i++ {
					l.dispatch(9, laneMsg{Key: uint64(i), N: i}, time.Time{})
				}
			}(p)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		polls, worst := 0, uint64(0)
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			s := c.stats(l)
			polls++
			worst = max(worst, s.Depth)
			if s.Depth > bound {
				t.Fatalf("poll %d: depth %d exceeds %d (enqueued %d, dequeued %d)", polls, s.Depth, bound, s.Enqueued, s.Dequeued)
			}
		}
		waitFor(t, "the lane to drain", func() bool { return c.stats(l).Depth == 0 })
		s := c.stats(l)
		if s.MaxDepth > bound {
			t.Fatalf("max depth %d exceeds %d", s.MaxDepth, bound)
		}
		if s.Enqueued+s.Shed != producers*perProd {
			t.Fatalf("enqueued %d + shed %d != %d dispatched", s.Enqueued, s.Shed, producers*perProd)
		}
		t.Logf("%d polls, worst depth %d (bound %d), %d shed", polls, worst, bound, s.Shed)
	})
}

// TestLaneCountsBeforeServing pins the order that keeps Depth from
// wrapping: a message is counted in before a worker can take it. The test
// holds the queue's lock, so a dispatch gets no further than its push,
// and the message must already be counted then. With the count after the
// push, a worker could count the message out first, and Depth would read
// 2^64-1 on /debug/lanes.
func TestLaneCountsBeforeServing(t *testing.T) {
	served := make(chan LaneStats, 1)
	var l *Lanes
	l = NewLanes(func(types.NodeID, Message) {
		read, _ := l.Stats()
		served <- read
	}, LaneConfig{Workers: 1, Key: keyOf}, LaneConfig{})
	defer l.Close()
	ln, q := l.read, l.read.queues[0]
	const n = 20
	for i := uint64(1); i <= n; i++ {
		q.mu.Lock()
		go ln.dispatch(9, laneMsg{N: int(i)}, time.Time{})
		deadline := time.Now().Add(10 * time.Second)
		for ln.enqueued.Load() != i || ln.depth.Load() != 1 {
			if time.Now().After(deadline) {
				q.mu.Unlock()
				t.Fatalf("message %d reached its push uncounted: %d enqueued, depth %d", i, ln.enqueued.Load(), ln.depth.Load())
			}
			time.Sleep(time.Millisecond)
		}
		q.mu.Unlock()
		if s := <-served; s.Depth != 1 || s.Enqueued != i {
			t.Fatalf("message %d in service: %+v, want it counted in (depth 1)", i, s)
		}
		waitFor(t, "the message to be counted out", func() bool {
			return ln.dequeued.Load() == i && ln.depth.Load() == 0
		})
	}
	if s, _ := l.Stats(); s.MaxDepth != 1 {
		t.Fatalf("final stats %+v, want max depth 1", s)
	}
}

// TestLaneCloseReleasesWorkers closes a lane while its workers are busy
// and messages are still queued: close serves what is queued, returns
// every worker, and leaves the goroutine count where it started.
func TestLaneCloseReleasesWorkers(t *testing.T) {
	forEachLane(t, nil, func(t *testing.T, c laneCase) {
		baseline := runtime.NumGoroutine()
		const workers, queued = 3, 12
		gate := make(chan struct{})
		var handled atomic.Int64
		l := c.lanes(func(types.NodeID, Message) {
			<-gate
			handled.Add(1)
		}, LaneConfig{Workers: workers}, 0)
		for i := 0; i < workers+queued; i++ {
			if !l.dispatch(9, laneMsg{Key: uint64(i), N: i}, time.Time{}) {
				t.Fatalf("dispatch %d not taken", i)
			}
		}
		closed := make(chan struct{})
		go func() { l.Close(); close(closed) }()
		// Open the gate only once close has shut the queues, so the
		// queued messages are its to serve.
		ln := l.read
		if c.keyed {
			ln = l.write
		}
		waitFor(t, "close to shut the lane", func() bool {
			ln.closeMu.RLock()
			defer ln.closeMu.RUnlock()
			return ln.closed
		})
		if l.dispatch(9, laneMsg{}, time.Time{}) {
			t.Fatal("a closing lane took a message")
		}
		close(gate)
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return")
		}
		if got := handled.Load(); got != workers+queued {
			t.Fatalf("handled %d of %d messages queued before Close", got, workers+queued)
		}
		waitFor(t, "the workers to exit", func() bool { return runtime.NumGoroutine() <= baseline })
	})
}
