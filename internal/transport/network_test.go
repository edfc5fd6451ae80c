package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/simclock"
	"flexlog/internal/types"
)

type sink struct {
	mu   sync.Mutex
	msgs []Message
	from []types.NodeID
	ch   chan struct{}
}

// seqMsg is a tagged message carrying i, which seqOf reads back: the
// in-process network carries only what the codec frames.
func seqMsg(i int) Message { return proto.MultiAppendAck{ID: uint64(i)} }

func seqOf(m Message) int { return int(m.(proto.MultiAppendAck).ID) }

// word is a tagged message carrying s.
func word(s string) Message { return proto.ReadResp{Data: []byte(s), Found: true} }

func newSink() *sink { return &sink{ch: make(chan struct{}, 1024)} }

func (s *sink) handler(from types.NodeID, msg Message) {
	s.mu.Lock()
	s.msgs = append(s.msgs, msg)
	s.from = append(s.from, from)
	s.mu.Unlock()
	s.ch <- struct{}{}
}

func (s *sink) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-s.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for %d messages (got %d)", n, i)
		}
	}
}

func (s *sink) snapshot() []Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Message(nil), s.msgs...)
}

func TestSendDelivers(t *testing.T) {
	n := NewNetwork(ZeroLink())
	rx := newSink()
	a, err := n.Register(1, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(2, rx.handler); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, word("hello")); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)
	got := rx.snapshot()
	if string(got[0].(proto.ReadResp).Data) != "hello" || rx.from[0] != 1 {
		t.Fatalf("got %v from %v", got[0], rx.from[0])
	}
	if d := n.delivered.Load(); d != 1 {
		t.Fatalf("delivered = %d", d)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	n := NewNetwork(ZeroLink())
	n.Register(1, func(types.NodeID, Message) {})
	if _, err := n.Register(1, func(types.NodeID, Message) {}); err == nil {
		t.Fatal("duplicate registration should fail")
	}
}

func TestSendToUnknown(t *testing.T) {
	n := NewNetwork(ZeroLink())
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	if err := a.Send(99, word("x")); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("send to unknown: %v", err)
	}
}

func TestFIFOPerSender(t *testing.T) {
	n := NewNetwork(ZeroLink())
	rx := newSink()
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	n.Register(2, rx.handler)
	const count = 500
	for i := 0; i < count; i++ {
		if err := a.Send(2, seqMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	rx.wait(t, count)
	for i, m := range rx.snapshot() {
		if seqOf(m) != i {
			t.Fatalf("message %d out of order: %v", i, m)
		}
	}
}

func TestBroadcast(t *testing.T) {
	n := NewNetwork(ZeroLink())
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	sinks := []*sink{newSink(), newSink(), newSink()}
	for i, s := range sinks {
		n.Register(types.NodeID(i+2), s.handler)
	}
	if err := a.Broadcast([]types.NodeID{2, 3, 4}, word("b")); err != nil {
		t.Fatal(err)
	}
	for _, s := range sinks {
		s.wait(t, 1)
	}
}

// TestBroadcastEncodesOnceDecodesPerReceiver: a broadcast queues one
// frame for every destination, and each receiver's delivery loop decodes
// its own message from it, sharing no bytes with the sender or with the
// other receivers.
func TestBroadcastEncodesOnceDecodesPerReceiver(t *testing.T) {
	n := NewNetwork(ZeroLink())
	defer n.Shutdown()
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	sinks := []*sink{newSink(), newSink(), newSink()}
	eps := make([]*inprocEndpoint, len(sinks))
	for i, s := range sinks {
		// Registered by hand, without a delivery loop, so the test can
		// look at the queued frames before anything decodes them.
		ep := &inprocEndpoint{net: n, id: types.NodeID(i + 2), lanes: NewLanes(s.handler, LaneConfig{}, LaneConfig{})}
		ep.cond = sync.NewCond(&ep.qmu)
		n.nodes[ep.id] = ep
		eps[i] = ep
	}
	data := []byte("payload")
	if err := a.Broadcast([]types.NodeID{2, 3, 4}, proto.ReadResp{ID: 7, Data: data, Found: true}); err != nil {
		t.Fatal(err)
	}
	frame := eps[0].queue[0].frame
	for _, ep := range eps[1:] {
		if f := ep.queue[0].frame; &f[0] != &frame[0] || len(f) != len(frame) {
			t.Fatal("broadcast encoded more than one frame")
		}
	}
	for _, ep := range eps {
		go ep.deliveryLoop()
	}
	var got [][]byte
	for _, s := range sinks {
		s.wait(t, 1)
		m := s.snapshot()[0].(proto.ReadResp)
		if m.ID != 7 || string(m.Data) != "payload" || s.from[0] != 1 {
			t.Fatalf("receiver got %+v from %v", m, s.from[0])
		}
		got = append(got, m.Data)
	}
	data[0] = 'X'
	got[0][1] = 'Y'
	if string(got[0]) != "pYyload" || string(got[1]) != "payload" || string(got[2]) != "payload" {
		t.Fatalf("receivers share bytes: %q %q %q", got[0], got[1], got[2])
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	n := NewNetwork(ZeroLink())
	rx := newSink()
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	n.Register(2, rx.handler)
	n.Partition(1, 2)
	if err := a.Send(2, word("x")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned send: %v", err)
	}
	if dropped := n.dropped.Load(); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
	n.Heal(1, 2)
	if err := a.Send(2, word("y")); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)
}

func TestIsolateAndRejoin(t *testing.T) {
	n := NewNetwork(ZeroLink())
	rx := newSink()
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	n.Register(2, rx.handler)
	n.Isolate(2)
	if err := a.Send(2, word("x")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("send to isolated: %v", err)
	}
	n.Rejoin(2)
	if err := a.Send(2, word("y")); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)
	// HealAll also clears isolations and partitions.
	n.Isolate(1)
	n.Partition(1, 2)
	n.HealAll()
	if err := a.Send(2, word("z")); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)
}

func TestCloseStopsDelivery(t *testing.T) {
	n := NewNetwork(ZeroLink())
	rx := newSink()
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	b, _ := n.Register(2, rx.handler)
	b.Close()
	if err := a.Send(2, word("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send to closed: %v", err)
	}
}

func TestDeregister(t *testing.T) {
	n := NewNetwork(ZeroLink())
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	n.Register(2, func(types.NodeID, Message) {})
	n.Deregister(2)
	if err := a.Send(2, word("x")); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("send after deregister: %v", err)
	}
	n.Deregister(42) // unknown deregister is a no-op
}

func TestDelayInjection(t *testing.T) {
	prev := simclock.Enable(true)
	defer simclock.Enable(prev)
	n := NewNetwork(LinkModel{Delay: 2 * time.Millisecond})
	rx := newSink()
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	n.Register(2, rx.handler)
	start := time.Now()
	a.Send(2, word("x"))
	rx.wait(t, 1)
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("delivered after %v, want >= 2ms", el)
	}
}

func TestDelayIsPipelined(t *testing.T) {
	prev := simclock.Enable(true)
	defer simclock.Enable(prev)
	n := NewNetwork(LinkModel{Delay: 5 * time.Millisecond})
	rx := newSink()
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	n.Register(2, rx.handler)
	const count = 20
	start := time.Now()
	for i := 0; i < count; i++ {
		a.Send(2, seqMsg(i))
	}
	rx.wait(t, count)
	el := time.Since(start)
	// Sequential (non-pipelined) delivery would take count*5ms = 100ms.
	// Pipelined delivery of a burst should take ≈ one delay.
	if el > 50*time.Millisecond {
		t.Fatalf("burst of %d took %v: delays are not pipelined", count, el)
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := NewNetwork(ZeroLink())
	rx := newSink()
	n.Register(100, rx.handler)
	const senders, per = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ep, err := n.Register(types.NodeID(s+1), func(types.NodeID, Message) {})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				if err := ep.Send(100, seqMsg(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	rx.wait(t, senders*per)
}
