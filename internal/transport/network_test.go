package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"flexlog/internal/simclock"
	"flexlog/internal/types"
)

type sink struct {
	mu   sync.Mutex
	msgs []Message
	from []types.NodeID
	ch   chan struct{}
}

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
	if err := a.Send(2, "hello"); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)
	got := rx.snapshot()
	if got[0] != "hello" || rx.from[0] != 1 {
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
	if err := a.Send(99, "x"); !errors.Is(err, ErrUnknownNode) {
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
		if err := a.Send(2, i); err != nil {
			t.Fatal(err)
		}
	}
	rx.wait(t, count)
	for i, m := range rx.snapshot() {
		if m.(int) != i {
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
	if err := a.Broadcast([]types.NodeID{2, 3, 4}, "b"); err != nil {
		t.Fatal(err)
	}
	for _, s := range sinks {
		s.wait(t, 1)
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	n := NewNetwork(ZeroLink())
	rx := newSink()
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	n.Register(2, rx.handler)
	n.Partition(1, 2)
	if err := a.Send(2, "x"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned send: %v", err)
	}
	if dropped := n.dropped.Load(); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
	n.Heal(1, 2)
	if err := a.Send(2, "y"); err != nil {
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
	if err := a.Send(2, "x"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("send to isolated: %v", err)
	}
	n.Rejoin(2)
	if err := a.Send(2, "y"); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)
	// HealAll also clears isolations and partitions.
	n.Isolate(1)
	n.Partition(1, 2)
	n.HealAll()
	if err := a.Send(2, "z"); err != nil {
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
	if err := a.Send(2, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("send to closed: %v", err)
	}
}

func TestDeregister(t *testing.T) {
	n := NewNetwork(ZeroLink())
	a, _ := n.Register(1, func(types.NodeID, Message) {})
	n.Register(2, func(types.NodeID, Message) {})
	n.Deregister(2)
	if err := a.Send(2, "x"); !errors.Is(err, ErrUnknownNode) {
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
	a.Send(2, "x")
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
		a.Send(2, i)
	}
	rx.wait(t, count)
	el := time.Since(start)
	// Sequential (non-pipelined) delivery would take count*5ms = 100ms.
	// Pipelined delivery of a burst should take ≈ one delay.
	if el > 50*time.Millisecond {
		t.Fatalf("burst of %d took %v: delays are not pipelined", count, el)
	}
}

func TestPerKBSerializationCost(t *testing.T) {
	m := LinkModel{
		Delay:     time.Millisecond,
		PerKB:     time.Millisecond,
		SizeOfMsg: func(msg Message) int { return len(msg.(string)) },
	}
	small := m.delayFor("x")
	large := m.delayFor(string(make([]byte, 4096)))
	if large <= small {
		t.Fatalf("large message should cost more: %v vs %v", large, small)
	}
	if DatacenterLink().Delay <= 0 {
		t.Fatal("datacenter link must have positive delay")
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
				if err := ep.Send(100, i); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	rx.wait(t, senders*per)
}
