package paxos

import (
	"errors"
	"sync"
	"testing"
	"time"

	"flexlog/internal/transport"
	"flexlog/internal/types"
)

func newQuorum(t *testing.T, n int) (*transport.Network, []types.NodeID) {
	t.Helper()
	net := transport.NewNetwork(transport.ZeroLink())
	ids, _, err := AcceptorSet(net, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	return net, ids
}

func TestBallotComposition(t *testing.T) {
	b := MakeBallot(7, 42)
	if b.Round() != 7 || b.Proposer() != 42 {
		t.Fatalf("ballot parts = %d, %v", b.Round(), b.Proposer())
	}
	if MakeBallot(2, 1) <= MakeBallot(1, 99) {
		t.Fatal("higher round must dominate")
	}
	if MakeBallot(1, 2) <= MakeBallot(1, 1) {
		t.Fatal("proposer id must break ties")
	}
}

func TestSingleProposerDecides(t *testing.T) {
	net, ids := newQuorum(t, 3)
	p, err := NewProposer(ProposerConfig{ID: 100, Acceptors: ids}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	v := Value{N: 5, ReqID: 1, From: 100}
	got, err := p.ProposeSlot(0, v)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("decided %+v, want %+v", got, v)
	}
	st := p.Stats()
	if st.Decided != 1 || st.Preemptions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConsensusIsStable(t *testing.T) {
	// Once a value is chosen for a slot, any later proposal for that slot
	// must decide the SAME value (the core Paxos safety property).
	net, ids := newQuorum(t, 3)
	p1, _ := NewProposer(ProposerConfig{ID: 100, Acceptors: ids}, net)
	defer p1.Stop()
	p2, _ := NewProposer(ProposerConfig{ID: 101, Acceptors: ids}, net)
	defer p2.Stop()

	v1 := Value{N: 1, ReqID: 1, From: 100}
	got1, err := p1.ProposeSlot(0, v1)
	if err != nil {
		t.Fatal(err)
	}
	v2 := Value{N: 2, ReqID: 2, From: 101}
	got2, err := p2.ProposeSlot(0, v2)
	if err != nil {
		t.Fatal(err)
	}
	if got1 != got2 {
		t.Fatalf("slot 0 decided twice: %+v vs %+v", got1, got2)
	}
	if got2 != v1 {
		t.Fatalf("second proposer must adopt the chosen value, got %+v", got2)
	}
	if p2.Stats().StolenSlots != 1 {
		t.Fatalf("p2 stats = %+v", p2.Stats())
	}
}

func TestSkipPhase1LeaderMode(t *testing.T) {
	net, ids := newQuorum(t, 3)
	p, _ := NewProposer(ProposerConfig{ID: 100, Acceptors: ids, SkipPhase1: true}, net)
	defer p.Stop()
	for slot := uint64(0); slot < 10; slot++ {
		if _, err := p.ProposeSlot(slot, Value{N: 1, ReqID: slot + 1, From: 100}); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	// Phase 1 skipped: acceptors saw no Prepares.
	// (Indirect check: proposer made exactly one proposal per slot.)
	if st := p.Stats(); st.Proposals != 10 || st.Decided != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQuorumLossBlocks(t *testing.T) {
	net, ids := newQuorum(t, 3)
	p, _ := NewProposer(ProposerConfig{
		ID: 100, Acceptors: ids,
		PhaseTimeout: 20 * time.Millisecond, MaxAttempts: 3,
	}, net)
	defer p.Stop()
	// Partition two of three acceptors away: no majority can form.
	net.Partition(100, ids[0])
	net.Partition(100, ids[1])
	if _, err := p.ProposeSlot(0, Value{N: 1, ReqID: 1, From: 100}); err == nil {
		t.Fatal("proposal without a quorum should fail")
	}
}

func TestCounterSequentialRanges(t *testing.T) {
	net, ids := newQuorum(t, 3)
	c, err := NewCounter(ProposerConfig{ID: 100, Acceptors: ids, SkipPhase1: true}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var last uint64
	for i := 0; i < 20; i++ {
		got, err := c.Next(3)
		if err != nil {
			t.Fatal(err)
		}
		if got != last+3 {
			t.Fatalf("range end = %d, want %d", got, last+3)
		}
		last = got
	}
}

func TestCounterConcurrentClientsDistinctRanges(t *testing.T) {
	net, ids := newQuorum(t, 3)
	c, _ := NewCounter(ProposerConfig{ID: 100, Acceptors: ids, SkipPhase1: true}, net)
	defer c.Stop()
	const workers, per = 4, 20
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				end, err := c.Next(2)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for sn := end - 1; sn <= end; sn++ {
					if seen[sn] {
						t.Errorf("sequence number %d assigned twice", sn)
					}
					seen[sn] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*per*2 {
		t.Fatalf("assigned %d SNs, want %d", len(seen), workers*per*2)
	}
}

// heldAcceptorSet is AcceptorSet with a barrier after phase 1 of slot 0:
// each acceptor holds back the Accepts of slot 0 until it has seen a
// Prepare of that slot from every proposer, then handles them. Neither
// proposer can then finish slot 0 before the other has prepared it.
func heldAcceptorSet(t *testing.T, net *transport.Network, proposers ...types.NodeID) []types.NodeID {
	t.Helper()
	ids := make([]types.NodeID, 3)
	for i := range ids {
		ids[i] = types.NodeID(1 + i)
		a := &Acceptor{id: ids[i], slots: make(map[uint64]*slotState)}
		prepared := make(map[types.NodeID]bool)
		var held []transport.Message
		var heldFrom []types.NodeID
		// The network runs each node's handler on one delivery loop, so
		// the barrier's state needs no lock.
		ep, err := net.Register(ids[i], func(from types.NodeID, msg transport.Message) {
			switch m := msg.(type) {
			case Prepare:
				if m.Slot == 0 {
					prepared[from] = true
				}
			case Accept:
				if m.Slot == 0 && len(prepared) < len(proposers) {
					held, heldFrom = append(held, m), append(heldFrom, from)
					return
				}
			}
			a.handle(from, msg)
			if len(prepared) == len(proposers) {
				for j, h := range held {
					a.handle(heldFrom[j], h)
				}
				held, heldFrom = nil, nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		a.ep = ep
	}
	return ids
}

// TestMultiProposerPreemption demonstrates the §3.3 observation: classic
// multi-proposer Paxos makes little progress under contention because
// proposers keep preempting each other's ballots. The acceptors hold
// both proposers at a barrier after phase 1 of the first slot, so the
// contention is certain: the lower ballot's Accept meets the other's
// higher promise (or a Prepare meets it first).
func TestMultiProposerPreemption(t *testing.T) {
	net := transport.NewNetwork(transport.ZeroLink())
	ids := heldAcceptorSet(t, net, 100, 101)
	mk := func(id types.NodeID) *Counter {
		c, err := NewCounter(ProposerConfig{
			ID: id, Acceptors: ids,
			PhaseTimeout: 5 * time.Millisecond,
			MaxAttempts:  50,
		}, net)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := mk(100), mk(101)
	defer c1.Stop()
	defer c2.Stop()

	var wg sync.WaitGroup
	run := func(c *Counter) {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := c.Next(1); err != nil {
				if errors.Is(err, ErrStopped) {
					return
				}
				// Livelock bound hit: acceptable for this experiment.
				return
			}
		}
	}
	wg.Add(2)
	go run(c1)
	go run(c2)
	wg.Wait()

	pre := c1.Stats().Preemptions + c2.Stats().Preemptions
	if pre == 0 {
		t.Fatal("competing proposers never preempted each other; contention not exercised")
	}
	t.Logf("preemptions under dueling proposers: %d (decided %d+%d)",
		pre, c1.Stats().Decided, c2.Stats().Decided)
}

func TestStoppedProposerFails(t *testing.T) {
	net, ids := newQuorum(t, 3)
	p, _ := NewProposer(ProposerConfig{ID: 100, Acceptors: ids}, net)
	p.Stop()
	if _, err := p.ProposeSlot(0, Value{N: 1}); !errors.Is(err, ErrStopped) {
		t.Fatalf("propose after stop: %v", err)
	}
}

func TestAcceptorStats(t *testing.T) {
	net, ids := newQuorum(t, 1)
	p, _ := NewProposer(ProposerConfig{ID: 100, Acceptors: ids}, net)
	defer p.Stop()
	if _, err := p.ProposeSlot(0, Value{N: 1, ReqID: 1, From: 100}); err != nil {
		t.Fatal(err)
	}
	// Reach into the network indirectly: re-create an acceptor handle is
	// not possible, so assert via a fresh acceptor set instead.
	net2 := transport.NewNetwork(transport.ZeroLink())
	_, accs, _ := AcceptorSet(net2, 1, 1)
	p2, _ := NewProposer(ProposerConfig{ID: 100, Acceptors: []types.NodeID{1}}, net2)
	defer p2.Stop()
	p2.ProposeSlot(0, Value{N: 1, ReqID: 1, From: 100})
	st := accs[0].Stats()
	if st.Promises != 1 || st.Accepteds != 1 {
		t.Fatalf("acceptor stats = %+v", st)
	}
}

// TestPipelinedCounterConflictDetected: pipelining is only safe with a
// unique primary; when a competitor steals a pipelined slot, Next must
// report ErrConflict instead of returning a wrong range.
func TestPipelinedCounterConflictDetected(t *testing.T) {
	net, ids := newQuorum(t, 3)
	pipelined, err := NewCounter(ProposerConfig{ID: 100, Acceptors: ids, SkipPhase1: true}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer pipelined.Stop()
	// A competing classic proposer steals slot 0 first.
	thief, err := NewProposer(ProposerConfig{ID: 200, Acceptors: ids}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer thief.Stop()
	if _, err := thief.ProposeSlot(0, Value{N: 9, ReqID: 1, From: 200}); err != nil {
		t.Fatal(err)
	}
	// The pipelined counter reserves slot 0 optimistically; acceptors
	// force the thief's value back, so the counter must flag the conflict.
	if _, err := pipelined.Next(1); !errors.Is(err, ErrConflict) {
		t.Fatalf("stolen pipelined slot: %v", err)
	}
}

// TestPipelinedCounterConcurrent: with a unique primary, concurrent
// pipelined Next calls return disjoint, gap-free ranges.
func TestPipelinedCounterConcurrent(t *testing.T) {
	net, ids := newQuorum(t, 3)
	c, _ := NewCounter(ProposerConfig{ID: 100, Acceptors: ids, SkipPhase1: true}, net)
	defer c.Stop()
	const workers, per = 8, 25
	results := make(chan uint64, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				end, err := c.Next(1)
				if err != nil {
					t.Error(err)
					return
				}
				results <- end
			}
		}()
	}
	wg.Wait()
	close(results)
	seen := make(map[uint64]bool)
	var max uint64
	for end := range results {
		if seen[end] {
			t.Fatalf("range end %d assigned twice", end)
		}
		seen[end] = true
		if end > max {
			max = end
		}
	}
	if int(max) != workers*per || len(seen) != workers*per {
		t.Fatalf("ranges not gap-free: max=%d distinct=%d want=%d", max, len(seen), workers*per)
	}
}
