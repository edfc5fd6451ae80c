package paxos

import (
	"errors"
	"sync"

	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Counter is the Scalog-style ordering service built on Multi-Paxos: the
// shared log's tail is a replicated counter and every increment is one
// Paxos decision (§3.3: Scalog "implements a Paxos-based counter service
// as its ordering layer").
//
// A Counter wraps one proposer (the primary). Next(n) proposes an
// increment of n at the next free slot; the counter's value is the prefix
// sum of all decided increments, so the call returns the last sequence
// number of the reserved range. With a unique primary and SkipPhase1 the
// service costs one Accept round per increment — the optimized baseline of
// Figure 4 (right). With multiple Counters over the same acceptors (multi-
// proposer Paxos), proposals preempt each other and throughput collapses —
// the livelock behaviour §3.3 reports.
type Counter struct {
	prop      *Proposer
	pipelined bool

	mu    sync.Mutex
	slot  uint64 // next slot to propose at
	tail  uint64 // prefix sum of decided increments up to slot-1
	reqID uint64
}

// ErrConflict is returned by a pipelined Next whose slot was stolen by a
// competing proposer (pipelining is only safe with a unique primary).
var ErrConflict = errors.New("paxos: pipelined slot decided with a competing value")

// NewCounter creates a counter service over the given acceptor set. With
// SkipPhase1 (unique primary) the counter pipelines: concurrent Next calls
// reserve consecutive slots and optimistic tails up front and run their
// Accept rounds in parallel — the Multi-Paxos pipelining real deployments
// (and libpaxos) rely on for throughput.
func NewCounter(cfg ProposerConfig, net *transport.Network) (*Counter, error) {
	prop, err := NewProposer(cfg, net)
	if err != nil {
		return nil, err
	}
	return &Counter{prop: prop, pipelined: cfg.SkipPhase1}, nil
}

// Stats exposes the underlying proposer counters.
func (c *Counter) Stats() ProposerStats { return c.prop.Stats() }

// Stop shuts the service down.
func (c *Counter) Stop() { c.prop.Stop() }

// Next reserves n sequence numbers and returns the last one. Safe for
// concurrent use. With a unique primary (SkipPhase1) concurrent calls
// pipeline their Accept rounds; otherwise they serialize on consecutive
// slots.
func (c *Counter) Next(n uint32) (uint64, error) {
	c.mu.Lock()
	c.reqID++
	req := Value{N: n, ReqID: c.reqID, From: c.prop.cfg.ID}
	if c.pipelined {
		slot := c.slot
		c.slot++
		c.tail += uint64(n)
		tail := c.tail
		c.mu.Unlock()
		decided, err := c.prop.ProposeSlot(slot, req)
		if err != nil {
			return 0, err
		}
		if decided.ReqID != req.ReqID || decided.From != req.From {
			return 0, ErrConflict
		}
		return tail, nil
	}
	for {
		slot := c.slot
		// The slot is proposed while holding the mutex: the counter's
		// slots are sequential, and the prefix sum must be updated in
		// slot order. (Scalog serializes through its Paxos log the same
		// way.) Concurrency across clients comes from batching at the
		// aggregation layer, exactly as in Scalog/Boki.
		decided, err := c.prop.ProposeSlot(slot, req)
		if err != nil {
			c.mu.Unlock()
			return 0, err
		}
		c.slot++
		c.tail += uint64(decided.N)
		if decided.ReqID == req.ReqID && decided.From == req.From {
			tail := c.tail
			c.mu.Unlock()
			return tail, nil
		}
		// Another proposer's value won this slot; account for it and try
		// the next slot.
	}
}

// AcceptorSet spins up n acceptors with consecutive node ids starting at
// base and returns their ids (deployment helper used by tests, the scalog
// baseline, and the Fig. 4 bench).
func AcceptorSet(net *transport.Network, base types.NodeID, n int) ([]types.NodeID, []*Acceptor, error) {
	ids := make([]types.NodeID, n)
	accs := make([]*Acceptor, n)
	for i := 0; i < n; i++ {
		id := base + types.NodeID(i)
		a, err := NewAcceptor(id, net)
		if err != nil {
			return nil, nil, err
		}
		ids[i] = id
		accs[i] = a
	}
	return ids, accs, nil
}
