package paxos

import (
	"errors"
	"sync"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// ErrStopped is returned when proposing on a stopped proposer.
var ErrStopped = errors.New("paxos: proposer stopped")

// ProposerConfig parameterizes a proposer.
type ProposerConfig struct {
	ID        types.NodeID
	Acceptors []types.NodeID
	// SkipPhase1 enables the Multi-Paxos optimization: a stable, unique
	// leader runs only the Accept phase per slot. Only safe while no other
	// proposer is active (§3.3: "optimized versions elect a unique primary
	// to handle all requests").
	SkipPhase1 bool
	// PhaseTimeout bounds one phase round-trip before a retry.
	PhaseTimeout time.Duration
}

// ProposerStats counts proposer-side events; Preemptions is the §3.3
// livelock evidence (ballots that lost to a competing proposer).
type ProposerStats struct {
	Proposals   uint64
	Decided     uint64
	Preemptions uint64
	StolenSlots uint64 // slots decided with another proposer's value
}

// phaseWait collects the acceptors' answers to one phase. A phase-2 ok
// is recorded as a zero Promise: only phase 1's carry a value.
type phaseWait struct {
	ballot  Ballot // the phase's own
	oks     map[types.NodeID]proto.Promise
	rejects int
	highest Ballot // highest ballot seen in rejections
	need    int
	done    chan struct{}
	closed  bool
}

// Proposer drives Paxos rounds against a set of acceptors.
type Proposer struct {
	cfg ProposerConfig
	ep  transport.Endpoint

	mu      sync.Mutex
	round   uint32
	p1      map[uint64]*phaseWait // by slot: one phase of a slot runs at a time
	p2      map[uint64]*phaseWait
	stats   ProposerStats
	stopped bool
}

// NewProposer creates and registers a proposer.
func NewProposer(cfg ProposerConfig, net *transport.Network) (*Proposer, error) {
	if cfg.PhaseTimeout <= 0 {
		cfg.PhaseTimeout = 100 * time.Millisecond
	}
	p := &Proposer{
		cfg:   cfg,
		round: 1,
		p1:    make(map[uint64]*phaseWait),
		p2:    make(map[uint64]*phaseWait),
	}
	ep, err := net.Register(cfg.ID, p.handle)
	if err != nil {
		return nil, err
	}
	p.ep = ep
	return p, nil
}

// Stats returns a snapshot of the proposer counters.
func (p *Proposer) Stats() ProposerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Stop makes further proposals fail.
func (p *Proposer) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.ep.Close()
}

func (p *Proposer) majority() int { return len(p.cfg.Acceptors)/2 + 1 }

func (p *Proposer) handle(from types.NodeID, msg transport.Message) {
	switch m := msg.(type) {
	case proto.Promise:
		p.answer(p.p1, from, m.Ballot, m.Slot, m.OK, m)
	case proto.Accepted:
		p.answer(p.p2, from, m.Ballot, m.Slot, m.OK, proto.Promise{})
	}
}

// answer counts one acceptor's answer to the slot's phase in waits; the
// frame's sender names the acceptor. A rejection carries the acceptor's
// promised ballot, not ours, and counts for the phase; an ok counts only
// for the phase's own ballot.
func (p *Proposer) answer(waits map[uint64]*phaseWait, from types.NodeID, b Ballot, slot uint64, ok bool, promise proto.Promise) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := waits[slot]
	if w == nil || w.closed || ok && b != w.ballot {
		return
	}
	if ok {
		w.oks[from] = promise
	} else {
		w.rejects++
		w.highest = max(w.highest, b)
	}
	if len(w.oks) >= w.need || w.rejects >= w.need {
		w.closed = true
		close(w.done)
	}
}

// ProposeSlot runs Paxos for one slot and returns the value decided there
// (which may be a competing proposer's value — callers retry on the next
// slot in that case).
func (p *Proposer) ProposeSlot(slot uint64, v Value) (Value, error) {
	attempts := 0
	for {
		p.mu.Lock()
		if p.stopped {
			p.mu.Unlock()
			return Value{}, ErrStopped
		}
		b := MakeBallot(p.round, p.cfg.ID)
		p.stats.Proposals++
		p.mu.Unlock()

		attempts++

		vUse := v
		// The Multi-Paxos fast path is only safe while this proposer's
		// ballot has never been preempted on the slot: after a rejection a
		// competitor may have gotten a value accepted, and Phase 1 is the
		// only way to discover (and re-propose) it. Skipping it after a
		// preemption would re-decide a settled slot — a safety violation.
		if !p.cfg.SkipPhase1 || attempts > 1 {
			promised, chosen, preempted := p.phase1(b, slot)
			if !promised {
				p.bumpRound(preempted)
				continue
			}
			if chosen != (Value{}) {
				vUse = chosen // must re-propose the highest accepted value
			}
		}
		ok, preempted := p.phase2(b, slot, vUse)
		if !ok {
			p.bumpRound(preempted)
			continue
		}
		p.mu.Lock()
		p.stats.Decided++
		if vUse.ReqID != v.ReqID || vUse.From != v.From {
			p.stats.StolenSlots++
		}
		p.mu.Unlock()
		return vUse, nil
	}
}

// bumpRound advances past the highest ballot that beat us.
func (p *Proposer) bumpRound(seen Ballot) {
	p.mu.Lock()
	p.stats.Preemptions++
	if seen.Round() >= p.round {
		p.round = seen.Round() + 1
	} else {
		p.round++
	}
	p.mu.Unlock()
}

// phase1 runs Prepare/Promise. Returns (majorityPromised, highest accepted
// value to re-propose, highest rejecting ballot).
func (p *Proposer) phase1(b Ballot, slot uint64) (bool, Value, Ballot) {
	w := p.run(p.p1, slot, b, proto.Prepare{Ballot: b, Slot: slot})
	if len(w.oks) < w.need {
		return false, Value{}, w.highest
	}
	var best proto.Promise
	for _, pr := range w.oks {
		if pr.AcceptedBallot > best.AcceptedBallot {
			best = pr
		}
	}
	return true, best.AcceptedValue, 0
}

// phase2 runs Accept/Accepted. Returns (majorityAccepted, highest
// rejecting ballot).
func (p *Proposer) phase2(b Ballot, slot uint64, v Value) (bool, Ballot) {
	w := p.run(p.p2, slot, b, proto.Accept{Ballot: b, Slot: slot, Value: v})
	if len(w.oks) < w.need {
		return false, w.highest
	}
	return true, 0
}

// run broadcasts one phase's request and waits for a majority of
// answers, either way, or PhaseTimeout. The returned wait is closed, so
// no later answer changes it.
func (p *Proposer) run(waits map[uint64]*phaseWait, slot uint64, b Ballot, req transport.Message) *phaseWait {
	w := &phaseWait{ballot: b, oks: make(map[types.NodeID]proto.Promise), need: p.majority(), done: make(chan struct{})}
	p.mu.Lock()
	waits[slot] = w
	p.mu.Unlock()
	p.ep.Broadcast(p.cfg.Acceptors, req)
	select {
	case <-w.done:
	case <-time.After(p.cfg.PhaseTimeout):
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if waits[slot] == w {
		delete(waits, slot)
	}
	if !w.closed {
		w.closed = true
		close(w.done)
	}
	return w
}
