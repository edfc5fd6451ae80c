// Package paxos implements the Paxos-based ordering baseline FlexLog is
// compared against (§3.3, §9.1 / Figure 4 right).
//
// Scalog — whose ordering layer Boki adopts — maintains the shared log's
// tail as a Paxos-replicated counter. This package provides:
//
//   - classic single-decree Paxos (Prepare/Promise, Accept/Accepted) over
//     the same transport fabric as FlexLog's sequencers, for an
//     apples-to-apples comparison;
//   - a Multi-Paxos counter service (a stable leader skips Phase 1 and runs
//     one Accept round per increment) — the optimized baseline of Fig. 4;
//   - a multi-proposer mode in which concurrent proposers compete for
//     slots with increasing ballots. As §3.3 observes, this mode exhibits
//     livelock: proposers keep preempting one another and throughput
//     collapses. The Stats expose the preemption counts that evidence it.
package paxos

import (
	"sync"

	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Ballot is a Paxos ballot number: (round << 32) | proposerID, so ballots
// of distinct proposers never tie.
type Ballot uint64

// MakeBallot composes a ballot.
func MakeBallot(round uint32, proposer types.NodeID) Ballot {
	return Ballot(uint64(round)<<32 | uint64(proposer))
}

// Round extracts the round half.
func (b Ballot) Round() uint32 { return uint32(uint64(b) >> 32) }

// Value is the payload agreed on in one slot: a request for N sequence
// numbers, identified by the request id for response routing.
type Value struct {
	N     uint32
	ReqID uint64
	From  types.NodeID
}

// zeroValue reports whether the value is unset.
func (v Value) zero() bool { return v == Value{} }

// ---- Wire messages ----

// Prepare is Phase-1a.
type Prepare struct {
	Ballot Ballot
	Slot   uint64
}

// Promise is Phase-1b. OK=false carries the higher promised ballot.
type Promise struct {
	Ballot         Ballot
	Slot           uint64
	OK             bool
	AcceptedBallot Ballot
	AcceptedValue  Value
	From           types.NodeID
}

// Accept is Phase-2a.
type Accept struct {
	Ballot Ballot
	Slot   uint64
	Value  Value
}

// Accepted is Phase-2b. OK=false carries the higher promised ballot.
type Accepted struct {
	Ballot Ballot
	Slot   uint64
	OK     bool
	From   types.NodeID
}

// ---- Acceptor ----

type slotState struct {
	promised       Ballot
	acceptedBallot Ballot
	acceptedValue  Value
}

// Acceptor is a Paxos acceptor node.
type Acceptor struct {
	id types.NodeID
	ep transport.Endpoint

	mu    sync.Mutex
	slots map[uint64]*slotState

	stats AcceptorStats
}

// AcceptorStats counts acceptor-side events.
type AcceptorStats struct {
	Promises  uint64
	Rejects   uint64
	Accepteds uint64
}

// NewAcceptor creates and registers an acceptor.
func NewAcceptor(id types.NodeID, net *transport.Network) (*Acceptor, error) {
	a := &Acceptor{id: id, slots: make(map[uint64]*slotState)}
	ep, err := net.Register(id, a.handle)
	if err != nil {
		return nil, err
	}
	a.ep = ep
	return a, nil
}

func (a *Acceptor) slot(s uint64) *slotState {
	st := a.slots[s]
	if st == nil {
		st = &slotState{}
		a.slots[s] = st
	}
	return st
}

func (a *Acceptor) handle(from types.NodeID, msg transport.Message) {
	switch m := msg.(type) {
	case Prepare:
		a.mu.Lock()
		st := a.slot(m.Slot)
		if m.Ballot >= st.promised {
			st.promised = m.Ballot
			a.stats.Promises++
			resp := Promise{
				Ballot: m.Ballot, Slot: m.Slot, OK: true,
				AcceptedBallot: st.acceptedBallot, AcceptedValue: st.acceptedValue,
				From: a.id,
			}
			a.mu.Unlock()
			a.ep.Send(from, resp)
			return
		}
		a.stats.Rejects++
		resp := Promise{Ballot: st.promised, Slot: m.Slot, OK: false, From: a.id}
		a.mu.Unlock()
		a.ep.Send(from, resp)
	case Accept:
		a.mu.Lock()
		st := a.slot(m.Slot)
		if m.Ballot >= st.promised {
			st.promised = m.Ballot
			st.acceptedBallot = m.Ballot
			st.acceptedValue = m.Value
			a.stats.Accepteds++
			resp := Accepted{Ballot: m.Ballot, Slot: m.Slot, OK: true, From: a.id}
			a.mu.Unlock()
			a.ep.Send(from, resp)
			return
		}
		a.stats.Rejects++
		resp := Accepted{Ballot: st.promised, Slot: m.Slot, OK: false, From: a.id}
		a.mu.Unlock()
		a.ep.Send(from, resp)
	}
}
