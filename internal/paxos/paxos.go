// Package paxos implements the Paxos-based ordering baseline FlexLog is
// compared against (§3.3, §9.1 / Figure 4 right).
//
// Scalog — whose ordering layer Boki adopts — maintains the shared log's
// tail as a Paxos-replicated counter. This package provides:
//
//   - classic single-decree Paxos (proto.Prepare/Promise, Accept/Accepted,
//     framed by the same codec) over the same transport fabric as
//     FlexLog's sequencers, for an apples-to-apples comparison;
//   - a Multi-Paxos counter service (a stable leader skips Phase 1 and runs
//     one Accept round per increment) — the optimized baseline of Fig. 4;
//   - a multi-proposer mode in which concurrent proposers compete for
//     slots with increasing ballots. As §3.3 observes, this mode exhibits
//     livelock: proposers keep preempting one another and throughput
//     collapses. The Stats expose the preemption counts that evidence it.
package paxos

import (
	"sync"

	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Ballot is a Paxos ballot number: (round << 32) | proposerID.
type Ballot = proto.Ballot

// MakeBallot composes a ballot.
func MakeBallot(round uint32, proposer types.NodeID) Ballot {
	return Ballot(uint64(round)<<32 | uint64(proposer))
}

// Value is the payload agreed on in one slot: a request for N SNs.
type Value = proto.PaxosValue

// ---- Acceptor ----

type slotState struct {
	promised       Ballot
	acceptedBallot Ballot
	acceptedValue  Value
}

// Acceptor is a Paxos acceptor node.
type Acceptor struct {
	ep transport.Endpoint

	mu    sync.Mutex
	slots map[uint64]*slotState
}

// NewAcceptor creates and registers an acceptor.
func NewAcceptor(id types.NodeID, net *transport.Network) (*Acceptor, error) {
	a := &Acceptor{slots: make(map[uint64]*slotState)}
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
	var resp transport.Message
	a.mu.Lock()
	switch m := msg.(type) {
	case proto.Prepare:
		st := a.slot(m.Slot)
		resp = proto.Promise{Ballot: st.promised, Slot: m.Slot} // a rejection
		if m.Ballot >= st.promised {
			st.promised = m.Ballot
			resp = proto.Promise{
				Ballot: m.Ballot, Slot: m.Slot, OK: true,
				AcceptedBallot: st.acceptedBallot, AcceptedValue: st.acceptedValue,
			}
		}
	case proto.Accept:
		st := a.slot(m.Slot)
		resp = proto.Accepted{Ballot: st.promised, Slot: m.Slot} // a rejection
		if m.Ballot >= st.promised {
			st.promised = m.Ballot
			st.acceptedBallot = m.Ballot
			st.acceptedValue = m.Value
			resp = proto.Accepted{Ballot: m.Ballot, Slot: m.Slot, OK: true}
		}
	}
	a.mu.Unlock()
	if resp != nil {
		a.ep.Send(from, resp)
	}
}
