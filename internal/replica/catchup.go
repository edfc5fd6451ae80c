package replica

import (
	"errors"
	"fmt"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/storage"
	"flexlog/internal/types"
)

// This file owns replica-to-replica state transfer (DESIGN.md §15.3): the
// one path by which committed records move from a replica that has them to
// one that does not. Three callers drive it —
//
//   - a joining replica's poll loop (reconfig.go): rounds against its donor
//     under live traffic until the control plane promotes it;
//   - the fetch stage of a sync-phase (sync.go, §6.3 "the outdated replicas
//     fetch the missing entries from the most up-to-date one"): rounds
//     against SyncCatchup.UpToDate until More is false, then SyncDone;
//   - ctrlplane's shard merge, in process, with its own cursor —
//
// and all of them use one wire pair (JoinFetch / JoinEntries, the ID naming
// the join or the sync run), one serve and one ingest. The serve is
// stateless — every round is answered from current storage, so a donor
// crash or a lost message costs one retry, never a wedged transfer — and
// bounded: at most Budget records per color, read from the devices only
// after the cut.
//
// The unit of transfer is the append batch, because that is the unit of
// storage (Alg. 1 line 17 persists records[] under ONE token): a round is
// cut only between batches, and the ingest persists and commits a batch as
// a whole.

// defaultJoinBudget bounds the records per color one catch-up round may
// carry when Config.JoinBudget (or a request's Budget) is unset.
const defaultJoinBudget = 2048

// wireRecords converts a storage scan to its wire form.
func wireRecords(recs []types.Record) []proto.WireRecord {
	out := make([]proto.WireRecord, len(recs))
	for i, rec := range recs {
		out[i] = proto.WireRecord{Token: rec.Token, SN: rec.SN, Data: rec.Data}
	}
	return out
}

// ServeCatchup is the donor side of one catch-up round: per color, the
// committed records above have, at most budget of them (0 = the default)
// plus the rest of the batch the budget falls in, and the committed
// frontier. More reports that some color holds records above what was
// shipped. A failed scan fails the round: the requester's retry asks again,
// and a round is never answered with part of what it asked for.
func (r *Replica) ServeCatchup(have map[types.ColorID]types.SN, budget int) (proto.JoinEntries, error) {
	if budget <= 0 {
		budget = defaultJoinBudget
	}
	out := proto.JoinEntries{
		Records:  make(map[types.ColorID][]proto.WireRecord),
		Frontier: make(map[types.ColorID]types.SN),
		From:     r.cfg.ID,
	}
	for _, c := range r.topo.Colors() {
		recs, err := r.st.ScanFrom(c, have[c], budget)
		if err != nil {
			return proto.JoinEntries{}, fmt.Errorf("replica %d: catch-up scan of color %d: %w", r.cfg.ID, c, err)
		}
		// The frontier is read after the scan, so a commit that lands in
		// between shows up as More and is fetched by the next round.
		frontier := r.st.MaxSN(c)
		if frontier.Valid() {
			out.Frontier[c] = frontier
		}
		if len(recs) > 0 {
			out.Records[c] = wireRecords(recs)
			out.More = out.More || recs[len(recs)-1].SN < frontier
		}
	}
	return out, nil
}

// IngestCatchup is the destination side: it installs already-ordered
// records at their authoritative SNs and returns how many it newly
// committed. The unit is the run — a maximal stretch of adjacent records
// with one token and consecutive SNs, i.e. one append batch, or the suffix
// of one that a donor-side trim left. A run loses whatever lies at or below
// the local trim frontier (garbage-collected by a trim that raced the
// fetch), is persisted with one PutBatch unless the token is already here,
// and committed with one Commit at the SN of its LAST record. The last SN
// is enough in every case because storage derives the first SN from it and
// the stored record count: a whole batch and a trimmed suffix were stored
// with the count they arrived with, and a batch this replica had persisted
// before it fell behind (and never committed) keeps its own full count, so
// it lands on the SNs its peers committed it at. Idempotent: a token
// already committed here is skipped.
func (r *Replica) IngestCatchup(records map[types.ColorID][]proto.WireRecord) (ingested int) {
	for color, recs := range records {
		trimmed := r.st.Trimmed(color)
		for len(recs) > 0 {
			n := 1
			for n < len(recs) && recs[n].Token == recs[0].Token && recs[n].SN == recs[n-1].SN+1 {
				n++
			}
			run := recs[:n]
			recs = recs[n:]
			token, last := run[0].Token, run[n-1].SN
			// (A record without an SN is below every frontier, so malformed
			// input is dropped here too.)
			for len(run) > 0 && run[0].SN <= trimmed {
				run = run[1:]
			}
			if len(run) == 0 {
				continue
			}
			sn, known := r.st.TokenSN(token)
			if known && sn.Valid() {
				continue
			}
			if !known {
				datas := make([][]byte, len(run))
				for i, rec := range run {
					datas[i] = rec.Data
				}
				if err := r.st.PutBatch(color, token, datas); err != nil && !errors.Is(err, storage.ErrDuplicateToken) {
					// Out of space: counted like an append the store refused.
					// The batch stays missing and a later round asks again.
					r.stats.appendDrops.Add(1)
					continue
				}
			}
			if err := r.st.Commit(token, last); err != nil {
				continue
			}
			r.maxSeen.bump(color, last)
			ingested += len(run)
		}
		r.wakeHeld(color, r.frontier(color))
	}
	return ingested
}

// catchupFetch builds this replica's next round request: everything above
// its committed frontier — or its trim frontier where that is higher,
// because records at or below it are dropped on arrival and asking for them
// again would never advance a budgeted transfer. An unset JoinBudget
// travels as 0, the donor's default.
func (r *Replica) catchupFetch(id uint64) proto.JoinFetch {
	have := r.maxSNs()
	for c, sn := range r.maxTrims() {
		if sn > have[c] {
			have[c] = sn
		}
	}
	return proto.JoinFetch{ID: id, Have: have, Budget: uint32(max(r.cfg.JoinBudget, 0)), From: r.cfg.ID}
}

// onJoinFetch answers one round. A failed serve sends nothing; the
// requester's retry timer re-drives the round.
func (r *Replica) onJoinFetch(from types.NodeID, m proto.JoinFetch) {
	out, err := r.ServeCatchup(m.Have, int(m.Budget))
	if err != nil {
		return
	}
	out.ID = m.ID
	r.ep.Send(from, out)
}

// onJoinEntries ingests one round on behalf of whichever transfer the ID
// names — this replica's join, or the fetch stage of one of its sync runs —
// and decides what follows: a truncated round chains the next one at once,
// but only if it made progress (a duplicate reply, or a store that refuses
// every batch, leaves the next round to the retry timer instead of
// spinning); a joiner's last round refreshes its lag and the timer keeps
// polling so it tracks live traffic; a sync run's last round ends its fetch
// stage and enters the SyncDone barrier.
func (r *Replica) onJoinEntries(m proto.JoinEntries) {
	now := time.Now()
	r.mu.Lock()
	j, run := r.join, r.syncRuns[m.ID]
	joining := j != nil && j.id == m.ID
	var donor types.NodeID
	switch {
	case joining:
		j.lastDrive, donor = now, j.donor
	case run != nil && run.fetchTarget != 0:
		run.lastDrive, donor = now, run.fetchTarget
	default:
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	n := r.IngestCatchup(m.Records)
	if joining {
		r.stats.joinRounds.Add(1)
		r.stats.joinRecords.Add(uint64(n))
		var lag uint64
		for c, sn := range m.Frontier {
			if mine := r.st.MaxSN(c); mine < sn {
				lag += uint64(sn - mine)
			}
		}
		r.joinLag.Store(lag)
	}
	switch {
	case m.More && n > 0:
		r.ep.Send(donor, r.catchupFetch(m.ID))
	case !m.More && !joining:
		r.mu.Lock()
		if run := r.syncRuns[m.ID]; run != nil {
			run.fetchTarget = 0
			run.caughtUp = true
		}
		r.mu.Unlock()
		r.broadcastSyncDone(m.ID)
	}
}
