package replica

import (
	"cmp"
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
//   - a sync-phase (sync.go, §6.3 "the outdated replicas fetch the missing
//     entries"): every participant pulls from each shard peer in turn,
//     rounds until More is false, then the next peer, then SyncDone;
//   - ctrlplane's shard merge, in process, with its own cursor —
//
// and all of them use one wire pair (JoinFetch / JoinEntries, the ID naming
// the join or the sync run), one serve and one ingest. The serve is
// stateless — every round is answered from current storage, so a donor
// crash or a lost message costs one retry, never a wedged transfer — and
// bounded: at most Budget records per color, read from the devices only
// after the cut, plus one per listed token. A round also resolves the
// requester's persisted but unordered batches by token — a batch can be
// missing below any frontier the requester names (it lost the OrderResp
// and committed later ones) — so a peer's SN is adopted instead of asking
// a new leader for a second.
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

// ServeCatchup is the donor side of one catch-up round: the last record of
// every listed token this replica committed below have, then per color the
// committed records above have, at most budget of them (0 = the default)
// plus the rest of the batch the budget falls in, and the committed and
// trim frontiers. More reports that some color holds records
// above what was shipped. A failed scan fails the round: the requester's
// retry asks again, and a round is never answered with part of what it
// asked for.
func (r *Replica) ServeCatchup(have map[types.ColorID]types.SN, tokens []types.Token, budget int) (proto.JoinEntries, error) {
	if budget <= 0 {
		budget = defaultJoinBudget
	}
	out := proto.JoinEntries{
		Records:  make(map[types.ColorID][]proto.WireRecord),
		Frontier: make(map[types.ColorID]types.SN),
		Trimmed:  make(map[types.ColorID]types.SN),
		From:     r.cfg.ID,
	}
	for _, t := range tokens {
		// A batch above have comes with the scan. For one below, the last
		// record is enough: the requester holds the batch and commits it
		// with its own record count (see IngestCatchup).
		color, last, ok := r.st.TokenInfo(t)
		if !ok || !last.Valid() || last > have[color] {
			continue
		}
		if data, err := r.st.Get(color, last); err == nil {
			out.Records[color] = append(out.Records[color], proto.WireRecord{Token: t, SN: last, Data: data})
		}
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
		if trimmed := r.st.Trimmed(c); trimmed.Valid() {
			out.Trimmed[c] = trimmed
		}
		if len(recs) > 0 {
			out.Records[c] = append(out.Records[c], wireRecords(recs)...)
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
// already committed here is skipped. A run commits through commit, like
// an OrderResp, so it settles the token's pending order: its clients are
// acked with the SN the shard already assigned, and it is never re-issued.
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
			if r.commit(color, token, last) == nil {
				ingested += len(run)
			}
		}
	}
	return ingested
}

// catchupFetch builds this replica's next round request: everything above
// its committed frontier — or its trim frontier where that is higher,
// because records at or below it are dropped on arrival and asking for them
// again would never advance a budgeted transfer — and the SNs of its
// persisted but uncommitted batches, as many as the budget. An unset
// JoinBudget travels as 0, the donor's default.
func (r *Replica) catchupFetch(id uint64) proto.JoinFetch {
	have := make(map[types.ColorID]types.SN)
	for _, c := range r.topo.Colors() {
		if sn := max(r.st.MaxSN(c), r.st.Trimmed(c)); sn.Valid() {
			have[c] = sn
		}
	}
	budget := max(r.cfg.JoinBudget, 0)
	var tokens []types.Token
	for _, b := range r.st.Uncommitted() {
		if len(tokens) == cmp.Or(budget, defaultJoinBudget) {
			break
		}
		tokens = append(tokens, b.Token)
	}
	return proto.JoinFetch{ID: id, Have: have, Tokens: tokens, Budget: uint32(budget), From: r.cfg.ID}
}

// onJoinFetch answers one round. A failed serve sends nothing; the
// requester's retry timer re-drives the round.
func (r *Replica) onJoinFetch(from types.NodeID, m proto.JoinFetch) {
	out, err := r.ServeCatchup(m.Have, m.Tokens, int(m.Budget))
	if err != nil {
		return
	}
	out.ID = m.ID
	r.ep.Send(from, out)
}

// onJoinEntries ingests one round on behalf of whichever transfer the ID
// names — this replica's join, or its pull from one peer in one of its sync
// runs — and decides what follows: a truncated round chains the next one at
// once, but only if it made progress (a duplicate reply, or a store that
// refuses every batch, leaves the next round to the retry timer instead of
// spinning); a joiner's last round refreshes its lag and the timer keeps
// polling so it tracks live traffic; a sync run's last round from a peer
// moves its pull on to the next peer. The donor's trim frontier is
// adopted first, so records it garbage-collected are never resurrected
// here (§6.2 + §6.3): a frontier the store refuses ends the round there,
// nothing ingested and nothing chained, and the retry timer re-drives it.
func (r *Replica) onJoinEntries(m proto.JoinEntries) {
	now := time.Now()
	r.mu.Lock()
	j, run := r.join, r.syncRuns[m.ID]
	joining := j != nil && j.id == m.ID
	donor := m.From
	switch {
	case joining:
		j.lastDrive, donor = now, j.donor
	case run != nil && len(run.pulls) > 0 && run.pulls[0] == m.From:
		run.lastDrive = now
	default:
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	for c, sn := range m.Trimmed {
		if _, _, err := r.st.Trim(c, sn); err != nil {
			r.stats.trimDrops.Add(1)
			return
		}
	}
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
		r.pulled(m.ID, m.From)
	}
}
