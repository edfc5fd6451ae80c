package replica

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// The catch-up tests speak only the surfaces the transfer has had since it
// exists — JoinFetch in / JoinEntries out at an endpoint, StartJoin, Store —
// so this file also compiles against a tree that ingested record by record,
// where the multi-record cases fail.

const (
	catchupColor types.ColorID = 0
	harnessCli   types.NodeID  = 500 // the harness's client endpoint
)

func csn(n int) types.SN { return types.MakeSN(1, uint32(n)) }

// seedBatch persists one append batch on the replica and, with a valid
// last SN, commits it there: records[i] lands at last-len(records)+1+i.
func seedBatch(t *testing.T, r *Replica, token types.Token, last types.SN, records ...string) {
	t.Helper()
	datas := make([][]byte, len(records))
	for i, rec := range records {
		datas[i] = []byte(rec)
	}
	if err := r.Store().PutBatch(catchupColor, token, datas); err != nil {
		t.Fatalf("seeding %v: %v", token, err)
	}
	if !last.Valid() {
		return
	}
	if err := r.Store().Commit(token, last); err != nil {
		t.Fatalf("committing %v at %v: %v", token, last, err)
	}
}

// spawnJoiner creates a replica outside the shard's membership, as the
// control plane does before a join.
func (h *harness) spawnJoiner(t *testing.T, id types.NodeID, budget int) *Replica {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ID = id
	cfg.Shard = 1
	cfg.Topo = h.topo
	cfg.RetryTimeout = 25 * time.Millisecond
	cfg.JoinBudget = budget
	r, err := New(cfg, h.net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

// catchUp runs a join of joiner against donor with the harness's client
// endpoint in the middle: the joiner's donor is the test, which relays every
// JoinFetch to the real donor and every JoinEntries back, so it sees each
// round. It returns the rounds once the donor reports nothing more and the
// joiner has ingested them all.
func (h *harness) catchUp(t *testing.T, donor, joiner *Replica) []proto.JoinEntries {
	t.Helper()
	joiner.StartJoin(harnessCli)
	var rounds []proto.JoinEntries
	for {
		fetch := h.waitClient(t, func(m transport.Message) bool {
			f, ok := m.(proto.JoinFetch)
			return ok && f.From == joiner.ID()
		}).(proto.JoinFetch)
		h.cliEP.Send(donor.ID(), fetch)
		entries := h.waitClient(t, func(m transport.Message) bool {
			e, ok := m.(proto.JoinEntries)
			return ok && e.ID == fetch.ID
		}).(proto.JoinEntries)
		rounds = append(rounds, entries)
		h.cliEP.Send(joiner.ID(), entries)
		if !entries.More {
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for joiner.Stats().JoinRounds < uint64(len(rounds)) {
		if time.Now().After(deadline) {
			t.Fatalf("joiner ingested %d of %d rounds", joiner.Stats().JoinRounds, len(rounds))
		}
		time.Sleep(time.Millisecond)
	}
	return rounds
}

// sameLog fails unless b holds exactly a's committed records of the color:
// the same SNs, each with the same token and payload.
func sameLog(t *testing.T, a, b *Replica) {
	t.Helper()
	want, err := a.Store().Scan(catchupColor)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Store().Scan(catchupColor)
	if err != nil {
		t.Fatal(err)
	}
	render := func(recs []types.Record) string {
		var sb bytes.Buffer
		for _, rec := range recs {
			fmt.Fprintf(&sb, " %d:%q", rec.SN.Counter(), rec.Data)
		}
		return sb.String()
	}
	if len(got) != len(want) {
		t.Fatalf("replica %d holds %d records, replica %d holds %d\n got:%s\nwant:%s",
			b.ID(), len(got), a.ID(), len(want), render(got), render(want))
	}
	for i := range want {
		if got[i].SN != want[i].SN || got[i].Token != want[i].Token || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d differs\n got:%s\nwant:%s", i, render(got), render(want))
		}
	}
}

// TestCatchupIngestsWholeBatch: a 3-record append, committed through the
// append protocol, reaches a joiner with all three records readable. An
// ingest that persists the batch's first record under the batch's token
// finds the token taken for the second and keeps 1 of 3.
func TestCatchupIngestsWholeBatch(t *testing.T) {
	h := newHarness(t, 1)
	donor := h.replicas[0]
	token := types.MakeToken(1, 1)
	h.cliEP.Send(donor.ID(), proto.AppendReq{
		Color: catchupColor, Token: token, Client: harnessCli,
		Records: [][]byte{[]byte("a"), []byte("b"), []byte("c")},
	})
	h.grant(h.expectOrderReq(t, token), csn(3))
	h.waitClient(t, func(m transport.Message) bool {
		ack, ok := m.(proto.AppendAck)
		return ok && ack.Token == token
	})
	seedBatch(t, donor, types.MakeToken(1, 2), csn(5), "d", "e")

	joiner := h.spawnJoiner(t, 9, 0)
	h.catchUp(t, donor, joiner)
	sameLog(t, donor, joiner)
	for i, want := range []string{"a", "b", "c", "d", "e"} {
		got, err := joiner.Store().Get(catchupColor, csn(i+1))
		if err != nil || string(got) != want {
			t.Errorf("joiner SN %d = %q, %v; want %q", i+1, got, err, want)
		}
	}
	if lag := joiner.JoinLag(); lag != 0 {
		t.Errorf("join lag = %d after the last round, want 0", lag)
	}
}

// TestCatchupCommitsPersistedBatchAtPeerSNs: the destination had persisted
// a 3-record batch before it fell behind and never saw its SN; its peers
// committed it at SNs 10..12. After catch-up it must serve what the donor
// serves at every SN. Committing the persisted batch at the FIRST record's
// SN as if it were the last puts it at 8..10: "c" at 10, phantoms at 8 and
// 9, nothing at 11 and 12.
func TestCatchupCommitsPersistedBatchAtPeerSNs(t *testing.T) {
	h := newHarness(t, 1)
	donor := h.replicas[0]
	for i := 1; i <= 7; i++ {
		seedBatch(t, donor, types.MakeToken(1, uint32(i)), csn(i), fmt.Sprintf("r%d", i))
	}
	batch := types.MakeToken(2, 1)
	seedBatch(t, donor, batch, csn(12), "a", "b", "c") // SNs 8 and 9 stay holes

	joiner := h.spawnJoiner(t, 9, 0)
	seedBatch(t, joiner, batch, types.InvalidSN, "a", "b", "c")
	h.catchUp(t, donor, joiner)
	for i := 1; i <= 12; i++ {
		want, wantErr := donor.Store().Get(catchupColor, csn(i))
		got, gotErr := joiner.Store().Get(catchupColor, csn(i))
		if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(got, want) {
			t.Errorf("SN %d: joiner %q, %v; donor %q, %v", i, got, gotErr, want, wantErr)
		}
	}
	sameLog(t, donor, joiner)
}

// TestCatchupNeverSplitsABatch pages through a donor of 3-record batches
// with a budget of 2: every round must end between two tokens (so it ships
// whole batches, at most budget plus the rest of one), More must say exactly
// whether records remain, and the rounds together must be the log. Then the
// same transfer end to end into a joiner.
func TestCatchupNeverSplitsABatch(t *testing.T) {
	const budget, perBatch, batches = 2, 3, 4
	h := newHarness(t, 1)
	donor := h.replicas[0]
	for b := 0; b < batches; b++ {
		last := (b + 1) * perBatch
		seedBatch(t, donor, types.MakeToken(1, uint32(b+1)), csn(last),
			fmt.Sprintf("b%d.0", b), fmt.Sprintf("b%d.1", b), fmt.Sprintf("b%d.2", b))
	}
	seedBatch(t, donor, types.MakeToken(1, 99), csn(batches*perBatch+1), "tail")
	log, err := donor.Store().Scan(catchupColor)
	if err != nil {
		t.Fatal(err)
	}

	var union []proto.WireRecord
	seen := make(map[types.Token]int) // token -> round that shipped it
	have := types.InvalidSN
	for round := 0; ; round++ {
		if round > len(log) {
			t.Fatal("transfer does not terminate")
		}
		id := uint64(1000 + round)
		h.cliEP.Send(donor.ID(), proto.JoinFetch{
			ID: id, Have: map[types.ColorID]types.SN{catchupColor: have}, Budget: budget, From: harnessCli,
		})
		entries := h.waitClient(t, func(m transport.Message) bool {
			e, ok := m.(proto.JoinEntries)
			return ok && e.ID == id
		}).(proto.JoinEntries)
		recs := entries.Records[catchupColor]
		if len(recs) == 0 {
			t.Fatalf("round %d is empty with %d of %d records shipped", round, len(union), len(log))
		}
		if len(recs) > budget+perBatch-1 {
			t.Errorf("round %d carries %d records, want at most budget %d plus the rest of one batch", round, len(recs), budget)
		}
		for _, rec := range recs {
			if prev, ok := seen[rec.Token]; ok && prev != round {
				t.Fatalf("token %v is split across rounds %d and %d", rec.Token, prev, round)
			}
			seen[rec.Token] = round
		}
		union = append(union, recs...)
		have = recs[len(recs)-1].SN
		if remain := len(union) < len(log); entries.More != remain {
			t.Fatalf("round %d: More = %v with %d of %d records shipped", round, entries.More, len(union), len(log))
		}
		if !entries.More {
			break
		}
	}
	if len(union) != len(log) {
		t.Fatalf("rounds shipped %d records, the log holds %d", len(union), len(log))
	}
	for i, rec := range log {
		if union[i].SN != rec.SN || union[i].Token != rec.Token || !bytes.Equal(union[i].Data, rec.Data) {
			t.Fatalf("record %d of the rounds is %v %q, of the log %v %q", i, union[i].SN, union[i].Data, rec.SN, rec.Data)
		}
	}

	joiner := h.spawnJoiner(t, 9, budget)
	if rounds := h.catchUp(t, donor, joiner); len(rounds) < batches {
		t.Errorf("joiner caught up in %d rounds, want at least %d at budget %d", len(rounds), batches, budget)
	}
	sameLog(t, donor, joiner)
}

// TestCatchupSkipsTrimmedPrefix: a trim that ends inside a batch leaves its
// suffix. On the donor side the suffix arrives as a shorter run of the same
// token; on the destination side the local trim frontier cuts the prefix
// off a run that arrives whole. Either way the surviving records keep
// their SNs and nothing at or below the frontier comes back.
func TestCatchupSkipsTrimmedPrefix(t *testing.T) {
	h := newHarness(t, 1)
	donor := h.replicas[0]
	seedBatch(t, donor, types.MakeToken(1, 1), csn(3), "a", "b", "c")
	seedBatch(t, donor, types.MakeToken(1, 2), csn(6), "d", "e", "f")

	// Destination-side frontier at 4, before the donor trims anything.
	late := h.spawnJoiner(t, 10, 0)
	if _, _, err := late.Store().Trim(catchupColor, csn(4)); err != nil {
		t.Fatal(err)
	}
	h.catchUp(t, donor, late)
	for i, want := range []string{"", "", "", "", "e", "f"} {
		got, err := late.Store().Get(catchupColor, csn(i+1))
		if want == "" && err == nil {
			t.Errorf("trimmed SN %d came back as %q", i+1, got)
		}
		if want != "" && (err != nil || string(got) != want) {
			t.Errorf("SN %d = %q, %v; want %q", i+1, got, err, want)
		}
	}

	// Donor-side trim into the middle of the first batch.
	if _, _, err := donor.Store().Trim(catchupColor, csn(2)); err != nil {
		t.Fatal(err)
	}
	joiner := h.spawnJoiner(t, 9, 0)
	h.catchUp(t, donor, joiner)
	sameLog(t, donor, joiner)
	if got, err := joiner.Store().Get(catchupColor, csn(3)); err != nil || string(got) != "c" {
		t.Errorf("SN 3 = %q, %v; want the batch's surviving record \"c\"", got, err)
	}
	for i := 1; i <= 2; i++ {
		if got, err := joiner.Store().Get(catchupColor, csn(i)); err == nil {
			t.Errorf("trimmed SN %d came back as %q", i, got)
		}
	}
}

// tapEndpoint reports every message a replica sends.
type tapEndpoint struct {
	transport.Endpoint
	sent func(msg transport.Message)
}

func (e tapEndpoint) Send(to types.NodeID, msg transport.Message) error {
	e.sent(msg)
	return e.Endpoint.Send(to, msg)
}

func (e tapEndpoint) Broadcast(tos []types.NodeID, msg transport.Message) error {
	for range tos {
		e.sent(msg)
	}
	return e.Endpoint.Broadcast(tos, msg)
}

// TestRecoveryFetchIsBudgeted: the fetch stage of a sync-phase travels in
// catch-up rounds, not one unbounded frame — every reply carries at most
// JoinBudget records per color plus the rest of one batch — and converges
// the recovering replica on its peer's log, including a batch it had
// persisted but never committed.
func TestRecoveryFetchIsBudgeted(t *testing.T) {
	const budget, perBatch, batches = 4, 3, 6
	var mu sync.Mutex
	var frames []int // records per JoinEntries frame, in send order
	h := newHarnessWith(t, 2, func(cfg Config, net *transport.Network) (*Replica, error) {
		cfg.JoinBudget = budget
		return NewWithEndpoint(cfg, func(handler transport.Handler) (transport.Endpoint, error) {
			ep, err := net.Register(cfg.ID, handler)
			if err != nil {
				return nil, err
			}
			return tapEndpoint{Endpoint: ep, sent: func(msg transport.Message) {
				if e, ok := msg.(proto.JoinEntries); ok {
					mu.Lock()
					frames = append(frames, len(e.Records[catchupColor]))
					mu.Unlock()
				}
			}}, nil
		})
	})
	peer, victim := h.replicas[0], h.replicas[1]
	for b := 0; b < batches; b++ {
		token := types.MakeToken(1, uint32(b+1))
		records := []string{fmt.Sprintf("b%d.0", b), fmt.Sprintf("b%d.1", b), fmt.Sprintf("b%d.2", b)}
		seedBatch(t, peer, token, csn((b+1)*perBatch), records...)
		switch b {
		case 0:
			seedBatch(t, victim, token, csn(perBatch), records...)
		case 1:
			seedBatch(t, victim, token, types.InvalidSN, records...) // persisted, never committed
		}
	}

	victim.Crash()
	if err := victim.Recover(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for victim.Mode() != ModeOperational || peer.Mode() != ModeOperational {
		if time.Now().After(deadline) {
			t.Fatalf("sync-phase stuck: victim %v, peer %v", victim.Mode(), peer.Mode())
		}
		time.Sleep(time.Millisecond)
	}
	sameLog(t, peer, victim)

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for i, n := range frames {
		if n > budget+perBatch-1 {
			t.Errorf("frame %d carries %d records, want at most budget %d plus the rest of one batch", i, n, budget)
		}
		total += n
	}
	if missing := (batches - 1) * perBatch; len(frames) < 2 || total < missing {
		t.Errorf("recovery fetched %d records in %d catch-up frames %v, want the %d missing ones in several", total, len(frames), frames, missing)
	}
}
