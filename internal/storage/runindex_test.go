package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"flexlog/internal/types"
)

// The run index is checked against a reference model: a map from SN to
// the record holding it, the per-record index the run index replaced.
// Publishing, trimming and recovery follow the store's rules in the model
// record by record; the harness drives a store and the model with the same
// operations and compares every observable after each one.

// modelEntry is one persisted batch, in persist order.
type modelEntry struct {
	token   types.Token
	color   types.ColorID
	records [][]byte
	first   types.SN // InvalidSN until committed
	live    int
}

type modelRef struct{ entry, idx int }

type modelColor struct {
	owner   map[types.SN]modelRef
	maxSN   types.SN
	trimmed types.SN
}

type indexModel struct {
	entries []*modelEntry
	colors  map[types.ColorID]*modelColor
}

func newIndexModel() *indexModel {
	return &indexModel{colors: map[types.ColorID]*modelColor{}}
}

func (m *indexModel) color(c types.ColorID) *modelColor {
	mc := m.colors[c]
	if mc == nil {
		mc = &modelColor{owner: map[types.SN]modelRef{}}
		m.colors[c] = mc
	}
	return mc
}

func (m *indexModel) publish(e int, first types.SN) {
	en := m.entries[e]
	mc := m.color(en.color)
	for i := range en.records {
		s := first + types.SN(i)
		if _, taken := mc.owner[s]; taken || s <= mc.trimmed {
			en.live--
			continue
		}
		mc.owner[s] = modelRef{e, i}
		mc.maxSN = max(mc.maxSN, s)
	}
}

func (m *indexModel) trim(c types.ColorID, to types.SN) {
	mc := m.color(c)
	mc.trimmed = max(mc.trimmed, to)
	for s, ref := range mc.owner {
		if s <= to {
			delete(mc.owner, s)
			m.entries[ref.entry].live--
		}
	}
}

// recover rebuilds the model as Recover rebuilds the store: every
// committed entry published in persist order, then the trims.
func (m *indexModel) recover() {
	trims := map[types.ColorID]types.SN{}
	for c, mc := range m.colors {
		trims[c] = mc.trimmed
	}
	m.colors = map[types.ColorID]*modelColor{}
	for i, en := range m.entries {
		en.live = len(en.records)
		if en.first.Valid() {
			m.publish(i, en.first)
		}
	}
	for c, to := range trims {
		m.trim(c, to)
	}
}

// page is ScanFrom's result in the model: the SNs above after in order,
// capped at limit and rounded up while the next record is of the same
// entry as the last one taken.
func (m *indexModel) page(c types.ColorID, after types.SN, limit int) []types.SN {
	mc := m.color(c)
	var sns []types.SN
	for s := range mc.owner {
		if s > after {
			sns = append(sns, s)
		}
	}
	sort.Slice(sns, func(i, j int) bool { return sns[i] < sns[j] })
	if limit > 0 && len(sns) > limit {
		for limit < len(sns) && mc.owner[sns[limit]].entry == mc.owner[sns[limit-1]].entry {
			limit++
		}
		sns = sns[:limit]
	}
	return sns
}

const (
	modelSNs    = 48 // SN counters 1…modelSNs are in play
	modelColors = 2
)

// checkModel compares the store with the model: every SN's Get, Bounds,
// Stats().Committed, each entry's liveCount and dead, and one ScanFrom.
func checkModel(t testing.TB, st *Store, m *indexModel, after, limit int) {
	t.Helper()
	committed := 0
	for c := types.ColorID(1); c <= modelColors; c++ {
		mc := m.color(c)
		committed += len(mc.owner)
		for i := 1; i <= modelSNs+8; i++ {
			s := sn(i)
			got, err := st.Get(c, s)
			ref, ok := mc.owner[s]
			switch {
			case ok:
				if want := m.entries[ref.entry].records[ref.idx]; err != nil || !bytes.Equal(got, want) {
					t.Fatalf("get(%v, %v) = %q, %v; want %q", c, s, got, err, want)
				}
			case s <= mc.trimmed:
				if !errors.Is(err, ErrTrimmed) {
					t.Fatalf("get(%v, %v) of a trimmed SN = %q, %v", c, s, got, err)
				}
			case !errors.Is(err, ErrNotFound):
				t.Fatalf("get(%v, %v) of an unindexed SN = %q, %v", c, s, got, err)
			}
		}
		head, tail := st.Bounds(c)
		wantHead, wantTail := types.InvalidSN, types.InvalidSN
		for s := range mc.owner {
			if !wantHead.Valid() || s < wantHead {
				wantHead = s
			}
			wantTail = mc.maxSN
		}
		if head != wantHead || tail != wantTail {
			t.Fatalf("bounds(%v) = [%v, %v], want [%v, %v]", c, head, tail, wantHead, wantTail)
		}
		recs, err := st.ScanFrom(c, sn(after), limit)
		if err != nil {
			t.Fatal(err)
		}
		want := m.page(c, sn(after), limit)
		if len(recs) != len(want) {
			t.Fatalf("scanFrom(%v, %d, %d) returned %d records, want %d", c, after, limit, len(recs), len(want))
		}
		for i, r := range recs {
			ref := mc.owner[want[i]]
			en := m.entries[ref.entry]
			if r.SN != want[i] || r.Token != en.token || r.Color != c || !bytes.Equal(r.Data, en.records[ref.idx]) {
				t.Fatalf("scanFrom(%v, %d, %d)[%d] = %v/%v %q, want %v/%v %q", c, after, limit, i, r.SN, r.Token, r.Data, want[i], en.token, en.records[ref.idx])
			}
		}
	}
	if got := st.Stats().Committed; got != committed {
		t.Fatalf("Stats().Committed = %d, want %d", got, committed)
	}
	for _, en := range m.entries {
		loc := st.byToken[en.token]
		if loc == nil {
			t.Fatalf("entry %v lost", en.token)
		}
		if live, dead := int(loc.liveCount.Load()), loc.dead.Load(); live != en.live || dead != (en.live == 0) {
			t.Fatalf("entry %v: liveCount %d dead %v, want %d dead %v", en.token, live, dead, en.live, en.live == 0)
		}
	}
}

// runIndexModel drives a store and the model with the operations ops
// encodes, two bytes each, checking them against each other after every
// operation: persist a batch, commit a persisted batch at an SN in play
// (in or out of order, colliding or not, at or below a trim), trim a
// color, crash and recover.
func runIndexModel(t testing.TB, ops []byte) {
	cfg := TestConfig()
	cfg.SegmentSize, cfg.NumSegments, cfg.CacheBytes = 64<<10, 4, 2<<10
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := newIndexModel()
	var uncommitted []int
	for k := 0; k+1 < len(ops) && k < 128; k += 2 {
		op, arg := ops[k], int(ops[k+1])
		switch op % 8 {
		case 0, 1, 2: // persist a batch of 1…8 records
			n := arg%8 + 1
			e := &modelEntry{token: tok(len(m.entries) + 1), color: types.ColorID(op/8%modelColors + 1), live: n}
			for i := 0; i < n; i++ {
				e.records = append(e.records, []byte(fmt.Sprintf("e%d-r%d", len(m.entries)+1, i)))
			}
			if err := st.PutBatch(e.color, e.token, e.records); err != nil {
				t.Fatal(err)
			}
			m.entries = append(m.entries, e)
			uncommitted = append(uncommitted, len(m.entries)-1)
		case 3, 4, 5: // commit a persisted batch
			if len(uncommitted) == 0 {
				continue
			}
			j := int(op/8) % len(uncommitted)
			e := uncommitted[j]
			uncommitted = append(uncommitted[:j], uncommitted[j+1:]...)
			en := m.entries[e]
			first := arg%modelSNs + 1
			if err := st.Commit(en.token, sn(first+len(en.records)-1)); err != nil {
				t.Fatal(err)
			}
			en.first = sn(first)
			m.publish(e, en.first)
		case 6: // trim
			c := types.ColorID(op/8%modelColors + 1)
			to := sn(arg % (modelSNs + 8))
			if _, _, err := st.Trim(c, to); err != nil {
				t.Fatal(err)
			}
			m.trim(c, to)
		case 7: // crash and recover
			st.Crash()
			if err := st.Recover(); err != nil {
				t.Fatal(err)
			}
			m.recover()
		}
		checkModel(t, st, m, int(ops[k+1]/4)%modelSNs, int(op/8)%6)
	}
}

func TestRunIndexMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		ops := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(ops)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runIndexModel(t, ops) })
	}
}

// TestRunIndexSplitRuns pins the cases the model test reaches by chance: a
// commit colliding mid-batch leaves runs around the survivors, a page
// rounds up to the end of its batch but not across another batch between
// that batch's runs, and a trim landing mid-run cuts it.
func TestRunIndexSplitRuns(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	m := newIndexModel()
	put := func(n int) int {
		e := &modelEntry{token: tok(len(m.entries) + 1), color: colorA, live: n}
		for i := 0; i < n; i++ {
			e.records = append(e.records, []byte(fmt.Sprintf("e%d-r%d", len(m.entries)+1, i)))
		}
		if err := st.PutBatch(colorA, e.token, e.records); err != nil {
			t.Fatal(err)
		}
		m.entries = append(m.entries, e)
		return len(m.entries) - 1
	}
	commit := func(e, first int) {
		en := m.entries[e]
		if err := st.Commit(en.token, sn(first+len(en.records)-1)); err != nil {
			t.Fatal(err)
		}
		en.first = sn(first)
		m.publish(e, en.first)
	}
	x, y := put(2), put(8)
	commit(x, 5) // X holds 5, 6
	commit(y, 1) // Y: 1…4 and 7, 8 survive; 5, 6 die
	if got := len(st.color(colorA).runs); got != 3 {
		t.Fatalf("%d runs, want Y's two around X's", got)
	}
	for _, pg := range [][2]int{{0, 2}, {4, 1}, {5, 1}, {6, 1}, {0, 5}, {0, 0}} {
		checkModel(t, st, m, pg[0], pg[1])
	}
	recs, _ := st.ScanFrom(colorA, sn(0), 2)
	if len(recs) != 4 {
		t.Fatalf("a page of 2 from Y's first run holds %d records, want Y's 4", len(recs))
	}
	if _, _, err := st.Trim(colorA, sn(7)); err != nil {
		t.Fatal(err)
	}
	m.trim(colorA, sn(7))
	checkModel(t, st, m, 0, 1)
	if loc := st.byToken[m.entries[y].token]; loc.dead.Load() || loc.liveCount.Load() != 1 {
		t.Fatalf("Y after the trim: dead %v, %d live; want 1 live", loc.dead.Load(), loc.liveCount.Load())
	}
	// The largest SN, as a client may send it, pages nothing and trims all.
	if recs, err := st.ScanFrom(colorA, ^types.SN(0), 0); err != nil || len(recs) != 0 {
		t.Fatalf("scan above the largest SN = %d records, %v", len(recs), err)
	}
	if _, _, err := st.Trim(colorA, ^types.SN(0)); err != nil {
		t.Fatal(err)
	}
	m.trim(colorA, ^types.SN(0))
	checkModel(t, st, m, 0, 0)
}

func FuzzRunIndex(f *testing.F) {
	f.Add([]byte{0, 3, 3, 4, 0, 7, 11, 1, 6, 2, 7, 0})
	f.Add([]byte{0, 7, 8, 1, 3, 4, 11, 0, 6, 6, 0, 2, 3, 40, 7, 7})
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runIndexModel(t, ops) })
}
