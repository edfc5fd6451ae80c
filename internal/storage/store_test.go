package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"flexlog/internal/types"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// has reports whether the token has been persisted (committed or not).
func has(st *Store, token types.Token) bool {
	_, known := st.TokenSN(token)
	return known
}

func smallConfig() Config {
	c := TestConfig()
	c.SegmentSize = 512
	c.NumSegments = 3
	c.CacheBytes = 1024
	return c
}

func tok(i int) types.Token { return types.MakeToken(1, uint32(i)) }
func sn(i int) types.SN     { return types.MakeSN(1, uint32(i)) }
func payload(i int) []byte  { return []byte(fmt.Sprintf("record-%04d", i)) }

const colorA types.ColorID = 1
const colorB types.ColorID = 2

func TestConfigValidation(t *testing.T) {
	c := TestConfig()
	c.SegmentSize = 10
	if _, err := Open(c); err == nil {
		t.Error("tiny segment size should be rejected")
	}
	c = TestConfig()
	c.NumSegments = 0
	if _, err := Open(c); err == nil {
		t.Error("zero segments should be rejected")
	}
}

func TestPutCommitGet(t *testing.T) {
	st := newTestStore(t)
	if err := st.Put(colorA, tok(1), payload(1)); err != nil {
		t.Fatal(err)
	}
	// Uncommitted records are invisible to reads.
	if _, err := st.Get(colorA, sn(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get before commit: %v", err)
	}
	if err := st.Commit(tok(1), sn(1)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(colorA, sn(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(1)) {
		t.Fatalf("get = %q", got)
	}
	if st.MaxSN(colorA) != sn(1) {
		t.Fatalf("maxSN = %v", st.MaxSN(colorA))
	}
}

func TestPutDuplicateToken(t *testing.T) {
	st := newTestStore(t)
	st.Put(colorA, tok(1), payload(1))
	if err := st.Put(colorA, tok(1), payload(1)); !errors.Is(err, ErrDuplicateToken) {
		t.Fatalf("duplicate put: %v", err)
	}
	if !has(st, tok(1)) || has(st, tok(2)) {
		t.Fatal("Has() wrong")
	}
}

func TestCommitIdempotentAndConflicting(t *testing.T) {
	st := newTestStore(t)
	st.Put(colorA, tok(1), payload(1))
	if err := st.Commit(tok(1), sn(5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(tok(1), sn(5)); err != nil {
		t.Fatalf("idempotent re-commit: %v", err)
	}
	if err := st.Commit(tok(1), sn(6)); err == nil {
		t.Fatal("conflicting re-commit should fail")
	}
	if err := st.Commit(tok(9), sn(1)); !errors.Is(err, ErrUnknownToken) {
		t.Fatalf("commit unknown token: %v", err)
	}
	if err := st.Commit(tok(1), types.InvalidSN); err == nil {
		t.Fatal("commit with invalid SN should fail")
	}
}

func TestTokenSN(t *testing.T) {
	st := newTestStore(t)
	st.Put(colorA, tok(1), payload(1))
	got, ok := st.TokenSN(tok(1))
	if !ok || got.Valid() {
		t.Fatalf("uncommitted TokenSN = %v, %v", got, ok)
	}
	st.Commit(tok(1), sn(3))
	got, ok = st.TokenSN(tok(1))
	if !ok || got != sn(3) {
		t.Fatalf("TokenSN = %v, %v", got, ok)
	}
	if _, ok := st.TokenSN(tok(99)); ok {
		t.Fatal("unknown token should report !ok")
	}
}

func TestColorsAreIsolated(t *testing.T) {
	st := newTestStore(t)
	st.Put(colorA, tok(1), payload(1))
	st.Commit(tok(1), sn(1))
	if _, err := st.Get(colorB, sn(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-color get: %v", err)
	}
	if st.MaxSN(colorB) != types.InvalidSN {
		t.Fatal("colorB should be empty")
	}
}

func TestScanSortedBySN(t *testing.T) {
	st := newTestStore(t)
	// Commit out of order.
	order := []int{3, 1, 2}
	for _, i := range order {
		st.Put(colorA, tok(i), payload(i))
	}
	for _, i := range order {
		st.Commit(tok(i), sn(i))
	}
	recs, err := st.Scan(colorA)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("scan len = %d", len(recs))
	}
	for i, r := range recs {
		if r.SN != sn(i+1) {
			t.Fatalf("scan[%d].SN = %v", i, r.SN)
		}
		if !bytes.Equal(r.Data, payload(i+1)) {
			t.Fatalf("scan[%d].Data = %q", i, r.Data)
		}
	}
	// Empty color scans cleanly.
	if recs, err := st.Scan(colorB); err != nil || len(recs) != 0 {
		t.Fatalf("empty scan = %v, %v", recs, err)
	}
}

func TestScanFrom(t *testing.T) {
	st := newTestStore(t)
	for i := 1; i <= 5; i++ {
		st.Put(colorA, tok(i), payload(i))
		st.Commit(tok(i), sn(i))
	}
	recs, err := st.ScanFrom(colorA, sn(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].SN != sn(4) || recs[1].SN != sn(5) {
		t.Fatalf("scanFrom = %v", recs)
	}
	// A limit caps the page, but never inside an append batch: with a
	// 3-record batch at SNs 6..8 a limit of 3 above SN 3 ships 4, 5 and the
	// whole batch, and a limit the page does not reach ships everything.
	st.PutBatch(colorA, tok(6), [][]byte{payload(6), payload(7), payload(8)})
	st.Commit(tok(6), sn(8))
	st.Put(colorA, tok(9), payload(9))
	st.Commit(tok(9), sn(9))
	for _, c := range []struct{ limit, want int }{{1, 1}, {2, 2}, {3, 5}, {5, 5}, {6, 6}, {7, 6}} {
		recs, err := st.ScanFrom(colorA, sn(3), c.limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != c.want {
			t.Errorf("limit %d: %d records, want %d", c.limit, len(recs), c.want)
		}
		for i, rec := range recs {
			if rec.SN != sn(4+i) || !bytes.Equal(rec.Data, payload(4+i)) {
				t.Errorf("limit %d: record %d = %v %q", c.limit, i, rec.SN, rec.Data)
			}
		}
	}
}

func TestTrim(t *testing.T) {
	st := newTestStore(t)
	for i := 1; i <= 5; i++ {
		st.Put(colorA, tok(i), payload(i))
		st.Commit(tok(i), sn(i))
	}
	head, tail, err := st.Trim(colorA, sn(3))
	if err != nil {
		t.Fatal(err)
	}
	if head != sn(4) || tail != sn(5) {
		t.Fatalf("bounds after trim = %v, %v", head, tail)
	}
	for i := 1; i <= 3; i++ {
		if _, err := st.Get(colorA, sn(i)); !errors.Is(err, ErrTrimmed) {
			t.Errorf("get trimmed sn(%d): %v", i, err)
		}
	}
	if _, err := st.Get(colorA, sn(4)); err != nil {
		t.Errorf("get surviving record: %v", err)
	}
	// Trim does not leak into other colors.
	st.Put(colorB, tok(10), payload(10))
	st.Commit(tok(10), sn(1))
	if _, err := st.Get(colorB, sn(1)); err != nil {
		t.Errorf("colorB record lost to colorA trim: %v", err)
	}
}

func TestCommitBelowTrimWatermarkIsDead(t *testing.T) {
	st := newTestStore(t)
	st.Put(colorA, tok(1), payload(1))
	st.Trim(colorA, sn(10))
	st.Commit(tok(1), sn(5)) // commit races behind a trim
	if _, err := st.Get(colorA, sn(5)); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("get of late-committed trimmed record: %v", err)
	}
}

func TestBoundsEmpty(t *testing.T) {
	st := newTestStore(t)
	h, tl := st.Bounds(colorA)
	if h.Valid() || tl.Valid() {
		t.Fatal("bounds of empty color should be invalid")
	}
}

func TestUncommitted(t *testing.T) {
	st := newTestStore(t)
	st.Put(colorA, tok(1), payload(1))
	st.Put(colorA, tok(2), payload(2))
	st.Commit(tok(1), sn(1))
	un := st.Uncommitted()
	if len(un) != 1 || un[0].Token != tok(2) {
		t.Fatalf("uncommitted = %v", un)
	}
	if len(un[0].Records) != 1 || !bytes.Equal(un[0].Records[0], payload(2)) {
		t.Fatalf("uncommitted data = %q", un[0].Records)
	}
}

func TestSegmentRolloverAndFlushToSSD(t *testing.T) {
	st, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Each entry is 32 + 11 = 43 bytes; a 512-byte segment fits 11 entries.
	// Write enough to force flushes to SSD.
	const n = 100
	for i := 1; i <= n; i++ {
		if err := st.Put(colorA, tok(i), payload(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if err := st.Commit(tok(i), sn(i)); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	stats := st.Stats()
	if stats.Flushes == 0 {
		t.Fatal("expected segment flushes to SSD")
	}
	// All records must still be readable (some from SSD).
	for i := 1; i <= n; i++ {
		got, err := st.Get(colorA, sn(i))
		if err != nil {
			t.Fatalf("get %d after flush: %v", i, err)
		}
		if !bytes.Equal(got, payload(i)) {
			t.Fatalf("get %d = %q", i, got)
		}
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	st, _ := Open(smallConfig())
	if err := st.Put(colorA, tok(1), make([]byte, 1024)); err == nil {
		t.Fatal("oversized record should be rejected")
	}
}

func TestUncommittedBlocksFlushUntilOutOfSpace(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSegments = 2
	st, _ := Open(cfg)
	// Fill PM with uncommitted records only: nothing is flushable, so the
	// store must eventually report out of space rather than lose data.
	var lastErr error
	for i := 1; i <= 1000; i++ {
		lastErr = st.Put(colorA, tok(i), payload(i))
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrOutOfSpace) {
		t.Fatalf("expected ErrOutOfSpace, got %v", lastErr)
	}
}

func TestRecoveryRebuildsIndexes(t *testing.T) {
	st, _ := Open(smallConfig())
	const n = 60
	for i := 1; i <= n; i++ {
		st.Put(colorA, tok(i), payload(i))
		st.Commit(tok(i), sn(i))
	}
	st.Put(colorB, tok(1000), payload(1000)) // uncommitted survivor
	st.Trim(colorA, sn(10))

	st.Crash()
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}

	// Committed, untrimmed records are intact.
	for i := 11; i <= n; i++ {
		got, err := st.Get(colorA, sn(i))
		if err != nil {
			t.Fatalf("get %d after recovery: %v", i, err)
		}
		if !bytes.Equal(got, payload(i)) {
			t.Fatalf("get %d = %q", i, got)
		}
	}
	// Trimmed records stay trimmed.
	if _, err := st.Get(colorA, sn(5)); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("trimmed record resurrected: %v", err)
	}
	// Uncommitted record is still awaiting an SN.
	un := st.Uncommitted()
	if len(un) != 1 || un[0].Token != tok(1000) {
		t.Fatalf("uncommitted after recovery = %v", un)
	}
	if st.MaxSN(colorA) != sn(n) {
		t.Fatalf("maxSN after recovery = %v", st.MaxSN(colorA))
	}
	// The store remains writable after recovery.
	if err := st.Put(colorB, tok(2000), payload(2000)); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	if err := st.Commit(tok(2000), types.MakeSN(1, 999)); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
}

func TestRecoveryIsRepeatable(t *testing.T) {
	st, _ := Open(smallConfig())
	for i := 1; i <= 30; i++ {
		st.Put(colorA, tok(i), payload(i))
		st.Commit(tok(i), sn(i))
	}
	for round := 0; round < 3; round++ {
		st.Crash()
		if err := st.Recover(); err != nil {
			t.Fatalf("recovery round %d: %v", round, err)
		}
	}
	for i := 1; i <= 30; i++ {
		if _, err := st.Get(colorA, sn(i)); err != nil {
			t.Fatalf("get %d after repeated recovery: %v", i, err)
		}
	}
	if st.Stats().Recoveries != 3 {
		t.Fatalf("recoveries = %d", st.Stats().Recoveries)
	}
}

func TestCachePathServesReads(t *testing.T) {
	st := newTestStore(t)
	st.Put(colorA, tok(1), payload(1))
	st.Commit(tok(1), sn(1))
	st.Get(colorA, sn(1)) // commit pre-populates; this should hit
	stats := st.Stats()
	if stats.CacheHits == 0 {
		t.Fatalf("expected cache hits, stats = %+v", stats)
	}
}

func TestCacheDisabled(t *testing.T) {
	cfg := TestConfig()
	cfg.CacheBytes = 0
	st, _ := Open(cfg)
	st.Put(colorA, tok(1), payload(1))
	st.Commit(tok(1), sn(1))
	got, err := st.Get(colorA, sn(1))
	if err != nil || !bytes.Equal(got, payload(1)) {
		t.Fatalf("get with cache off = %q, %v", got, err)
	}
	if h, _ := st.cache.stats(); h != 0 {
		t.Fatal("disabled cache recorded hits")
	}
}

func TestConcurrentPutCommitGet(t *testing.T) {
	st := newTestStore(t)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := w*per + i + 1
				token := types.MakeToken(uint32(w+1), uint32(i))
				if err := st.Put(colorA, token, payload(id)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if err := st.Commit(token, sn(id)); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if _, err := st.Get(colorA, sn(id)); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	recs, _ := st.Scan(colorA)
	if len(recs) != workers*per {
		t.Fatalf("scan found %d records, want %d", len(recs), workers*per)
	}
}

// Property: after any interleaving of puts/commits/trims followed by crash
// and recovery, the committed-and-untrimmed set is exactly preserved.
func TestRecoveryPreservesCommittedProperty(t *testing.T) {
	f := func(commitMask uint16, trimAt uint8) bool {
		st, err := Open(smallConfig())
		if err != nil {
			return false
		}
		const n = 16
		committed := map[int]bool{}
		for i := 1; i <= n; i++ {
			if st.Put(colorA, tok(i), payload(i)) != nil {
				return false
			}
			if commitMask&(1<<(i-1)) != 0 {
				if st.Commit(tok(i), sn(i)) != nil {
					return false
				}
				committed[i] = true
			}
		}
		trim := int(trimAt % n)
		if trim > 0 {
			st.Trim(colorA, sn(trim))
		}
		st.Crash()
		if st.Recover() != nil {
			return false
		}
		for i := 1; i <= n; i++ {
			data, err := st.Get(colorA, sn(i))
			switch {
			case committed[i] && i > trim:
				if err != nil || !bytes.Equal(data, payload(i)) {
					return false
				}
			default:
				if err == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsShape(t *testing.T) {
	st := newTestStore(t)
	st.Put(colorA, tok(1), payload(1))
	st.Commit(tok(1), sn(1))
	s := st.Stats()
	if s.Records != 1 || s.Committed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
