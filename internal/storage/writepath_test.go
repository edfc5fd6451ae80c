package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexlog/internal/pmem"
	"flexlog/internal/types"
)

// TestParallelWritePathStress hammers the sharded-lock store the way the
// replica write lane does: one writer per color running PutBatch+Commit,
// concurrent trimmers sliding each color's window, and readers validating
// committed payloads — all with group commit folding the PM writes. Run
// with -race this exercises the per-color index locks, the narrow
// allocator lock, and the committer windows together.
func TestParallelWritePathStress(t *testing.T) {
	cfg := Config{SegmentSize: 16 << 10, NumSegments: 8, CacheBytes: 64 << 10, GroupCommit: true}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const colors = 8
	const perColor = 300
	payloadFor := func(c, i int) []byte {
		return []byte(fmt.Sprintf("color-%02d-rec-%05d", c, i))
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 2*colors)
	var trimFloor [colors]atomic.Uint32

	for c := 0; c < colors; c++ {
		color := types.ColorID(c + 1)
		// Writer: every color appends and commits its own SN sequence.
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 1; i <= perColor; i++ {
				tok := types.MakeToken(uint32(c+1), uint32(i))
				if err := st.PutBatch(color, tok, [][]byte{payloadFor(c, i)}); err != nil {
					errCh <- fmt.Errorf("color %d put %d: %w", c, i, err)
					return
				}
				if err := st.Commit(tok, types.MakeSN(1, uint32(i))); err != nil {
					errCh <- fmt.Errorf("color %d commit %d: %w", c, i, err)
					return
				}
			}
		}(c)
		// Trimmer+reader: slides a window behind the writer and spot-checks
		// records above the trim frontier.
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				max := st.MaxSN(color)
				if max.Valid() && max.Counter() > 100 {
					floor := max.Counter() - 100
					if _, _, err := st.Trim(color, types.MakeSN(1, floor)); err != nil {
						errCh <- fmt.Errorf("color %d trim: %w", c, err)
						return
					}
					trimFloor[c].Store(floor)
					// Read a committed record above the frontier.
					i := int(floor) + 50
					if data, err := st.Get(color, types.MakeSN(1, uint32(i))); err == nil {
						if !bytes.Equal(data, payloadFor(c, i)) {
							errCh <- fmt.Errorf("color %d corrupt read at %d: %q", c, i, data)
							return
						}
					}
				}
				if max.Valid() && max.Counter() >= perColor {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Full validation: every color's retained suffix reads back intact.
	for c := 0; c < colors; c++ {
		color := types.ColorID(c + 1)
		floor := trimFloor[c].Load()
		recs, err := st.ScanFrom(color, types.MakeSN(1, floor), 0)
		if err != nil {
			t.Fatalf("color %d scan: %v", c, err)
		}
		if len(recs) == 0 {
			t.Fatalf("color %d: empty retained log (floor %d)", c, floor)
		}
		for _, rec := range recs {
			want := payloadFor(c, int(rec.SN.Counter()))
			if !bytes.Equal(rec.Data, want) {
				t.Fatalf("color %d sn %v: got %q want %q", c, rec.SN, rec.Data, want)
			}
		}
	}
	if gs := st.Stats().GC; gs.Windows == 0 || gs.Ops == 0 {
		t.Fatalf("group committer idle: %+v", gs)
	}
}

// TestGroupCommitCrashMidWindow crashes the pool while a burst of
// concurrent PutBatches is in flight. The contract of the whole-window
// rollback: a batch whose persistence call RETURNED success was in a
// committed transaction and must survive recovery; a batch whose call
// returned an error was rolled back with its window and must be absent —
// nothing in between, and nothing committed may be lost.
func TestGroupCommitCrashMidWindow(t *testing.T) {
	cfg := TestConfig()
	cfg.GroupCommit = true
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Committed prefix: must survive verbatim.
	const committed = 24
	for i := 1; i <= committed; i++ {
		tok := types.MakeToken(1, uint32(i))
		if err := st.PutBatch(colorA, tok, [][]byte{payload(i)}); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(tok, sn(i)); err != nil {
			t.Fatal(err)
		}
	}

	// In-flight burst racing the crash.
	const burst = 32
	var persisted [burst + 1]atomic.Bool
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 1; i <= burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			tok := types.MakeToken(2, uint32(i))
			if err := st.PutBatch(colorB, tok, [][]byte{payload(1000 + i)}); err == nil {
				persisted[i].Store(true)
			}
		}(i)
	}
	close(start)
	st.Crash()
	wg.Wait()

	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}

	// The committed prefix is intact.
	for i := 1; i <= committed; i++ {
		data, err := st.Get(colorA, sn(i))
		if err != nil {
			t.Fatalf("committed record %d lost: %v", i, err)
		}
		if !bytes.Equal(data, payload(i)) {
			t.Fatalf("committed record %d corrupt: %q", i, data)
		}
	}
	// Burst batches: present iff their persistence call succeeded.
	for i := 1; i <= burst; i++ {
		tok := types.MakeToken(2, uint32(i))
		if persisted[i].Load() && !has(st, tok) {
			t.Fatalf("acked batch %d lost by crash", i)
		}
		if !persisted[i].Load() && has(st, tok) {
			t.Fatalf("failed batch %d resurrected by recovery", i)
		}
	}
	// Survivors are re-issued by Recover as uncommitted work.
	for _, b := range st.Uncommitted() {
		if b.Color != colorB {
			t.Fatalf("unexpected uncommitted color %v", b.Color)
		}
	}

	// The store is fully operational after recovery: the uncommitted
	// survivors can be committed and new appends flow through a fresh
	// committer window.
	next := 1
	for i := 1; i <= burst; i++ {
		tok := types.MakeToken(2, uint32(i))
		if !has(st, tok) {
			continue
		}
		if err := st.Commit(tok, types.MakeSN(1, uint32(next))); err != nil {
			t.Fatalf("post-recovery commit: %v", err)
		}
		next++
	}
	tok := types.MakeToken(3, 1)
	if err := st.PutBatch(colorA, tok, [][]byte{payload(9999)}); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}
	if err := st.Commit(tok, sn(committed+1)); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
	if data, err := st.Get(colorA, sn(committed+1)); err != nil || !bytes.Equal(data, payload(9999)) {
		t.Fatalf("post-recovery read: %v %q", err, data)
	}
}

// TestGroupCommitLeaderFollowerStress drives the committer alone: K
// goroutines submit under one lock (as PutBatch does under st.alloc) and
// wait outside it. Every write must be durable when its wait returns nil
// and windows cannot outnumber writes; writes that queue behind a running
// leader are committed together and released by the next one; Close waits
// for a running leader, drains, and refuses later writes.
func TestGroupCommitLeaderFollowerStress(t *testing.T) {
	pool, err := pmem.New(1<<20, pmem.Zero())
	if err != nil {
		t.Fatal(err)
	}
	g := newGroupCommitter(pool, nil, nil)
	const submitters, each = 8, 200
	base, err := pool.Alloc(8 * submitters * each)
	if err != nil {
		t.Fatal(err)
	}
	var order sync.Mutex // stands in for st.alloc: submission order = slot order
	next := 0
	var wg sync.WaitGroup
	for k := 0; k < submitters; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				order.Lock()
				slot := next
				next++
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(slot)+1)
				wait := g.submit(base+uint64(8*slot), buf[:], false, 0, 0)
				order.Unlock()
				if err := wait(); err != nil {
					t.Errorf("slot %d: %v", slot, err)
					return
				}
				var got [8]byte
				if err := pool.Read(base+uint64(8*slot), got[:]); err != nil || binary.LittleEndian.Uint64(got[:]) != uint64(slot)+1 {
					t.Errorf("slot %d not durable when its wait returned: %v %v", slot, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := g.stats()
	if st.Ops != submitters*each || st.Windows == 0 || st.Windows > st.Ops {
		t.Fatalf("ops = %d, windows = %d; want %d ops in at most as many windows", st.Ops, st.Windows, submitters*each)
	}

	// Followers: with a leader running (its lock held here), K writes
	// queue up; the next leader commits all of them as one window.
	g.commitMu.Lock()
	for k := 0; k < submitters; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if err := g.submit(base+uint64(8*k), []byte{byte(k)}, false, 0, 0)(); err != nil {
				t.Errorf("follower %d: %v", k, err)
			}
		}(k)
	}
	for queued := 0; queued < submitters; {
		time.Sleep(100 * time.Microsecond)
		g.mu.Lock()
		queued = len(g.pending)
		g.mu.Unlock()
	}
	g.commitMu.Unlock()
	wg.Wait()
	if got := g.stats().Windows - st.Windows; got != 1 {
		t.Fatalf("%d writes queued behind a leader took %d windows, want 1", submitters, got)
	}

	// Close races a leader: whichever wins, the write is either durable or
	// refused, and Close returns only once no transaction is running.
	done := make(chan error, 1)
	wait := g.submit(base, []byte{0xff}, false, 0, 0)
	go func() { done <- wait() }()
	g.close()
	if err := <-done; err != nil {
		t.Fatalf("write submitted before close: %v", err)
	}
	var got [1]byte
	if err := pool.Read(base, got[:]); err != nil || got[0] != 0xff {
		t.Fatalf("write submitted before close is not durable after it: %v %v", got, err)
	}
	if err := g.submit(base, []byte{0}, false, 0, 0)(); !errors.Is(err, ErrCommitterClosed) {
		t.Fatalf("submit after close: %v, want ErrCommitterClosed", err)
	}
}
