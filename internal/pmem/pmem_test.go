package pmem

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestPool(t *testing.T, size int) *Pool {
	t.Helper()
	p, err := New(size, Zero())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRejectsTinyPool(t *testing.T) {
	if _, err := New(4, Zero()); err == nil {
		t.Fatal("expected error for pool smaller than header")
	}
}

func TestAllocBasics(t *testing.T) {
	p := newTestPool(t, 1024)
	off1, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if off1 != headerSize {
		t.Fatalf("first alloc at %d, want %d", off1, headerSize)
	}
	off2, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off1+100 {
		t.Fatalf("second alloc at %d, want %d", off2, off1+100)
	}
	if got := p.Allocated(); got != headerSize+200 {
		t.Fatalf("allocated = %d", got)
	}
}

func TestAllocErrors(t *testing.T) {
	p := newTestPool(t, 64)
	if _, err := p.Alloc(0); err == nil {
		t.Error("Alloc(0) should fail")
	}
	if _, err := p.Alloc(-1); err == nil {
		t.Error("Alloc(-1) should fail")
	}
	if _, err := p.Alloc(1000); !errors.Is(err, ErrOutOfSpace) {
		t.Errorf("oversized alloc: err = %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	p := newTestPool(t, 4096)
	off, _ := p.Alloc(16)
	want := []byte("hello, optane!!!")
	if err := p.Write(off, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := p.Read(off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	p := newTestPool(t, 64)
	if err := p.Write(60, make([]byte, 10)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write OOB: %v", err)
	}
	if err := p.Read(60, make([]byte, 10)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read OOB: %v", err)
	}
}

func TestAllocatorPersistsAcrossCrash(t *testing.T) {
	p := newTestPool(t, 1024)
	p.Alloc(100)
	p.Crash()
	p.Recover()
	off, err := p.Alloc(50)
	if err != nil {
		t.Fatal(err)
	}
	if off != headerSize+100 {
		t.Fatalf("post-recovery alloc at %d, want %d", off, headerSize+100)
	}
}

func TestCrashBlocksOperations(t *testing.T) {
	p := newTestPool(t, 1024)
	off, _ := p.Alloc(8)
	p.Crash()
	if !p.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if err := p.Write(off, make([]byte, 8)); !errors.Is(err, ErrCrashed) {
		t.Errorf("write while crashed: %v", err)
	}
	if err := p.Read(off, make([]byte, 8)); !errors.Is(err, ErrCrashed) {
		t.Errorf("read while crashed: %v", err)
	}
	if _, err := p.Alloc(8); !errors.Is(err, ErrCrashed) {
		t.Errorf("alloc while crashed: %v", err)
	}
	if _, err := p.Begin(); !errors.Is(err, ErrCrashed) {
		t.Errorf("begin while crashed: %v", err)
	}
	p.Recover()
	if p.Crashed() {
		t.Fatal("still crashed after Recover")
	}
	if err := p.Write(off, make([]byte, 8)); err != nil {
		t.Fatalf("write after recover: %v", err)
	}
}

func TestTxCommitDurable(t *testing.T) {
	p := newTestPool(t, 1024)
	off, _ := p.Alloc(8)
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(off, []byte("ABCDEFGH")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	p.Recover()
	got := make([]byte, 8)
	p.Read(off, got)
	if string(got) != "ABCDEFGH" {
		t.Fatalf("committed data lost: %q", got)
	}
}

func TestTxAbortRestores(t *testing.T) {
	p := newTestPool(t, 1024)
	off, _ := p.Alloc(8)
	p.Write(off, []byte("original"))
	tx, _ := p.Begin()
	tx.Put(off, []byte("mutated!"))
	// Mid-transaction the new data is visible (PMDK semantics).
	got := make([]byte, 8)
	p.Read(off, got)
	if string(got) != "mutated!" {
		t.Fatalf("in-tx read = %q", got)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	p.Read(off, got)
	if string(got) != "original" {
		t.Fatalf("abort did not restore: %q", got)
	}
}

func TestCrashRollsBackUncommitted(t *testing.T) {
	p := newTestPool(t, 1024)
	off, _ := p.Alloc(16)
	p.Write(off, []byte("0123456789abcdef"))
	tx, _ := p.Begin()
	tx.Put(off, []byte("XXXXXXXX"))
	tx.Put(off+8, []byte("YYYYYYYY"))
	p.Crash()
	p.Recover()
	got := make([]byte, 16)
	p.Read(off, got)
	if string(got) != "0123456789abcdef" {
		t.Fatalf("uncommitted tx survived crash: %q", got)
	}
	st := p.Stats()
	if st.RecoveryRollbks != 1 {
		t.Fatalf("recovery rollbacks = %d, want 1", st.RecoveryRollbks)
	}
	// The crashed tx is dead.
	if err := tx.Put(off, []byte("ZZZZZZZZ")); !errors.Is(err, ErrTxDone) {
		t.Fatalf("put on rolled-back tx: %v", err)
	}
}

func TestTxUndoOrderNestedOverwrites(t *testing.T) {
	// Two Puts to the same range: undo must restore the ORIGINAL value,
	// applying records in reverse order.
	p := newTestPool(t, 1024)
	off, _ := p.Alloc(4)
	p.Write(off, []byte("orig"))
	tx, _ := p.Begin()
	tx.Put(off, []byte("aaaa"))
	tx.Put(off, []byte("bbbb"))
	tx.Abort()
	got := make([]byte, 4)
	p.Read(off, got)
	if string(got) != "orig" {
		t.Fatalf("reverse undo broken: %q", got)
	}
}

func TestTxDoneErrors(t *testing.T) {
	p := newTestPool(t, 1024)
	off, _ := p.Alloc(4)
	tx, _ := p.Begin()
	tx.Commit()
	if err := tx.Put(off, []byte("aaaa")); !errors.Is(err, ErrTxDone) {
		t.Errorf("put after commit: %v", err)
	}
	if err := tx.Get(off, make([]byte, 4)); !errors.Is(err, ErrTxDone) {
		t.Errorf("get after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("abort after commit: %v", err)
	}
}

func TestTxGet(t *testing.T) {
	p := newTestPool(t, 1024)
	off, _ := p.Alloc(4)
	p.Write(off, []byte("data"))
	tx, _ := p.Begin()
	buf := make([]byte, 4)
	if err := tx.Get(off, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "data" {
		t.Fatalf("tx get = %q", buf)
	}
	tx.Commit()
}

func TestTxPutOutOfRange(t *testing.T) {
	p := newTestPool(t, 64)
	tx, _ := p.Begin()
	if err := tx.Put(60, make([]byte, 10)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("tx put OOB: %v", err)
	}
	tx.Abort()
}

func TestConcurrentDisjointTxs(t *testing.T) {
	p := newTestPool(t, 1<<16)
	const workers = 8
	offs := make([]uint64, workers)
	for i := range offs {
		offs[i], _ = p.Alloc(8)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tx, err := p.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				var v [8]byte
				putLeU64(v[:], uint64(i*1000+j))
				if err := tx.Put(offs[i], v[:]); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		var v [8]byte
		p.Read(offs[i], v[:])
		if got := leU64(v[:]); got != uint64(i*1000+99) {
			t.Errorf("worker %d final value = %d", i, got)
		}
	}
	if p.Stats().TxCommits != workers*100 {
		t.Fatalf("commits = %d", p.Stats().TxCommits)
	}
}

// Property: committed data survives crash+recover; uncommitted data never does.
func TestCrashConsistencyProperty(t *testing.T) {
	f := func(committed, pending []byte) bool {
		if len(committed) == 0 || len(committed) > 128 {
			committed = []byte("c")
		}
		if len(pending) == 0 || len(pending) > 128 {
			pending = []byte("p")
		}
		p, _ := New(4096, Zero())
		offC, _ := p.Alloc(len(committed))
		offP, _ := p.Alloc(len(pending))
		orig := bytes.Repeat([]byte{0xEE}, len(pending))
		p.Write(offP, orig)

		tx1, _ := p.Begin()
		tx1.Put(offC, committed)
		tx1.Commit()

		tx2, _ := p.Begin()
		tx2.Put(offP, pending)

		p.Crash()
		p.Recover()

		gotC := make([]byte, len(committed))
		gotP := make([]byte, len(pending))
		p.Read(offC, gotC)
		p.Read(offP, gotP)
		return bytes.Equal(gotC, committed) && bytes.Equal(gotP, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLeU64RoundTripProperty(t *testing.T) {
	f := func(v uint64) bool {
		var b [8]byte
		putLeU64(b[:], v)
		return leU64(b[:]) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounting(t *testing.T) {
	p := newTestPool(t, 1024)
	off, _ := p.Alloc(10)
	p.Write(off, make([]byte, 10))
	p.Read(off, make([]byte, 10))
	st := p.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.BytesWritten != 10 || st.BytesRead != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	p := newTestPool(t, 64)
	off, _ := p.Alloc(4)
	p.Write(off, []byte("abcd"))
	snap := p.Snapshot()
	p.Write(off, []byte("wxyz"))
	if string(snap[off:off+4]) != "abcd" {
		t.Fatal("snapshot aliases live arena")
	}
}

func TestLatencyModelCosts(t *testing.T) {
	bypass := OptaneBypass()
	syscall := OptaneSyscall()
	for _, n := range []int{64, 1024, 8192} {
		if bypass.ReadCost(n) >= syscall.ReadCost(n) {
			t.Errorf("bypass read should be cheaper than syscall at %dB", n)
		}
		if bypass.WriteCost(n) <= bypass.ReadCost(n) {
			t.Errorf("PM writes should cost more than reads at %dB", n)
		}
	}
	if bypass.ReadCost(8192) <= bypass.ReadCost(64) {
		t.Error("read cost should grow with size")
	}
	if z := Zero(); z.ReadCost(1024) != 0 || z.WriteCost(1024) != 0 {
		t.Error("zero model should be free")
	}
}

func TestLatencyInjectionApplies(t *testing.T) {
	// With a large modeled latency and injection enabled, ops must slow down.
	p, _ := New(1024, LatencyModel{ReadBase: 2 * time.Millisecond, WriteBase: 2 * time.Millisecond})
	off, _ := p.Alloc(8)
	prev := enableInjection(t)
	defer prev()
	start := time.Now()
	p.Write(off, make([]byte, 8))
	p.Read(off, make([]byte, 8))
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("latency not injected: %v", el)
	}
}

func TestTxString(t *testing.T) {
	p := newTestPool(t, 1024)
	tx, _ := p.Begin()
	if tx.String() == "" {
		t.Fatal("empty String()")
	}
	tx.Abort()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := newTestPool(t, 4096)
	off, _ := p.Alloc(16)
	p.Write(off, []byte("persist-me-12345"))
	path := t.TempDir() + "/pool.pmem"
	if err := p.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFrom(path, Zero())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := restored.Read(off, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist-me-12345" {
		t.Fatalf("restored = %q", got)
	}
	// The allocator state survived too (it lives in the arena header).
	off2, err := restored.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off+16 {
		t.Fatalf("post-restore alloc at %d, want %d", off2, off+16)
	}
}

func TestLoadFromRejectsCorruption(t *testing.T) {
	p := newTestPool(t, 1024)
	path := t.TempDir() + "/pool.pmem"
	if err := p.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(path, raw, 0o644)
	if _, err := LoadFrom(path, Zero()); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	// Garbage and missing files.
	os.WriteFile(path, []byte("junk"), 0o644)
	if _, err := LoadFrom(path, Zero()); err == nil {
		t.Fatal("junk accepted")
	}
	if _, err := LoadFrom(path+".missing", Zero()); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestTxUndoSurvivesRecycling: a finished transaction hands its undo log
// to the next Begin. An active transaction's pre-images must survive other
// transactions committing, aborting and reusing recycled logs, and Abort
// and Recover must restore its exact pre-image.
func TestTxUndoSurvivesRecycling(t *testing.T) {
	for _, rollback := range []string{"abort", "recover"} {
		t.Run(rollback, func(t *testing.T) {
			p := newTestPool(t, 4096)
			a, _ := p.Alloc(64)
			b, _ := p.Alloc(64)
			orig := bytes.Repeat([]byte("pre-image"), 8)[:64]
			if err := p.Write(a, orig); err != nil {
				t.Fatal(err)
			}
			tx1, _ := p.Begin()
			if err := tx1.Put(a, bytes.Repeat([]byte{1}, 40)); err != nil {
				t.Fatal(err)
			}
			// Other transactions finish, and reuse each other's logs, while
			// tx1 is open.
			for i := 0; i < 3; i++ {
				tx, _ := p.Begin()
				if err := tx.Put(b, bytes.Repeat([]byte{byte(10 + i)}, 64)); err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					tx.Abort()
				} else if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx1.PutV(a+20, []byte("ab"), nil, bytes.Repeat([]byte{2}, 42)); err != nil {
				t.Fatal(err)
			}
			if rollback == "abort" {
				if err := tx1.Abort(); err != nil {
					t.Fatal(err)
				}
			} else {
				p.Crash()
				p.Recover()
			}
			got := make([]byte, 64)
			p.Read(a, got)
			if !bytes.Equal(got, orig) {
				t.Fatalf("after %s: %q, want %q", rollback, got, orig)
			}
			p.Read(b, got)
			if !bytes.Equal(got, bytes.Repeat([]byte{12}, 64)) {
				t.Fatalf("committed neighbour changed by %s: %v", rollback, got)
			}
		})
	}
}

// TestTxFinishRacesRecover: a Commit or Abort that races the Recover
// rolling its transaction back either sees the crash or finds the
// transaction done. It never succeeds, and never touches the log Recover
// took.
func TestTxFinishRacesRecover(t *testing.T) {
	p := newTestPool(t, 4096)
	off, _ := p.Alloc(64)
	for i := 0; i < 200; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(off, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		p.Crash()
		done := make(chan struct{})
		go func() { p.Recover(); close(done) }()
		finish := tx.Commit
		if i%2 == 1 {
			finish = tx.Abort
		}
		if err := finish(); !errors.Is(err, ErrCrashed) && !errors.Is(err, ErrTxDone) {
			t.Fatalf("finish racing Recover = %v, want ErrCrashed or ErrTxDone", err)
		}
		<-done
		if err := finish(); !errors.Is(err, ErrTxDone) {
			t.Fatalf("finish after Recover = %v, want ErrTxDone", err)
		}
	}
}

// TestTxPutVIsOnePut: PutV of parts stores their concatenation and costs
// exactly what a Put of the joined bytes costs — one undo snapshot and one
// data write — and allocates nothing once the pool's undo log is warm.
func TestTxPutVIsOnePut(t *testing.T) {
	p := newTestPool(t, 4096)
	off, _ := p.Alloc(64)
	parts := [][]byte{[]byte("head"), {}, []byte("-middle-"), []byte("tail")}
	joined := bytes.Join(parts, nil)
	before := p.Stats()
	tx, _ := p.Begin()
	if err := tx.PutV(off, parts...); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(joined))
	p.Read(off, got)
	if !bytes.Equal(got, joined) {
		t.Fatalf("PutV stored %q, want %q", got, joined)
	}
	s := p.Stats()
	if w, n := s.Writes-before.Writes, s.BytesWritten-before.BytesWritten; w != 2 || n != 2*uint64(len(joined)) {
		t.Fatalf("PutV counted %d writes of %d bytes, want 2 of %d", w, n, 2*len(joined))
	}
	if err := tx.PutV(off, parts...); !errors.Is(err, ErrTxDone) {
		t.Fatalf("PutV on a committed tx: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tx, _ := p.Begin()
		tx.PutV(off, parts...)
		tx.Commit()
	}); allocs > 1 { // the Tx itself
		t.Fatalf("a warm transaction allocates %v times, want at most 1", allocs)
	}
}
