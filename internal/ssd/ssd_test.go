package ssd

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"flexlog/internal/simclock"
)

func TestAppendReadRoundTrip(t *testing.T) {
	d := New(Zero())
	off1, err := d.Append("log", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	off2, err := d.Append("log", []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if off1 != 0 || off2 != 5 {
		t.Fatalf("offsets = %d, %d", off1, off2)
	}
	buf := make([]byte, 10)
	if err := d.ReadAt("log", 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "helloworld" {
		t.Fatalf("read = %q", buf)
	}
	sz, err := d.Size("log")
	if err != nil || sz != 10 {
		t.Fatalf("size = %d, %v", sz, err)
	}
}

func TestReadErrors(t *testing.T) {
	d := New(Zero())
	if err := d.ReadAt("missing", 0, make([]byte, 1)); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing file: %v", err)
	}
	d.Append("f", []byte("abc"))
	if err := d.ReadAt("f", 2, make([]byte, 5)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("OOB read: %v", err)
	}
	if err := d.ReadAt("f", -1, make([]byte, 1)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative offset: %v", err)
	}
	if _, err := d.Size("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("size of missing: %v", err)
	}
	if err := d.Sync("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("sync of missing: %v", err)
	}
}

func TestCreateTruncates(t *testing.T) {
	d := New(Zero())
	d.Append("f", []byte("old"))
	d.Create("f")
	sz, _ := d.Size("f")
	if sz != 0 {
		t.Fatalf("size after create = %d", sz)
	}
}

func TestUnsyncedDataLostOnCrash(t *testing.T) {
	d := New(Zero())
	d.Append("wal", []byte("durable!"))
	d.Sync("wal")
	d.Append("wal", []byte("volatile"))
	d.Crash()
	if _, err := d.Append("wal", []byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append while crashed: %v", err)
	}
	d.Recover()
	sz, _ := d.Size("wal")
	if sz != 8 {
		t.Fatalf("post-crash size = %d, want 8 (synced prefix only)", sz)
	}
	buf := make([]byte, 8)
	d.ReadAt("wal", 0, buf)
	if string(buf) != "durable!" {
		t.Fatalf("synced data corrupted: %q", buf)
	}
}

func TestCrashedOperationsFail(t *testing.T) {
	d := New(Zero())
	d.Append("f", []byte("x"))
	d.Crash()
	if err := d.Create("g"); !errors.Is(err, ErrCrashed) {
		t.Errorf("create: %v", err)
	}
	if err := d.ReadAt("f", 0, make([]byte, 1)); !errors.Is(err, ErrCrashed) {
		t.Errorf("read: %v", err)
	}
	if _, err := d.Size("f"); !errors.Is(err, ErrCrashed) {
		t.Errorf("size: %v", err)
	}
	if err := d.Sync("f"); !errors.Is(err, ErrCrashed) {
		t.Errorf("sync: %v", err)
	}
	if err := d.Delete("f"); !errors.Is(err, ErrCrashed) {
		t.Errorf("delete: %v", err)
	}
}

func TestDeleteAndList(t *testing.T) {
	d := New(Zero())
	d.Append("a", []byte("1"))
	d.Append("b", []byte("2"))
	if got := d.List(); len(got) != 2 {
		t.Fatalf("list = %v", got)
	}
	if err := d.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("a"); err != nil {
		t.Fatal("double delete should be a no-op")
	}
	if got := d.List(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("list after delete = %v", got)
	}
}

func TestConcurrentAppendsDisjointFiles(t *testing.T) {
	d := New(Zero())
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for i := 0; i < per; i++ {
				if _, err := d.Append(name, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		sz, _ := d.Size(string(rune('a' + w)))
		if sz != per {
			t.Fatalf("file %c size = %d", 'a'+w, sz)
		}
	}
}

// Property: sync watermark semantics — after any sequence of (append, sync?)
// steps and a crash, exactly the prefix up to the last sync survives.
func TestSyncWatermarkProperty(t *testing.T) {
	f := func(steps []bool) bool {
		d := New(Zero())
		want := 0
		total := 0
		for _, doSync := range steps {
			d.Append("f", []byte("abcd"))
			total += 4
			if doSync {
				d.Sync("f")
				want = total
			}
		}
		d.Crash()
		d.Recover()
		sz, err := d.Size("f")
		if len(steps) == 0 {
			return errors.Is(err, ErrNotFound)
		}
		return err == nil && int(sz) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyModelOrdering(t *testing.T) {
	m := NVMe()
	if m.ReadCost(64) <= 0 || m.WriteCost(64) <= m.ReadCost(64)-m.ReadCost(0) {
		t.Error("NVMe model degenerate")
	}
	if m.ReadCost(8192) <= m.ReadCost(64) {
		t.Error("cost should grow with size")
	}
	if m.SyncCost <= m.WriteCost(64) {
		t.Error("sync should dominate a small write")
	}
}

func TestLatencyInjectionApplies(t *testing.T) {
	prev := simclock.Enable(true)
	defer simclock.Enable(prev)
	d := New(LatencyModel{WriteBase: 2 * time.Millisecond, SyncCost: 2 * time.Millisecond})
	start := time.Now()
	d.Append("f", []byte("x"))
	d.Sync("f")
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("latency not injected: %v", el)
	}
}

func TestStats(t *testing.T) {
	d := New(Zero())
	d.Append("f", bytes.Repeat([]byte("x"), 10))
	d.ReadAt("f", 0, make([]byte, 5))
	d.Sync("f")
	st := d.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.Syncs != 1 || st.BytesWritten != 10 || st.BytesRead != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWriteFileOwnershipAndCrash: WriteFile replaces a file in one write,
// keeping the caller's buffer, and like Create+Append its bytes are lost
// on a crash until Sync.
func TestWriteFileOwnershipAndCrash(t *testing.T) {
	d := New(Zero())
	d.Append("f", []byte("old contents"))
	d.Sync("f")
	data := []byte("whole blob")
	if err := d.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := d.ReadAt("f", 0, buf); err != nil || string(buf) != "whole blob" {
		t.Fatalf("read = %q, %v", buf, err)
	}
	if s := d.Stats(); s.Writes != 2 || s.BytesWritten != uint64(len("old contents")+len(data)) {
		t.Fatalf("stats = %+v", s)
	}
	d.Crash()
	d.Recover()
	if sz, err := d.Size("f"); err != nil || sz != 0 {
		t.Fatalf("unsynced WriteFile survived a crash: size %d, %v", sz, err)
	}
	if err := d.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	d.Sync("f")
	d.Crash()
	if err := d.WriteFile("g", data); !errors.Is(err, ErrCrashed) {
		t.Fatalf("WriteFile on a crashed device: %v", err)
	}
	d.Recover()
	if err := d.ReadAt("f", 0, buf); err != nil || string(buf) != "whole blob" {
		t.Fatalf("synced WriteFile after crash = %q, %v", buf, err)
	}
}
