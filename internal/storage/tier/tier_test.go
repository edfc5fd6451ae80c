package tier

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"flexlog/internal/ssd"
)

// backends builds the cold store, paired with a reopen function that
// simulates a process restart over the same (surviving) media; the map key
// names the subtests.
func backends(t *testing.T) map[string]struct {
	tier   *SSD
	reopen func() *SSD
} {
	t.Helper()
	sdev := ssd.New(ssd.Zero())
	return map[string]struct {
		tier   *SSD
		reopen func() *SSD
	}{"ssd": {NewSSD(sdev), func() *SSD { return NewSSD(sdev) }}}
}

func TestTierPutGetDeleteRoundTrip(t *testing.T) {
	for kind, b := range backends(t) {
		t.Run(kind, func(t *testing.T) {
			tr := b.tier
			data := []byte("the quick brown fox jumps over the lazy dog")
			if err := tr.Put("blob-a", data); err != nil {
				t.Fatal(err)
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			sz, err := tr.Size("blob-a")
			if err != nil || sz != int64(len(data)) {
				t.Fatalf("Size = %d, %v", sz, err)
			}
			// Full and partial reads.
			buf := make([]byte, len(data))
			if err := tr.Get("blob-a", 0, buf); err != nil || !bytes.Equal(buf, data) {
				t.Fatalf("Get full = %q, %v", buf, err)
			}
			part := make([]byte, 5)
			if err := tr.Get("blob-a", 4, part); err != nil || !bytes.Equal(part, data[4:9]) {
				t.Fatalf("Get partial = %q, %v", part, err)
			}
			// Out-of-range reads fail rather than truncate.
			if err := tr.Get("blob-a", int64(len(data))-2, make([]byte, 5)); err == nil {
				t.Fatal("out-of-range Get succeeded")
			}
			// Overwrite replaces wholesale.
			if err := tr.Put("blob-a", []byte("short")); err != nil {
				t.Fatal(err)
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			if sz, _ := tr.Size("blob-a"); sz != 5 {
				t.Fatalf("overwritten size = %d", sz)
			}
			// Delete, idempotently.
			if err := tr.Delete("blob-a"); err != nil {
				t.Fatal(err)
			}
			if err := tr.Delete("blob-a"); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Size("blob-a"); !errors.Is(err, ssd.ErrNotFound) {
				t.Fatalf("Size after delete: %v", err)
			}
			if err := tr.Get("blob-a", 0, make([]byte, 1)); !errors.Is(err, ssd.ErrNotFound) {
				t.Fatalf("Get after delete: %v", err)
			}
		})
	}
}

func TestTierListAndStats(t *testing.T) {
	for kind, b := range backends(t) {
		t.Run(kind, func(t *testing.T) {
			tr := b.tier
			for i := 0; i < 5; i++ {
				if err := tr.Put(fmt.Sprintf("n-%d", i), bytes.Repeat([]byte{byte(i)}, 10+i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			names := tr.List()
			sort.Strings(names)
			if len(names) != 5 || names[0] != "n-0" || names[4] != "n-4" {
				t.Fatalf("List = %v", names)
			}
			s := tr.Stats()
			if s.Puts != 5 || s.Blobs != 5 {
				t.Fatalf("stats = %+v", s)
			}
			if s.Bytes != 10+11+12+13+14 {
				t.Fatalf("occupancy = %d", s.Bytes)
			}
		})
	}
}

// TestTierCrashSemantics: synced blobs survive a crash; unsynced puts and
// deletes do not happen.
func TestTierCrashSemantics(t *testing.T) {
	for kind, b := range backends(t) {
		t.Run(kind, func(t *testing.T) {
			tr := b.tier
			if err := tr.Put("durable", []byte("synced bytes")); err != nil {
				t.Fatal(err)
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			// Unsynced work: a new blob that must not survive.
			if err := tr.Put("volatile", []byte("never synced")); err != nil {
				t.Fatal(err)
			}
			tr.Crash()
			tr.Recover()
			buf := make([]byte, len("synced bytes"))
			if err := tr.Get("durable", 0, buf); err != nil || string(buf) != "synced bytes" {
				t.Fatalf("durable blob after crash: %q, %v", buf, err)
			}
			// An unsynced put must not survive intact: the blob is gone or
			// truncated to its synced prefix.
			if sz, err := tr.Size("volatile"); err == nil && sz == int64(len("never synced")) {
				t.Fatalf("unsynced blob survived the crash intact (%d bytes)", sz)
			} else if err != nil && !errors.Is(err, ssd.ErrNotFound) {
				t.Fatal(err)
			}
		})
	}
}

// TestTierReopen: a fresh instance over the surviving media (the
// process-restart path) sees every synced blob.
func TestTierReopen(t *testing.T) {
	for kind, b := range backends(t) {
		t.Run(kind, func(t *testing.T) {
			tr := b.tier
			if err := tr.Put("kept", []byte("persistent")); err != nil {
				t.Fatal(err)
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			nt := b.reopen()
			buf := make([]byte, len("persistent"))
			if err := nt.Get("kept", 0, buf); err != nil || string(buf) != "persistent" {
				t.Fatalf("reopened Get = %q, %v", buf, err)
			}
		})
	}
}
