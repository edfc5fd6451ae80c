// Package tier holds no code: the store keeps its cold tier directly on an
// ssd.Device, one blob per file (a blob write is one WriteFile, synced by
// name). These tests pin the blob semantics the store relies on from that
// device; each runs as a subtest named after the device.
package tier

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"flexlog/internal/ssd"
)

// onDevice runs fn against a fresh zero-latency device.
func onDevice(t *testing.T, fn func(t *testing.T, d *ssd.Device)) {
	t.Run("ssd", func(t *testing.T) { fn(t, ssd.New(ssd.Zero())) })
}

// putBlob writes a whole blob the way the store does: one WriteFile.
func putBlob(t *testing.T, d *ssd.Device, name string, data []byte) {
	t.Helper()
	if err := d.WriteFile(name, data); err != nil {
		t.Fatal(err)
	}
}

func TestTierPutGetDeleteRoundTrip(t *testing.T) {
	onDevice(t, func(t *testing.T, d *ssd.Device) {
		data := []byte("the quick brown fox jumps over the lazy dog")
		putBlob(t, d, "blob-a", data)
		if err := d.Sync("blob-a"); err != nil {
			t.Fatal(err)
		}
		sz, err := d.Size("blob-a")
		if err != nil || sz != int64(len(data)) {
			t.Fatalf("Size = %d, %v", sz, err)
		}
		// Full and offset reads.
		buf := make([]byte, len(data))
		if err := d.ReadAt("blob-a", 0, buf); err != nil || !bytes.Equal(buf, data) {
			t.Fatalf("read full = %q, %v", buf, err)
		}
		part := make([]byte, 5)
		if err := d.ReadAt("blob-a", 4, part); err != nil || !bytes.Equal(part, data[4:9]) {
			t.Fatalf("read at offset = %q, %v", part, err)
		}
		// Out-of-range reads fail rather than truncate.
		if err := d.ReadAt("blob-a", int64(len(data))-2, make([]byte, 5)); err == nil {
			t.Fatal("out-of-range read succeeded")
		}
		// A second put replaces the blob wholesale.
		putBlob(t, d, "blob-a", []byte("short"))
		if err := d.Sync("blob-a"); err != nil {
			t.Fatal(err)
		}
		if sz, _ := d.Size("blob-a"); sz != 5 {
			t.Fatalf("replaced size = %d", sz)
		}
		// Delete, idempotently; both calls count.
		if err := d.Delete("blob-a"); err != nil {
			t.Fatal(err)
		}
		if err := d.Delete("blob-a"); err != nil {
			t.Fatal(err)
		}
		if n := d.Stats().Deletes; n != 2 {
			t.Fatalf("Deletes = %d, want 2", n)
		}
		if _, err := d.Size("blob-a"); !errors.Is(err, ssd.ErrNotFound) {
			t.Fatalf("Size after delete: %v", err)
		}
		if err := d.ReadAt("blob-a", 0, make([]byte, 1)); !errors.Is(err, ssd.ErrNotFound) {
			t.Fatalf("read after delete: %v", err)
		}
	})
}

func TestTierListAndStats(t *testing.T) {
	onDevice(t, func(t *testing.T, d *ssd.Device) {
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("n-%d", i)
			putBlob(t, d, name, bytes.Repeat([]byte{byte(i)}, 10+i))
			if err := d.Sync(name); err != nil {
				t.Fatal(err)
			}
		}
		names := d.List()
		sort.Strings(names)
		if len(names) != 5 || names[0] != "n-0" || names[4] != "n-4" {
			t.Fatalf("List = %v", names)
		}
		if s := d.Stats(); s.Writes != 5 || s.Syncs != 5 {
			t.Fatalf("stats = %+v", s)
		}
		if files, size := d.Occupancy(); files != 5 || size != 10+11+12+13+14 {
			t.Fatalf("occupancy = %d files, %d bytes", files, size)
		}
	})
}

// TestTierCrashSemantics: a synced blob survives a crash; an unsynced one
// is lost or truncated to its synced prefix.
func TestTierCrashSemantics(t *testing.T) {
	onDevice(t, func(t *testing.T, d *ssd.Device) {
		putBlob(t, d, "durable", []byte("synced bytes"))
		if err := d.Sync("durable"); err != nil {
			t.Fatal(err)
		}
		putBlob(t, d, "volatile", []byte("never synced"))
		d.Crash()
		d.Recover()
		buf := make([]byte, len("synced bytes"))
		if err := d.ReadAt("durable", 0, buf); err != nil || string(buf) != "synced bytes" {
			t.Fatalf("durable blob after crash: %q, %v", buf, err)
		}
		if sz, err := d.Size("volatile"); err == nil && sz == int64(len("never synced")) {
			t.Fatalf("unsynced blob survived the crash intact (%d bytes)", sz)
		} else if err != nil && !errors.Is(err, ssd.ErrNotFound) {
			t.Fatal(err)
		}
		if _, size := d.Occupancy(); size != uint64(len("synced bytes")) {
			t.Fatalf("occupancy after crash counts %d bytes", size)
		}
	})
}

// TestTierReopen: a device restored from its snapshot (the process-restart
// path) holds every synced blob and none of the unsynced bytes.
func TestTierReopen(t *testing.T) {
	onDevice(t, func(t *testing.T, d *ssd.Device) {
		putBlob(t, d, "kept", []byte("persistent"))
		if err := d.Sync("kept"); err != nil {
			t.Fatal(err)
		}
		putBlob(t, d, "dropped", []byte("volatile"))
		path := filepath.Join(t.TempDir(), "ssd")
		if err := d.SaveTo(path); err != nil {
			t.Fatal(err)
		}
		nd, err := ssd.LoadFrom(path, ssd.Zero())
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len("persistent"))
		if err := nd.ReadAt("kept", 0, buf); err != nil || string(buf) != "persistent" {
			t.Fatalf("reopened read = %q, %v", buf, err)
		}
		if sz, err := nd.Size("dropped"); err == nil && sz != 0 {
			t.Fatalf("unsynced blob carried across reopen (%d bytes)", sz)
		}
	})
}
