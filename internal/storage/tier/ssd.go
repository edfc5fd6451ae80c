package tier

import (
	"sync"

	"flexlog/internal/ssd"
)

// SSD is the cold store over an *ssd.Device: one blob per device file.
// Put replaces the file wholesale (Create truncates); Sync syncs only the
// files dirtied since the last Sync, so the durability barrier stays
// proportional to what was written, not to the blob population.
type SSD struct {
	dev *ssd.Device

	mu    sync.Mutex
	dirty map[string]bool
	stats Stats
}

// NewSSD wraps a device as the cold store.
func NewSSD(dev *ssd.Device) *SSD {
	return &SSD{dev: dev, dirty: make(map[string]bool)}
}

// Device exposes the underlying device (for snapshotting via ssd.SaveTo
// and for publishing the device-level counters next to the tier's).
func (t *SSD) Device() *ssd.Device { return t.dev }

// Put replaces the named blob (volatile until Sync): the file is truncated
// and rewritten.
func (t *SSD) Put(name string, data []byte) error {
	if err := t.dev.Create(name); err != nil {
		return err
	}
	if _, err := t.dev.Append(name, data); err != nil {
		return err
	}
	t.mu.Lock()
	t.dirty[name] = true
	t.stats.Puts++
	t.stats.BytesIn += uint64(len(data))
	t.mu.Unlock()
	return nil
}

// Get fills buf with the blob's bytes starting at off (ssd.ErrNotFound for
// a missing blob).
func (t *SSD) Get(name string, off int64, buf []byte) error {
	if err := t.dev.ReadAt(name, off, buf); err != nil {
		return err
	}
	t.mu.Lock()
	t.stats.Gets++
	t.stats.BytesOut += uint64(len(buf))
	t.mu.Unlock()
	return nil
}

// Delete removes the blob. Deleting a missing blob is not an error.
func (t *SSD) Delete(name string) error {
	if err := t.dev.Delete(name); err != nil {
		return err
	}
	t.mu.Lock()
	delete(t.dirty, name)
	t.stats.Deletes++
	t.mu.Unlock()
	return nil
}

// Size returns the blob's length, or ssd.ErrNotFound.
func (t *SSD) Size(name string) (int64, error) { return t.dev.Size(name) }

// List returns the names of all blobs (unordered).
func (t *SSD) List() []string { return t.dev.List() }

// Sync makes every previous Put durable: every file dirtied since the last
// Sync is synced.
func (t *SSD) Sync() error {
	t.mu.Lock()
	names := make([]string, 0, len(t.dirty))
	for name := range t.dirty {
		names = append(names, name)
	}
	t.mu.Unlock()
	for _, name := range names {
		if err := t.dev.Sync(name); err != nil {
			return err
		}
		t.mu.Lock()
		delete(t.dirty, name)
		t.mu.Unlock()
	}
	t.mu.Lock()
	t.stats.Syncs++
	t.mu.Unlock()
	return nil
}

// Stats returns the activity counters. Occupancy is computed from the device listing so
// it reflects crashes (unsynced blobs vanish) without bookkeeping drift.
func (t *SSD) Stats() Stats {
	t.mu.Lock()
	s := t.stats
	t.mu.Unlock()
	for _, name := range t.dev.List() {
		if sz, err := t.dev.Size(name); err == nil {
			s.Blobs++
			s.Bytes += uint64(sz)
		}
	}
	return s
}

// Crash simulates a power failure: unsynced writes are dropped.
func (t *SSD) Crash() {
	t.dev.Crash()
	t.mu.Lock()
	t.dirty = make(map[string]bool)
	t.mu.Unlock()
}

// Recover re-opens the store after a Crash.
func (t *SSD) Recover() { t.dev.Recover() }
