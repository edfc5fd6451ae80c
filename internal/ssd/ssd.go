// Package ssd simulates a flash block device accessed through the OS file
// interface. It is the "fileio" baseline of the paper's Figure 1, the
// overflow tier of FlexLog's storage stack (§5.2), and the backend of the
// Boki/RocksDB baseline (WAL + SSTables).
//
// The device exposes named append-oriented files with explicit Sync. To
// support failure injection it models the page cache: bytes written but not
// yet synced are lost on a simulated crash, which is exactly the behaviour
// the RocksDB baseline pays for with its per-batch WAL sync.
package ssd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"flexlog/internal/durable"
	"flexlog/internal/simclock"
)

var (
	// ErrNotFound is returned when the named file does not exist.
	ErrNotFound = errors.New("ssd: file not found")
	// ErrCrashed is returned between Crash and Recover.
	ErrCrashed = errors.New("ssd: device is in crashed state")
	// ErrOutOfRange is returned for reads beyond end of file.
	ErrOutOfRange = errors.New("ssd: read out of range")
)

// LatencyModel is the affine cost model of SSD accesses through the kernel.
type LatencyModel struct {
	ReadBase   time.Duration
	ReadPerKB  time.Duration
	WriteBase  time.Duration
	WritePerKB time.Duration
	SyncCost   time.Duration
}

// NVMe models a fast datacenter NVMe flash drive accessed via syscalls.
// Calibrated so the fileio curves of Figure 1 sit roughly an order of
// magnitude above the pmem curves across 64 B – 8 KiB blocks.
func NVMe() LatencyModel {
	return LatencyModel{
		ReadBase:   8 * time.Microsecond,
		ReadPerKB:  5 * time.Microsecond,
		WriteBase:  12 * time.Microsecond,
		WritePerKB: 8 * time.Microsecond,
		SyncCost:   80 * time.Microsecond,
	}
}

// Zero is the latency-free model used by unit tests.
func Zero() LatencyModel { return LatencyModel{} }

// ReadCost returns the modeled latency of reading n bytes.
func (m LatencyModel) ReadCost(n int) time.Duration {
	return m.ReadBase + m.ReadPerKB*time.Duration(n)/1024
}

// WriteCost returns the modeled latency of writing n bytes (without sync).
func (m LatencyModel) WriteCost(n int) time.Duration {
	return m.WriteBase + m.WritePerKB*time.Duration(n)/1024
}

// TimeOf returns the total modeled device time the counted operations
// would take (see pmem.LatencyModel.TimeOf).
func (m LatencyModel) TimeOf(s Stats) time.Duration {
	d := time.Duration(s.Reads)*m.ReadBase + m.ReadPerKB*time.Duration(s.BytesRead)/1024
	d += time.Duration(s.Writes)*m.WriteBase + m.WritePerKB*time.Duration(s.BytesWritten)/1024
	d += time.Duration(s.Syncs) * m.SyncCost
	return d
}

type file struct {
	data   []byte
	synced int // bytes guaranteed durable
}

// Device is a simulated SSD holding named files.
type Device struct {
	mu      sync.RWMutex
	files   map[string]*file
	model   LatencyModel
	crashed bool
	stats   Stats
}

// Stats counts device operations; the tags name the series a store
// publishes them as, its cold tier (see obs.Publish).
type Stats struct {
	Reads        uint64 `obs:"flexlog_tier_ops_total{op=get}" help:"Cold-tier blob operations, by op."`
	Writes       uint64 `obs:"flexlog_tier_ops_total{op=put}" help:"Cold-tier blob operations, by op."`
	Syncs        uint64 `obs:"flexlog_tier_ops_total{op=sync}" help:"Cold-tier blob operations, by op."`
	Deletes      uint64 `obs:"flexlog_tier_ops_total{op=delete}" help:"Cold-tier blob operations, by op."`
	BytesRead    uint64 `obs:"flexlog_tier_bytes_total{dir=out}" help:"Cold-tier bytes moved, by direction."`
	BytesWritten uint64 `obs:"flexlog_tier_bytes_total{dir=in}" help:"Cold-tier bytes moved, by direction."`
}

// New creates an empty device with the given latency model.
func New(model LatencyModel) *Device {
	return &Device{files: make(map[string]*file), model: model}
}

// Stats returns a snapshot of the operation counters.
func (d *Device) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.stats
}

// Create makes an empty file, truncating any existing one with that name.
func (d *Device) Create(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	d.files[name] = &file{}
	return nil
}

// Append writes data at the end of the named file (creating it if needed)
// and returns the offset at which the data begins. The data is volatile
// until Sync.
func (d *Device) Append(name string, data []byte) (int64, error) {
	d.mu.Lock()
	if d.crashed {
		d.mu.Unlock()
		return 0, ErrCrashed
	}
	f := d.files[name]
	if f == nil {
		f = &file{}
		d.files[name] = f
	}
	off := int64(len(f.data))
	f.data = append(f.data, data...)
	d.stats.Writes++
	d.stats.BytesWritten += uint64(len(data))
	d.mu.Unlock()
	simclock.Wait(d.model.WriteCost(len(data)))
	return off, nil
}

// WriteFile replaces the named file with data in one write, taking
// ownership of data: the caller must not modify it afterwards. Like Create
// followed by one Append, the bytes are volatile until Sync.
func (d *Device) WriteFile(name string, data []byte) error {
	d.mu.Lock()
	if d.crashed {
		d.mu.Unlock()
		return ErrCrashed
	}
	d.files[name] = &file{data: data}
	d.stats.Writes++
	d.stats.BytesWritten += uint64(len(data))
	d.mu.Unlock()
	simclock.Wait(d.model.WriteCost(len(data)))
	return nil
}

// ReadAt reads len(buf) bytes at offset off of the named file.
func (d *Device) ReadAt(name string, off int64, buf []byte) error {
	d.mu.RLock()
	if d.crashed {
		d.mu.RUnlock()
		return ErrCrashed
	}
	f := d.files[name]
	if f == nil {
		d.mu.RUnlock()
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if off < 0 || off+int64(len(buf)) > int64(len(f.data)) {
		d.mu.RUnlock()
		return ErrOutOfRange
	}
	copy(buf, f.data[off:])
	d.mu.RUnlock()
	d.mu.Lock()
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(buf))
	d.mu.Unlock()
	simclock.Wait(d.model.ReadCost(len(buf)))
	return nil
}

// Size returns the current length of the named file.
func (d *Device) Size(name string) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.crashed {
		return 0, ErrCrashed
	}
	f := d.files[name]
	if f == nil {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return int64(len(f.data)), nil
}

// Sync makes all appended bytes of the named file durable.
func (d *Device) Sync(name string) error {
	d.mu.Lock()
	if d.crashed {
		d.mu.Unlock()
		return ErrCrashed
	}
	f := d.files[name]
	if f == nil {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	f.synced = len(f.data)
	d.stats.Syncs++
	d.mu.Unlock()
	simclock.Wait(d.model.SyncCost)
	return nil
}

// Delete removes the named file, durably at once (no Sync needed).
// Deleting a missing file is a no-op.
func (d *Device) Delete(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	delete(d.files, name)
	d.stats.Deletes++
	return nil
}

// List returns the names of all files on the device.
func (d *Device) List() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	return names
}

// Occupancy returns the number of files on the device and their total
// length, unsynced bytes included (a crash drops those, and the next
// call no longer counts them).
func (d *Device) Occupancy() (files int, bytes uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, f := range d.files {
		bytes += uint64(len(f.data))
	}
	return len(d.files), bytes
}

// Crash simulates a power failure: unsynced bytes are dropped from every
// file and all operations fail until Recover.
func (d *Device) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = true
	for _, f := range d.files {
		f.data = f.data[:f.synced]
	}
}

// Recover makes the device usable again after Crash.
func (d *Device) Recover() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = false
}

// snapshot is the gob-serialized device image.
type snapshot struct {
	Files map[string][]byte
}

// SaveTo atomically snapshots the device's synced contents to a file, so a
// multi-process deployment preserves its flash tier across restarts.
// Only the synced prefix of each file is captured — exactly what a real
// power cycle would preserve.
func (d *Device) SaveTo(path string) error {
	d.mu.RLock()
	snap := snapshot{Files: make(map[string][]byte, len(d.files))}
	for name, f := range d.files {
		snap.Files[name] = append([]byte(nil), f.data[:f.synced]...)
	}
	d.mu.RUnlock()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return err
	}
	return durable.WriteFile(path, buf.Bytes(), 0o600)
}

// LoadFrom restores a device from a snapshot file.
func LoadFrom(path string, model LatencyModel) (*Device, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("ssd: decoding snapshot %s: %w", path, err)
	}
	d := New(model)
	for name, data := range snap.Files {
		d.files[name] = &file{data: append([]byte(nil), data...), synced: len(data)}
	}
	return d, nil
}
