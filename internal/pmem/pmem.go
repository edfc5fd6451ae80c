// Package pmem simulates a byte-addressable persistent-memory device with a
// PMDK-style transactional update API.
//
// The original FlexLog stores its log in Intel Optane DC PM through PMDK's
// libpmemobj (BEGIN/PUT/GET/COMMIT/ROLLBACK). Optane is discontinued and not
// available in this environment, so this package provides the closest
// synthetic equivalent:
//
//   - a fixed-size arena addressed by byte offset, with a persistent bump
//     allocator whose state lives inside the arena header;
//   - load/store access with a calibrated latency model (kernel-bypass vs
//     syscall-mediated, per the paper's Figure 1);
//   - undo-log transactions: a crash before Commit rolls every transactional
//     store back, a crash after Commit preserves them — the same guarantee
//     libpmemobj gives;
//   - simulated power failure (Crash) and recovery (Recover), used by the
//     fault-injection tests and the Fig. 10 recovery experiment.
//
// Crash simulation note: the arena survives Crash in process memory (it
// stands in for the physical DIMM). Undo records for in-flight transactions
// also survive, mirroring libpmemobj, whose undo log itself resides in PM;
// Recover applies them exactly as PMDK's transaction recovery would.
package pmem

import (
	"errors"
	"fmt"
	"sync"
)

// Arena layout: an 8-byte header at offset 0 holds the persistent bump
// pointer. User allocations start at headerSize.
const headerSize = 8

// DataStart is the offset of the first allocation in any pool — exposed so
// re-attaching consumers (storage.Open with WithAttach) can locate their
// regions in a restored snapshot without re-allocating.
const DataStart uint64 = headerSize

var (
	// ErrCrashed is returned by operations attempted between Crash and Recover.
	ErrCrashed = errors.New("pmem: device is in crashed state")
	// ErrOutOfSpace is returned when an allocation does not fit.
	ErrOutOfSpace = errors.New("pmem: out of space")
	// ErrOutOfRange is returned for accesses outside the arena or an allocation.
	ErrOutOfRange = errors.New("pmem: access out of range")
	// ErrTxDone is returned when using a committed or aborted transaction.
	ErrTxDone = errors.New("pmem: transaction already finished")
)

// Pool is a simulated persistent-memory pool.
type Pool struct {
	mu      sync.RWMutex
	data    []byte
	model   LatencyModel
	crashed bool

	// active transactions, keyed by id; undo state stands in for the
	// PM-resident undo log of libpmemobj.
	txSeq  uint64
	active map[uint64]*Tx
	// spareUndo is the undo log of the last finished transaction, kept for
	// the next Begin.
	spareUndo *undoLog

	stats Stats
}

// Stats counts device operations, for the profiling experiments; the
// tags name the series a store publishes them as (see obs.Publish).
type Stats struct {
	Reads           uint64 `obs:"flexlog_pm_ops_total{op=read}" help:"Persistent-memory device operations, by op."`
	Writes          uint64 `obs:"flexlog_pm_ops_total{op=write}" help:"Persistent-memory device operations, by op."`
	BytesRead       uint64 `obs:"flexlog_pm_bytes_total{dir=read}" help:"Persistent-memory bytes moved, by direction."`
	BytesWritten    uint64 `obs:"flexlog_pm_bytes_total{dir=write}" help:"Persistent-memory bytes moved, by direction."`
	TxCommits       uint64 `obs:"flexlog_pm_tx_total{outcome=commit}" help:"Persistent-memory transactions, by outcome."`
	TxAborts        uint64 `obs:"flexlog_pm_tx_total{outcome=abort}" help:"Persistent-memory transactions, by outcome."`
	RecoveryRollbks uint64 `obs:"flexlog_pm_tx_total{outcome=rollback}" help:"Persistent-memory transactions, by outcome."`
}

// New creates an in-memory simulated PM pool of the given size with the
// given latency model.
func New(size int, model LatencyModel) (*Pool, error) {
	if size < headerSize {
		return nil, fmt.Errorf("pmem: pool size %d below minimum %d", size, headerSize)
	}
	p := &Pool{
		data:   newArena(size),
		model:  model,
		active: make(map[uint64]*Tx),
	}
	p.storeBump(headerSize)
	return p, nil
}

// Size returns the total pool size in bytes.
func (p *Pool) Size() int { return len(p.data) }

// Stats returns a snapshot of the operation counters.
func (p *Pool) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.stats
}

func (p *Pool) loadBump() uint64 {
	return leU64(p.data[0:8])
}

func (p *Pool) storeBump(v uint64) {
	putLeU64(p.data[0:8], v)
}

// Alloc reserves n bytes and returns the offset of the reservation. The
// allocator is a persistent bump pointer: its state is stored in the arena
// header, so allocations survive crash/recovery.
func (p *Pool) Alloc(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("pmem: invalid allocation size %d", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return 0, ErrCrashed
	}
	off := p.loadBump()
	if off+uint64(n) > uint64(len(p.data)) {
		return 0, ErrOutOfSpace
	}
	p.storeBump(off + uint64(n))
	return off, nil
}

// Allocated returns the number of bytes currently allocated (including the
// header).
func (p *Pool) Allocated() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.loadBump()
}

// Read copies len(buf) bytes starting at off into buf, charging the modeled
// read latency.
func (p *Pool) Read(off uint64, buf []byte) error {
	p.mu.RLock()
	if p.crashed {
		p.mu.RUnlock()
		return ErrCrashed
	}
	if off+uint64(len(buf)) > uint64(len(p.data)) {
		p.mu.RUnlock()
		return ErrOutOfRange
	}
	copy(buf, p.data[off:off+uint64(len(buf))])
	p.mu.RUnlock()
	p.model.waitRead(len(buf))
	p.count(func(s *Stats) { s.Reads++; s.BytesRead += uint64(len(buf)) })
	return nil
}

// Write stores data at off non-transactionally (the caller must ensure the
// write is idempotent or protected by a transaction), charging the modeled
// write latency.
func (p *Pool) Write(off uint64, data []byte) error {
	p.mu.Lock()
	if p.crashed {
		p.mu.Unlock()
		return ErrCrashed
	}
	if off+uint64(len(data)) > uint64(len(p.data)) {
		p.mu.Unlock()
		return ErrOutOfRange
	}
	copy(p.data[off:], data)
	p.mu.Unlock()
	p.model.waitWrite(len(data))
	p.count(func(s *Stats) { s.Writes++; s.BytesWritten += uint64(len(data)) })
	return nil
}

func (p *Pool) count(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// Crash simulates a power failure: all subsequent operations fail until
// Recover is called. In-flight transactions remain pending; Recover rolls
// them back.
func (p *Pool) Crash() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashed = true
}

// Recover simulates PMDK pool reopening after a crash: every transaction
// that had not committed is rolled back via its undo log, then the pool
// becomes usable again. Calling Recover on a healthy pool is a no-op.
func (p *Pool) Recover() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, tx := range p.active {
		tx.applyUndoLocked(p)
		tx.state = txAborted
		delete(p.active, id)
		p.stats.RecoveryRollbks++
	}
	p.crashed = false
}

// Snapshot returns a copy of the raw arena (test helper for verifying
// persistence semantics).
func (p *Pool) Snapshot() []byte {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]byte, len(p.data))
	copy(out, p.data)
	return out
}

func leU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
