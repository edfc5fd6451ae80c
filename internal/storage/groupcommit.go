package storage

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/combine"
	"flexlog/internal/obs"
	"flexlog/internal/pmem"
)

// ErrCommitterClosed is returned for writes submitted after Close.
var ErrCommitterClosed = errors.New("storage: group committer closed")

// groupCommitter is the PM group-commit engine (§5.2 sizing argument: PM
// latency, not software serialization, should bound append throughput).
// Every PM write goes through its combining queue (internal/combine): the
// writes that queue while a transaction runs are committed together as
// ONE pmem transaction — a write alone when the store is idle, at no cost
// over a direct transaction — amortizing the per-transaction overhead
// (undo-log snapshot + flush) with no committer goroutine to hand off to.
//
// Two further write reductions fall out of the window shape:
//
//   - contiguous fusion: entries reserved back-to-back in the same segment
//     occupy adjacent PM ranges, so their payload writes merge into one
//     tx.Put (one undo snapshot + one data write instead of N of each);
//   - watermark folding: each segment's used-bytes watermark is written
//     once per window, at its final value, instead of once per entry.
//
// Correctness of the watermark relies on ordering: ops are queued in
// reservation order (the callers hold the allocator lock across submit), a
// window is a prefix of that queue and the queue runs one window at a
// time, so a watermark value is only made durable in the same transaction
// as — or after — every entry it covers. A crash mid-window rolls the whole
// window back via the pmem undo log: every caller in the window is still
// blocked (no ack was sent), so nothing acknowledged is lost.
type groupCommitter struct {
	pm *pmem.Pool
	q  *combine.Queue[*gcOp]

	mu     sync.Mutex // orders submit against close
	closed bool

	parts [][]byte // one fused run's buffers; used by the committing waiter only

	windows atomic.Uint64 // transactions committed
	ops     atomic.Uint64 // writes submitted
	fused   atomic.Uint64 // payload writes saved by contiguous fusion

	txH     *obs.Histogram // PM transaction latency (nil-safe)
	windowH *obs.Histogram // full window latency: window cut → its writes marked done
}

// gcOp is one submitted PM write: the entry (or SN-rewrite) bytes plus an
// optional watermark update for the segment that received the entry.
type gcOp struct {
	off   uint64 // absolute PM offset of the write
	buf   []byte
	hasWM bool   // append ops advance their segment's watermark
	wmOff uint64 // segment base offset (the watermark cell)
	wmVal uint64 // watermark value after this entry
	err   error  // its window's outcome, set before the window returns
}

// maxWindow bounds ops folded into one transaction, so a burst cannot
// build an unboundedly large undo log.
const maxWindow = 512

func newGroupCommitter(pm *pmem.Pool, txH, windowH *obs.Histogram) *groupCommitter {
	g := &groupCommitter{pm: pm, txH: txH, windowH: windowH}
	g.q = combine.New(maxWindow, g.commit)
	return g
}

// submit queues one write; wait then blocks until the write's window is
// durable (or failed). Submitting under the allocator lock and waiting
// after releasing it is what lets concurrent callers share a window.
// Every submit must be followed by its wait: the waiters are who commit.
func (g *groupCommitter) submit(off uint64, buf []byte, hasWM bool, wmOff, wmVal uint64) (*gcOp, uint64) {
	op := &gcOp{off: off, buf: buf, hasWM: hasWM, wmOff: wmOff, wmVal: wmVal}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		op.err = ErrCommitterClosed
		return op, 0
	}
	g.ops.Add(1)
	return op, g.q.Add(op)
}

// wait returns op's window's error once it has committed or failed.
func (g *groupCommitter) wait(op *gcOp, ticket uint64) error {
	g.q.Wait(ticket)
	return op.err
}

// commit is the queue's flush: one window, one transaction.
func (g *groupCommitter) commit(window []*gcOp) {
	windowStart := time.Now()
	err := g.commitWindow(window)
	for _, op := range window {
		op.err = err
	}
	g.windowH.Since(windowStart)
}

// commitWindow folds the window into one transaction.
func (g *groupCommitter) commitWindow(window []*gcOp) error {
	txStart := time.Now()
	defer g.txH.Since(txStart)
	tx, err := g.pm.Begin()
	if err != nil {
		return err
	}
	// Contiguous fusion: a run of ops whose PM ranges are adjacent in
	// submission order (back-to-back reservations in one segment) is one
	// tx.PutV of their buffers.
	for i := 0; i < len(window); {
		parts := append(g.parts[:0], window[i].buf)
		for j := i + 1; j < len(window) && window[j].off == window[j-1].off+uint64(len(window[j-1].buf)); j++ {
			parts = append(parts, window[j].buf)
		}
		err := tx.PutV(window[i].off, parts...)
		g.fused.Add(uint64(len(parts) - 1))
		i += len(parts)
		clear(parts)
		g.parts = parts[:0]
		if err != nil {
			tx.Abort()
			return err
		}
	}
	// Watermark folding: one write per segment, at the window's final
	// value (ops are in reservation order, so the last value is the max).
	wmOrder := make([]uint64, 0, 4)
	wmVal := make(map[uint64]uint64, 4)
	for _, op := range window {
		if !op.hasWM {
			continue
		}
		if _, seen := wmVal[op.wmOff]; !seen {
			wmOrder = append(wmOrder, op.wmOff)
		}
		wmVal[op.wmOff] = op.wmVal
	}
	var wm [8]byte
	for _, off := range wmOrder {
		binary.LittleEndian.PutUint64(wm[:], wmVal[off])
		if err := tx.Put(off, wm[:]); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	g.windows.Add(1)
	return nil
}

// drain makes every write submitted so far durable (or failed), waiting
// out a running window.
func (g *groupCommitter) drain() {
	g.q.Wait(g.q.Last())
}

// close refuses further writes, then drains. Idempotent.
func (g *groupCommitter) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.drain()
}

// GCStats reports group-commit counters.
type GCStats struct {
	Windows uint64 // PM transactions committed
	Ops     uint64 // writes submitted
	Fused   uint64 // payload writes saved by contiguous fusion
}

func (g *groupCommitter) stats() GCStats {
	return GCStats{Windows: g.windows.Load(), Ops: g.ops.Load(), Fused: g.fused.Load()}
}
