package storage

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/pmem"
)

// ErrCommitterClosed is returned for writes submitted after Close.
var ErrCommitterClosed = errors.New("storage: group committer closed")

// groupCommitter is the PM group-commit engine (§5.2 sizing argument: PM
// latency, not software serialization, should bound append throughput).
// It batches because the device is busy, never because a timer says so:
// PutBatch/Commit callers submit their PM write and then wait for it, and
// the first waiter to find no transaction running becomes the leader — it
// commits everything submitted so far (its own write alone when the store
// is idle, at no cost over a direct transaction) as ONE pmem transaction
// and releases the followers that queued behind it. Writes submitted while
// that transaction runs form the next window. This is the classic group
// commit, amortizing the per-transaction overhead (undo-log snapshot +
// flush) across the window, with no committer goroutine to hand off to.
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
// window is a prefix of that queue and commitMu admits one leader at a
// time, so a watermark value is only made durable in the same transaction
// as — or after — every entry it covers. A crash mid-window rolls the whole
// window back via the pmem undo log: every caller in the window is still
// blocked (no ack was sent), so nothing acknowledged is lost.
type groupCommitter struct {
	pm *pmem.Pool

	mu      sync.Mutex // guards pending and closed; never held across a transaction
	pending []*gcOp    // submitted, not yet in a window; submission order
	closed  bool

	// commitMu is the leader lock: its holder commits windows. Waiters
	// queue on it, so a follower wakes to find its op already finished.
	// It also guards the ops' done/err fields.
	commitMu sync.Mutex

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
	done  bool   // its window committed or failed (guarded by commitMu)
	err   error
}

// maxWindow bounds ops folded into one transaction, so a burst cannot
// build an unboundedly large undo log.
const maxWindow = 512

func newGroupCommitter(pm *pmem.Pool, txH, windowH *obs.Histogram) *groupCommitter {
	return &groupCommitter{pm: pm, txH: txH, windowH: windowH}
}

// submit queues one write and returns a wait function that blocks until
// the write's window is durable (or failed). Submitting under the
// allocator lock and waiting after releasing it is what lets concurrent
// callers share a window. Every submit must be followed by its wait: the
// waiters are who commit.
func (g *groupCommitter) submit(off uint64, buf []byte, hasWM bool, wmOff, wmVal uint64) func() error {
	op := &gcOp{off: off, buf: buf, hasWM: hasWM, wmOff: wmOff, wmVal: wmVal}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return func() error { return ErrCommitterClosed }
	}
	g.pending = append(g.pending, op)
	g.mu.Unlock()
	g.ops.Add(1)
	return func() error {
		g.commitMu.Lock()
		defer g.commitMu.Unlock()
		for !op.done { // more than one pass only when maxWindow ops precede op
			g.commitNext()
		}
		return op.err
	}
}

// commitNext commits the oldest pending ops, at most maxWindow, as one
// transaction and marks them finished; false means nothing was pending.
// Caller holds commitMu.
func (g *groupCommitter) commitNext() bool {
	g.mu.Lock()
	window := g.pending
	g.pending = nil
	if len(window) > maxWindow {
		g.pending = append(g.pending, window[maxWindow:]...)
		window = window[:maxWindow]
	}
	g.mu.Unlock()
	if len(window) == 0 {
		return false
	}
	windowStart := time.Now()
	err := g.commitWindow(window)
	for _, op := range window {
		op.done, op.err = true, err
	}
	g.windowH.Since(windowStart)
	return true
}

// commitWindow folds the window into one transaction.
func (g *groupCommitter) commitWindow(window []*gcOp) error {
	txStart := time.Now()
	defer g.txH.Since(txStart)
	tx, err := g.pm.Begin()
	if err != nil {
		return err
	}
	// Contiguous fusion: merge runs of ops whose PM ranges are adjacent in
	// submission order (back-to-back reservations in one segment).
	for i := 0; i < len(window); {
		j := i + 1
		total := len(window[i].buf)
		for j < len(window) && window[j].off == window[j-1].off+uint64(len(window[j-1].buf)) {
			total += len(window[j].buf)
			j++
		}
		buf := window[i].buf
		if j-i > 1 {
			fused := make([]byte, 0, total)
			for k := i; k < j; k++ {
				fused = append(fused, window[k].buf...)
			}
			buf = fused
			g.fused.Add(uint64(j - i - 1))
		}
		if err := tx.Put(window[i].off, buf); err != nil {
			tx.Abort()
			return err
		}
		i = j
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

// drain makes every write submitted so far durable (or failed): it waits
// out a running leader, then commits what is still queued.
func (g *groupCommitter) drain() {
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	for g.commitNext() {
	}
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
