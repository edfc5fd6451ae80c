package storage

import (
	"errors"
	"fmt"
	"time"
)

// The storage lifecycle (§5.2's background tiering, made explicit): a
// single goroutine that, on every tick (or kick from a trim),
//
//  1. reclaims fully-trimmed resident segments (PM garbage collection —
//     no cold write needed),
//  2. evicts the oldest fully-committed segments to the cold tier while
//     the PM resident set exceeds Config.PMBudget,
//  3. writes a checkpoint once Config.CheckpointEvery entries have been
//     flushed since the last one (see checkpoint.go), and
//  4. deletes cold blobs of segments that are fully dead AND covered by
//     the last durable checkpoint (their trim markers survive inside it —
//     the rule that makes cold GC crash-safe).
//
// Eviction claim protocol: a candidate is claimed under the allocator lock
// by setting segment.evicting, then its PM bytes are read and written to
// the cold tier with no lock held (claimed segments are never appended to,
// never committed into — they are fully committed — and the allocator
// refuses to reuse their slot, see flushOldest). Only after the cold copy
// is synced does the finalize step, back under the allocator lock, mark the
// segment flushed and free its slot, zeroing the slot header so the release
// is durable (freeSlotLocked). A crash between Put and Sync leaves a
// possibly-torn cold blob AND the intact PM copy; recovery takes the PM
// copy ("PM wins") and the torn blob is overwritten by the next eviction.
// A crash after Sync but before the header is zeroed leaves both copies
// whole, and PM wins again.

// CrashPoint selects where InjectCrash fires inside the lifecycle — the
// chaos engine's hooks for the two windows where tier state is split
// across devices.
type CrashPoint uint32

const (
	// CrashMidEviction crashes after the cold-tier Put of an evicted
	// segment but before its Sync (the torn-blob window).
	CrashMidEviction CrashPoint = 1
	// CrashMidCheckpoint crashes after the checkpoint blob's Put but
	// before its Sync (recovery must fall back to the previous one).
	CrashMidCheckpoint CrashPoint = 2
)

// ErrInjectedCrash is returned by lifecycle operations interrupted by an
// armed InjectCrash failpoint; the store is crashed when it is returned.
var ErrInjectedCrash = errors.New("storage: injected lifecycle crash")

// InjectCrash arms a one-shot failpoint: the next lifecycle operation that
// reaches the given point crashes the whole store (as Crash does) instead
// of completing. Used by the chaos engine and the crash-safety tests.
func (st *Store) InjectCrash(p CrashPoint) { st.failpoint.Store(uint32(p)) }

// lifecycle runs the background pass; created by Open when PMBudget or
// CheckpointEvery is set.
type lifecycle struct {
	st       *Store
	interval time.Duration
	kickCh   chan struct{}
	stopCh   chan struct{}
	doneCh   chan struct{}
}

func newLifecycle(st *Store, interval time.Duration) *lifecycle {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	lc := &lifecycle{
		st:       st,
		interval: interval,
		kickCh:   make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	go lc.run()
	return lc
}

// kick requests an immediate pass (non-blocking; coalesces).
func (lc *lifecycle) kick() {
	select {
	case lc.kickCh <- struct{}{}:
	default:
	}
}

func (lc *lifecycle) stop() {
	select {
	case <-lc.stopCh:
		return // already stopped
	default:
	}
	close(lc.stopCh)
	<-lc.doneCh
}

func (lc *lifecycle) run() {
	defer close(lc.doneCh)
	tick := time.NewTicker(lc.interval)
	defer tick.Stop()
	for {
		select {
		case <-lc.stopCh:
			return
		case <-tick.C:
		case <-lc.kickCh:
		}
		lc.st.lifecyclePass()
	}
}

// lifecyclePass runs one full background pass. Errors are swallowed: every
// step is retried on the next tick, and a crashed store simply fails each
// device access until Recover.
func (st *Store) lifecyclePass() {
	st.reclaimDeadResident()
	if st.cfg.PMBudget > 0 {
		for st.residentBytes() > st.cfg.PMBudget {
			if err := st.evictOldest(); err != nil {
				break
			}
		}
	}
	if st.cfg.CheckpointEvery > 0 {
		_ = st.writeCheckpoint(false)
	}
	st.gcCold()
}

// residentBytes returns the PM bytes occupied by resident segments.
func (st *Store) residentBytes() uint64 {
	st.alloc.RLock()
	defer st.alloc.RUnlock()
	var total uint64
	for _, seg := range st.segs {
		if !seg.flushed() {
			total += seg.used
		}
	}
	return total
}

// reclaimDeadResident drops fully-trimmed resident segments (PM GC): their
// slots become free without any cold-tier write. The trim markers they may
// contain are intentionally preserved only via the live color watermarks —
// the same semantics the on-demand reclaim in flushOldest has always had.
func (st *Store) reclaimDeadResident() {
	st.alloc.Lock()
	defer st.alloc.Unlock()
	for _, seg := range st.segs {
		if seg.flushed() || seg == st.active || seg.evicting.Load() || seg.live.Load() > 0 {
			continue
		}
		if !st.segmentFlushable(seg) {
			continue
		}
		st.gcSegments++
		st.gcBytes += seg.used
		st.freeSlotLocked(seg.slotIdx())
		st.dropSegmentLocked(seg)
	}
}

// freeSlotLocked returns a PM slot to the allocator and makes the release
// durable by zeroing the slot header. Recover replays every slot whose
// header parses, so the image left in a freed slot would otherwise shadow
// the evicted segment's checkpoint record (defeating the bounded replay)
// or bring a dropped segment's trimmed records back, for as long as the
// slot happened not to be reused. Callers that reuse the slot at once
// (flushOldest) overwrite the header themselves. Caller holds st.alloc.
func (st *Store) freeSlotLocked(slot int) {
	var zero [segHeaderSize]byte
	// A failed write means the device crashed under us; the image is then
	// replayed as it always was, which costs time, not correctness.
	_ = st.pm.Write(st.slots[slot], zero[:])
	st.slotSeg[slot] = nil
}

// evictOldest claims and evicts the oldest evictable resident segment.
// Returns an error when no candidate exists (PM is all active/uncommitted
// or already claimed) or the cold tier fails.
func (st *Store) evictOldest() error {
	st.alloc.Lock()
	var victim *segment
	for _, seg := range st.segs {
		if seg.flushed() || seg == st.active || seg.evicting.Load() {
			continue
		}
		if !st.segmentFlushable(seg) {
			continue
		}
		if victim == nil || seg.id < victim.id {
			victim = seg
		}
	}
	if victim == nil {
		st.alloc.Unlock()
		return fmt.Errorf("storage: no evictable segment")
	}
	victim.evicting.Store(true)
	used := victim.used
	st.alloc.Unlock()
	return st.evictSegment(victim, used)
}

// ForceEvict synchronously evicts the oldest evictable segment regardless
// of the PM budget (test and chaos hook).
func (st *Store) ForceEvict() error { return st.evictOldest() }

// ForceCheckpoint synchronously writes a checkpoint regardless of the
// uncovered-entry trigger (test and chaos hook).
func (st *Store) ForceCheckpoint() error { return st.writeCheckpoint(true) }

// evictSegment copies a claimed segment to the cold tier and, once the
// copy is durable, frees its PM slot. The claim is always released.
func (st *Store) evictSegment(seg *segment, used uint64) error {
	start := time.Now()
	release := func() {
		st.alloc.Lock()
		seg.evicting.Store(false)
		st.alloc.Unlock()
	}
	raw := make([]byte, used)
	if err := st.pm.Read(seg.pmOff, raw); err != nil {
		release()
		return err
	}
	if err := st.cold.Put(seg.ssdName(), raw); err != nil {
		release()
		return err
	}
	if st.failpoint.CompareAndSwap(uint32(CrashMidEviction), 0) {
		// The cold copy is written but not synced; the PM copy is intact.
		// Crash the whole store inside the window.
		seg.evicting.Store(false)
		st.Crash()
		return ErrInjectedCrash
	}
	if err := st.cold.Sync(); err != nil {
		release()
		return err
	}
	st.alloc.Lock()
	// Finalize only if the segment still owns its slot (a concurrent
	// Recover rebuilt the world while we were copying).
	if !seg.flushed() && seg.slotIdx() < len(st.slotSeg) && st.slotSeg[seg.slotIdx()] == seg {
		st.freeSlotLocked(seg.slotIdx())
		seg.slot.Store(-1)
		st.flushes++
		st.evictions++
		st.evictedBytes += used
		st.uncovered += uint64(seg.total)
	}
	seg.evicting.Store(false)
	st.alloc.Unlock()
	st.evictionH.Since(start)
	return nil
}

// gcCold deletes the cold blobs of fully-dead segments covered by the last
// durable checkpoint. Coverage is what makes the deletion crash-safe: the
// segment's trim markers live inside the checkpoint, so losing the blob
// loses no trim. Uncovered dead blobs wait for the next checkpoint.
func (st *Store) gcCold() {
	st.alloc.Lock()
	var victims []*segment
	for _, seg := range st.segs {
		if !seg.flushed() || seg.live.Load() > 0 || !st.ckptCovered[seg.id] {
			continue
		}
		victims = append(victims, seg)
	}
	for _, seg := range victims {
		st.gcSegments++
		st.gcBytes += seg.used
		st.dropSegmentLocked(seg)
	}
	st.alloc.Unlock()
	// Blob deletion outside the lock: the segments are no longer reachable
	// from any index, and Delete is idempotent if we crash between drop
	// and delete (recovery restores the covered segment as fully dead and
	// the next pass re-collects it).
	for _, seg := range victims {
		if err := st.cold.Delete(seg.ssdName()); err != nil {
			return
		}
	}
	if len(victims) > 0 {
		_ = st.cold.Sync()
	}
}
