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
// A segment leaves PM one way, whoever triggers it: reclaimDeadLocked picks
// the victim (reclaiming dead segments on the way, reclaimLocked), spill
// copies it to the cold tier, and retireSpilledLocked frees its slot. The
// append path's flushOldest runs them with the allocator lock held across
// the copy; the lifecycle's evictOldest claims the victim instead.
//
// Eviction claim protocol: a candidate is claimed under the allocator lock
// by setting segment.evicting, then its PM bytes are read and written to
// the cold tier with no lock held (claimed segments are never appended to,
// never committed into — they are fully committed — and the victim scan
// skips them, so their slot is never reused). Only after the cold copy is
// synced does the finalize step, back under the allocator lock, free the
// slot, zeroing the slot header so the release is durable
// (freeSlotLocked). A crash between the cold write and its sync leaves a
// possibly-torn cold blob AND the intact PM copy; recovery takes the PM
// copy ("PM wins") and the torn blob is overwritten by the next spill. A
// crash after the sync but before the header is zeroed leaves both copies
// whole, and PM wins again.

// CrashPoint selects where InjectCrash fires inside the lifecycle — the
// chaos engine's hooks for the two windows where tier state is split
// across devices.
type CrashPoint uint32

const (
	// CrashMidEviction crashes after the cold-tier write of a spilled
	// segment but before its sync (the torn-blob window), whether the
	// lifecycle or a segment roll started the spill.
	CrashMidEviction CrashPoint = 1
	// CrashMidCheckpoint crashes after the checkpoint blob's write but
	// before its sync (recovery must fall back to the previous one).
	CrashMidCheckpoint CrashPoint = 2
)

// ErrInjectedCrash is returned by operations interrupted by an armed
// InjectCrash failpoint; the store is crashed when it is returned.
var ErrInjectedCrash = errors.New("storage: injected lifecycle crash")

// InjectCrash arms a one-shot failpoint: the next operation that reaches
// the given point crashes the whole store (as Crash does) instead of
// completing. Used by the chaos engine and the crash-safety tests.
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
// slots become free without any cold-tier write.
func (st *Store) reclaimDeadResident() {
	st.alloc.Lock()
	st.reclaimDeadLocked()
	st.alloc.Unlock()
}

// reclaimDeadLocked is the one victim scan. A segment may leave PM once
// every entry in it is committed, unless it is the active segment or the
// lifecycle has claimed it. Of those, every fully-dead one is reclaimed
// (trimmed data needs no cold write) and the oldest of the rest is
// returned as the spill victim, or nil. segmentFlushable walks the
// segment's tokens, so a live segment pays it only when it would be the
// oldest so far. Caller holds st.alloc.
//
// The scan first drains the group committer. Entries are reserved under
// the allocator lock but written after it is released, and a trim marker
// pins nothing (segmentFlushable sees only record entries): without the
// drain a segment could leave PM with its marker still queued, copying no
// marker to the cold tier and later writing it into a slot the segment no
// longer owns. Holding st.alloc, no new entry can be reserved, so after
// the drain every entry of every candidate is durable.
func (st *Store) reclaimDeadLocked() *segment {
	st.gc.drain()
	var victim *segment
	for _, seg := range st.segs {
		if seg.flushed() || seg == st.active || seg.evicting.Load() {
			continue
		}
		if seg.live.Load() == 0 {
			if st.segmentFlushable(seg) {
				st.reclaimLocked(seg)
			}
		} else if (victim == nil || seg.id < victim.id) && st.segmentFlushable(seg) {
			victim = seg
		}
	}
	return victim
}

// reclaimLocked drops a fully-dead segment and the token index entries
// pointing into it: a resident one's PM slot is freed, a cold one's blob
// is deleted by gcCold afterwards. Its trim markers live on only in the
// color watermarks (and, for a cold segment, in the covering checkpoint).
// Caller holds st.alloc.
func (st *Store) reclaimLocked(seg *segment) {
	for _, tok := range seg.tokens {
		if loc := st.byToken[tok]; loc != nil && loc.seg == seg {
			delete(st.byToken, tok)
		}
	}
	if !seg.flushed() {
		st.freeSlotLocked(seg)
	}
	delete(st.segs, seg.id)
	st.gcSegments++
	st.gcBytes += seg.used
}

// spill copies the first used bytes of a resident segment to the cold
// tier and makes the copy durable: PM read → cold write → CrashMidEviction
// failpoint → sync. crash is how the failpoint crashes the store from the
// caller's lock state. The slot stays the segment's (retireSpilledLocked).
func (st *Store) spill(seg *segment, used uint64, crash func()) error {
	raw := make([]byte, used)
	if err := st.pm.Read(seg.pmOff, raw); err != nil {
		return err
	}
	name := seg.ssdName()
	if err := st.putBlob(name, raw); err != nil {
		return err
	}
	if st.failpoint.CompareAndSwap(uint32(CrashMidEviction), 0) {
		// The cold copy is written but not synced; the PM copy is intact.
		crash()
		return ErrInjectedCrash
	}
	return st.cold.Sync(name)
}

// retireSpilledLocked ends a spill: the segment lives on the cold tier
// only, and its slot is free. background marks a spill the lifecycle
// started (Evictions, EvictedBytes). Caller holds st.alloc.
func (st *Store) retireSpilledLocked(seg *segment, background bool) {
	if background {
		st.evictions++
		st.evictedBytes += seg.used
	}
	st.flushes++
	st.uncovered += uint64(seg.total)
	st.freeSlotLocked(seg)
}

// freeSlotLocked takes a segment out of its PM slot and returns the slot
// to the allocator. The segment is marked as gone from PM before anything
// can reuse the slot, which is what an unlocked reader revalidates against
// (readLive). The release is made durable by zeroing the slot header:
// Recover replays every slot whose header parses, so the image left in a
// freed slot would otherwise shadow the spilled segment's checkpoint
// record (defeating the bounded replay) or bring a dropped segment's
// trimmed records back, for as long as the slot happened not to be
// reused. Caller holds st.alloc.
func (st *Store) freeSlotLocked(seg *segment) {
	slot := seg.slotIdx()
	seg.slot.Store(-1)
	var zero [segHeaderSize]byte
	// A failed write means the device crashed under us; the image is then
	// replayed as it always was, which costs time, not correctness.
	_ = st.pm.Write(st.slots[slot], zero[:])
	st.slotSeg[slot] = nil
}

// evictOldest is the lifecycle's spill: it claims the oldest spillable
// segment under the allocator lock (reclaiming dead ones on the way),
// copies it with no lock held, and frees its slot once the copy is
// durable. The claim is always released. Returns an error when no
// candidate exists (PM is all active/uncommitted or already claimed) or
// the spill fails.
func (st *Store) evictOldest() error {
	start := time.Now()
	st.alloc.Lock()
	seg := st.reclaimDeadLocked()
	if seg == nil {
		st.alloc.Unlock()
		return fmt.Errorf("storage: no evictable segment")
	}
	seg.evicting.Store(true)
	used := seg.used
	st.alloc.Unlock()
	err := st.spill(seg, used, st.Crash)
	st.alloc.Lock()
	// Finalize only if the segment is still resident (a concurrent Recover
	// rebuilt the world while we were copying).
	if err == nil && !seg.flushed() {
		st.retireSpilledLocked(seg, true)
	}
	seg.evicting.Store(false)
	st.alloc.Unlock()
	if err == nil {
		st.evictionH.Since(start)
	}
	return err
}

// ForceEvict synchronously evicts the oldest evictable segment regardless
// of the PM budget (test and chaos hook).
func (st *Store) ForceEvict() error { return st.evictOldest() }

// ForceCheckpoint synchronously writes a checkpoint regardless of the
// uncovered-entry trigger (test and chaos hook).
func (st *Store) ForceCheckpoint() error { return st.writeCheckpoint(true) }

// putBlob writes a whole blob to the cold tier, replacing any previous one
// of that name; the bytes are volatile until the writer syncs the name.
func (st *Store) putBlob(name string, data []byte) error {
	if err := st.cold.Create(name); err != nil {
		return err
	}
	_, err := st.cold.Append(name, data)
	return err
}

// readBlob reads a whole blob off the cold tier.
func (st *Store) readBlob(name string) ([]byte, error) {
	sz, err := st.cold.Size(name)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, sz)
	if err := st.cold.ReadAt(name, 0, raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// gcCold deletes the cold blobs of fully-dead segments covered by the last
// durable checkpoint. Coverage is what makes the deletion crash-safe: the
// segment's trim markers live inside the checkpoint, so losing the blob
// loses no trim. Uncovered dead blobs wait for the next checkpoint.
func (st *Store) gcCold() {
	st.alloc.Lock()
	var victims []*segment
	for _, seg := range st.segs {
		if seg.flushed() && seg.live.Load() == 0 && st.ckptCovered[seg.id] {
			st.reclaimLocked(seg)
			victims = append(victims, seg)
		}
	}
	st.alloc.Unlock()
	// Blob deletion outside the lock: the segments are no longer reachable
	// from any index, a device Delete is durable at once, and it is
	// idempotent if we crash between drop and delete (recovery restores the
	// covered segment as fully dead and the next pass re-collects it).
	for _, seg := range victims {
		if err := st.cold.Delete(seg.ssdName()); err != nil {
			return
		}
	}
}
