// Package storage implements the replica storage stack of FlexLog (§5.2):
// a volatile DRAM cache on top of a crash-consistent persistent-memory log,
// with an SSD tier that absorbs the oldest part of the log when PM fills up.
//
// Writes land in PM (and the cache); reads consult the cache, then PM, then
// the SSD. The PM log is segmented; when no PM segment slot is free, the
// oldest fully-committed segment is flushed verbatim to the SSD and its slot
// is reused. Recovery rebuilds all volatile indexes by scanning the PM slots
// and flushed SSD segments — the linear cost measured by the paper's Fig. 10.
//
// One storage entry corresponds to one append batch (Alg. 1's records[]):
// the batch is framed into a single crash-consistent entry and, once the
// ordering layer assigns the batch its SN range, indexed as one run of
// SNs and cached as one unit. Volatile bookkeeping is paid per batch, not
// per record.
//
// Concurrency model (the parallel write path): the store is sharded by
// color. Each color's volatile index (runs, maxSN, trimmed) has its own
// RWMutex, so commits, trims and reads of different colors never contend.
// A narrow allocator lock (st.alloc) guards the shared segment machinery:
// slot table, active segment, the token index, and segment bookkeeping.
// Lock order is color lock → allocator lock; nothing acquires a color lock
// while holding the allocator lock (Crash/Recover, which need both, take
// every color lock first). Mutable per-entry state (firstSN, liveCount,
// dead) and the per-segment slot/live fields are atomics: they are written
// under the owning color's lock but read lock-free from allocator paths.
// Every PM write flows through the group-commit engine (see
// groupcommit.go): concurrent writers share one pmem transaction.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/pmem"
	"flexlog/internal/ssd"
	"flexlog/internal/types"
)

var (
	// ErrNotFound is returned when no committed record has the given SN.
	ErrNotFound = errors.New("storage: record not found")
	// ErrTrimmed is returned when the requested SN was garbage collected.
	ErrTrimmed = errors.New("storage: record trimmed")
	// ErrDuplicateToken is returned when a token was already persisted.
	ErrDuplicateToken = errors.New("storage: duplicate token")
	// ErrUnknownToken is returned by Commit for a token never persisted.
	ErrUnknownToken = errors.New("storage: unknown token")
	// ErrOutOfSpace is returned when PM is full and nothing can be flushed.
	ErrOutOfSpace = errors.New("storage: out of space")
	// ErrEvicted is returned when a record's segment was evicted to the
	// cold tier and the cold copy could not be read (the tier is crashed
	// or the blob is gone). The condition is transient across recovery;
	// the replica read path retries before reporting it to clients.
	ErrEvicted = errors.New("storage: record evicted and cold tier unreadable")
	// ErrCheckpointTruncated qualifies ErrTrimmed: the SN lies at or below
	// the recovery floor of the checkpoint this store restored from, so
	// the record is gone even if its trim marker was never replayed.
	ErrCheckpointTruncated = errors.New("storage: record below checkpoint recovery floor")
)

// errRollWaited is returned by a segment roll that waited for a lifecycle
// eviction to end (flushOldest). The wait released the allocator lock, so
// whatever the caller checked under it is stale: it starts over.
var errRollWaited = errors.New("storage: segment roll waited for an eviction")

// errCheckpointTrimmed matches both ErrTrimmed (the long-standing miss
// sentinel) and ErrCheckpointTruncated (the cause).
var errCheckpointTrimmed = fmt.Errorf("%w (%w)", ErrTrimmed, ErrCheckpointTruncated)

// Config sizes the storage stack.
type Config struct {
	SegmentSize uint64 // bytes per PM segment (including 16-byte header)
	NumSegments int    // PM slots
	// CacheBytes caps the DRAM the cache pins; 0 disables the cache. An
	// entry cached at its commit is charged its full framed length.
	CacheBytes int
	// GroupCommit is inert: every store commits through the group
	// committer. Kept until the benchmark module stops setting it
	// (ROADMAP 1b).
	GroupCommit bool
	PMModel     pmem.LatencyModel
	SSDModel    ssd.LatencyModel

	// PMBudget bounds the PM bytes occupied by log segments: when the
	// resident set exceeds it, the background lifecycle evicts the oldest
	// fully-committed segments to the cold tier. 0 disables proactive
	// eviction (PM still spills on-demand when every slot is full).
	PMBudget uint64
	// CheckpointEvery triggers a checkpoint after that many entries have
	// been flushed to the cold tier since the last one, bounding the
	// recovery replay suffix. 0 disables checkpointing.
	CheckpointEvery int
	// LifecycleInterval is the background lifecycle tick (eviction, cold
	// GC, checkpointing). 0 defaults to 10ms when the lifecycle is active.
	LifecycleInterval time.Duration

	// Obs, when set, publishes the store's counters and latency
	// histograms into the registry (see obs.go); ObsNode labels them.
	Obs     *obs.Registry
	ObsNode string
}

// DefaultConfig returns a small but realistic configuration.
func DefaultConfig() Config {
	return Config{
		SegmentSize: 1 << 20, // 1 MiB segments
		NumSegments: 16,
		CacheBytes:  4 << 20,
		PMModel:     pmem.OptaneBypass(),
		SSDModel:    ssd.NVMe(),
	}
}

// TestConfig returns a latency-free configuration for unit tests.
func TestConfig() Config {
	c := DefaultConfig()
	c.PMModel = pmem.Zero()
	c.SSDModel = ssd.Zero()
	return c
}

// Batch is a persisted-but-uncommitted append batch, as returned by
// Uncommitted for recovery's order-request re-issuing (§6.3).
type Batch struct {
	Token   types.Token
	Color   types.ColorID
	Records [][]byte
}

// colorIndex is the per-color volatile view of the log, with its own lock:
// the write path's per-color sharding means operations on different colors
// touch disjoint colorIndexes.
type colorIndex struct {
	mu        sync.RWMutex
	runs      []run // sorted by SN, disjoint
	live      int   // records the runs index
	maxSN     types.SN
	trimmed   types.SN // records with sn <= trimmed are gone
	ckptFloor types.SN // trim watermark restored from a checkpoint (≤ trimmed)
}

// run indexes consecutive SNs of one entry: loc.spans[lo:lo+n] hold SNs
// first…first+n-1. A committed batch is one run; a collision or a trim
// landing inside it leaves runs around the records that survive.
type run struct {
	first types.SN
	loc   *entryLoc
	lo, n int32
}

// end returns the SN just past the run.
func (r *run) end() types.SN { return r.first + types.SN(r.n) }

// cut drops the run's records at or below sn and returns how many.
func (r *run) cut(sn types.SN) int32 {
	if r.first > sn {
		return 0
	}
	d := int32(min(uint64(sn-r.first)+1, uint64(r.n)))
	r.first += types.SN(d)
	r.lo += d
	r.n -= d
	return d
}

// search returns the index of the first run ending after sn (the run that
// holds sn, if any holds it). Caller holds ci.mu.
func (ci *colorIndex) search(sn types.SN) int {
	return sort.Search(len(ci.runs), func(i int) bool { return ci.runs[i].end() > sn })
}

// above returns the index of the first run holding an SN above sn (sn
// may be the largest SN: it comes from a client). Caller holds ci.mu.
func (ci *colorIndex) above(sn types.SN) int {
	i := ci.search(sn)
	if i < len(ci.runs) && ci.runs[i].end()-1 == sn {
		i++
	}
	return i
}

// lookupLocked resolves sn to its record ref. Caller holds ci.mu.
func (ci *colorIndex) lookupLocked(sn types.SN) (recordRef, error) {
	if sn <= ci.trimmed {
		if sn <= ci.ckptFloor {
			return recordRef{}, errCheckpointTrimmed
		}
		return recordRef{}, ErrTrimmed
	}
	i := ci.search(sn)
	if i == len(ci.runs) || ci.runs[i].first > sn {
		return recordRef{}, ErrNotFound
	}
	r := &ci.runs[i]
	return recordRef{loc: r.loc, idx: int(r.lo) + int(sn-r.first)}, nil
}

// publishLocked indexes the records of an entry committed at first, for a
// commit and for recovery alike. Write-Once-Read-Many (§4): an SN never
// changes its record, so a colliding record loses and is dead — a correct
// ordering layer never produces one, and recovery registers segments in
// persist order, so the earlier record keeps the SN as the live index
// did. A record at or below the trim watermark is dead too (a trim raced
// ahead of its commit). The survivors go in as runs: one, appended, in
// the common case. Caller holds ci.mu.
func (ci *colorIndex) publishLocked(loc *entryLoc, first types.SN) {
	r := run{first: first, loc: loc, n: int32(loc.count())}
	loc.killN(r.cut(ci.trimmed))
	for i := ci.search(r.first); r.n > 0; i++ {
		if i < len(ci.runs) && ci.runs[i].first <= r.first {
			// r.first collides with runs[i]: records die up to its end.
			loc.killN(r.cut(min(ci.runs[i].end(), r.end()) - 1))
			continue
		}
		piece := r // up to the next run, or all that is left
		if i < len(ci.runs) && ci.runs[i].first < r.end() {
			piece.n = int32(ci.runs[i].first - r.first)
		}
		ci.runs = slices.Insert(ci.runs, i, piece)
		ci.live += int(piece.n)
		ci.maxSN = max(ci.maxSN, piece.end()-1)
		r.cut(piece.end() - 1)
	}
}

// trimLocked drops every indexed record with SN <= sn, calling died (if
// set) for each entry whose last record that was. Caller holds ci.mu.
func (ci *colorIndex) trimLocked(sn types.SN, died func(*entryLoc)) {
	if sn > ci.trimmed {
		ci.trimmed = sn
	}
	i := ci.above(sn)
	for _, r := range ci.runs[:i] {
		ci.live -= int(r.n)
		if r.loc.killN(r.n) && died != nil {
			died(r.loc)
		}
	}
	ci.runs = slices.Delete(ci.runs, 0, i)
	if len(ci.runs) > 0 {
		d := ci.runs[0].cut(sn)
		ci.live -= int(d)
		ci.runs[0].loc.killN(d) // the run keeps records, so its entry lives
	}
}

// boundsLocked returns the [head, tail] SN pair. Caller holds ci.mu.
func (ci *colorIndex) boundsLocked() (head, tail types.SN) {
	if len(ci.runs) == 0 {
		return types.InvalidSN, types.InvalidSN
	}
	return ci.runs[0].first, ci.maxSN
}

// pageLocked returns the runs holding SNs > after, the first cut to
// start past after. limit > 0 caps them at that many records, rounded up
// to the end of the run the cap falls in: the end of the append batch, or
// of its stretch before another batch's run. Caller holds ci.mu.
func (ci *colorIndex) pageLocked(after types.SN, limit int) []run {
	var page []run
	total := 0
	for _, r := range ci.runs[ci.above(after):] {
		if limit > 0 && total >= limit {
			break
		}
		r.cut(after)
		page = append(page, r)
		total += int(r.n)
	}
	return page
}

// Store is one replica's storage server.
type Store struct {
	cfg Config

	pm    *pmem.Pool
	cold  *ssd.Device // the tier below PM, one blob per file; never nil
	cache *entryCache
	gc    *groupCommitter

	// colors maps ColorID -> *colorIndex; entries are created on first use
	// and never removed (Recover clears them in place under their locks).
	colors sync.Map

	// alloc is the narrow segment-allocator lock: it guards the slot
	// table, the segment map, the active segment and its DRAM frontier,
	// the token index, and the flush/recover counters. Acquired after a
	// color lock, never before one.
	alloc    sync.RWMutex
	evicted  *sync.Cond // on st.alloc: a lifecycle eviction ended (or the store crashed or closed)
	slots    []uint64   // pm offset of each slot
	slotSeg  []*segment // segment currently occupying each slot (nil = free)
	segs     map[uint64]*segment
	active   *segment
	nextSeg  uint64
	byToken  map[types.Token]*entryLoc
	flushes  uint64
	recovers uint64
	// rollWaits counts segment rolls that waited for an eviction.
	rollWaits uint64

	// Lifecycle state (see lifecycle.go and checkpoint.go). The counters
	// are guarded by alloc; ckptTrimmed holds the per-color trim floors of
	// the last durable checkpoint — the watermarks cold GC may rely on.
	lc           *lifecycle
	evictions    uint64
	evictedBytes uint64
	gcSegments   uint64
	gcBytes      uint64
	checkpoints  uint64
	ckptSeq      uint64
	ckptEntries  int    // entries covered by the last durable checkpoint
	uncovered    uint64 // entries flushed since the last durable checkpoint
	ckptTrimmed  map[types.ColorID]types.SN
	ckptCovered  map[uint64]bool // segment ids the last durable checkpoint covers
	lastRecovery RecoveryStats

	// ckptMu serializes checkpoint writes (the lifecycle tick vs
	// ForceCheckpoint); held across no other store lock acquisition except
	// the snapshot order documented in writeCheckpoint.
	ckptMu sync.Mutex

	// coldMisses counts PM-miss reads served by the cold tier; failpoint
	// arms a one-shot lifecycle crash (chaos hook). Both are touched on
	// lock-free paths.
	coldMisses atomic.Uint64
	failpoint  atomic.Uint32
	// evictClaimed, when set (tests only), runs in evictOldest between the
	// claim and the copy, with no lock held.
	evictClaimed func()

	// Observability (nil-safe when cfg.Obs is unset; see obs.go).
	evictionH   *obs.Histogram // background eviction latency
	checkpointH *obs.Histogram // checkpoint write latency
}

// Close stops the background lifecycle and the group committer, draining
// queued writes. The store remains readable; further writes fail with
// ErrCommitterClosed.
func (st *Store) Close() {
	if st.lc != nil {
		st.lc.stop()
	}
	st.gc.close()
	st.evicted.Broadcast()
}

// color returns (creating on first use) the color's index.
func (st *Store) color(c types.ColorID) *colorIndex {
	if v, ok := st.colors.Load(c); ok {
		return v.(*colorIndex)
	}
	v, _ := st.colors.LoadOrStore(c, &colorIndex{})
	return v.(*colorIndex)
}

// colorIfExists returns the color's index without creating one.
func (st *Store) colorIfExists(c types.ColorID) (*colorIndex, bool) {
	v, ok := st.colors.Load(c)
	if !ok {
		return nil, false
	}
	return v.(*colorIndex), true
}

// newActiveSegment claims a free slot (freeing one through flushOldest if
// none is) and installs a fresh segment in it. It returns errRollWaited,
// having installed nothing, when flushOldest waited. Caller holds
// st.alloc.
func (st *Store) newActiveSegment() error {
	slot := st.emptySlot()
	if slot < 0 {
		if err := st.flushOldest(); err != nil {
			return err
		}
		slot = st.emptySlot()
	}
	seg := newSegment(st.nextSeg, slot, st.slots[slot], segHeaderSize)
	st.nextSeg++
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], segHeaderSize)
	binary.LittleEndian.PutUint64(hdr[8:16], seg.id)
	if err := st.pm.Write(seg.pmOff, hdr[:]); err != nil {
		return err
	}
	st.slotSeg[slot] = seg
	st.segs[seg.id] = seg
	st.active = seg
	return nil
}

// emptySlot returns the index of a free PM slot, or -1. Caller holds
// st.alloc.
func (st *Store) emptySlot() int {
	for i, s := range st.slotSeg {
		if s == nil {
			return i
		}
	}
	return -1
}

// flushOldest frees a PM slot on demand, when every slot is taken: dead
// segments are reclaimed, and if that freed none, the oldest
// fully-committed segment is spilled to the SSD ("a contiguous portion
// from the start of the log is flushed to SSD and removed from PM",
// §5.2). It is the lifecycle's spill with the allocator lock held across
// the copy, so the slot is reused at once and an armed failpoint crashes
// the devices without taking the lock again.
//
// When the only candidates are claimed by a lifecycle eviction in flight,
// it waits for that eviction to end (st.evicted) and returns
// errRollWaited: the wait released st.alloc, so the caller's duplicate
// check and its need for a roll are stale, and it starts over. It never
// waits when nothing is evicting: if PM holds only uncommitted entries,
// the commit that would free a slot may be queued behind this caller on
// its color's lane worker, so that is ErrOutOfSpace. Caller holds
// st.alloc.
func (st *Store) flushOldest() error {
	victim := st.reclaimDeadLocked()
	if st.emptySlot() >= 0 {
		return nil
	}
	if victim != nil {
		if err := st.spill(victim, victim.used, st.crashDevices); err != nil {
			return err
		}
		st.retireSpilledLocked(victim, false)
		return nil
	}
	if !st.evictingLocked() {
		return ErrOutOfSpace
	}
	st.rollWaits++
	st.evicted.Wait()
	return errRollWaited
}

// evictingLocked reports whether a lifecycle eviction holds a claim on a
// resident segment. Caller holds st.alloc.
func (st *Store) evictingLocked() bool {
	for _, seg := range st.segs {
		if !seg.flushed() && seg.evicting.Load() {
			return true
		}
	}
	return false
}

// segmentFlushable reports whether every live entry of the segment is
// committed (uncommitted entries must stay in PM because their sn field is
// still mutable — and possibly not yet durable).
// Caller holds st.alloc; the per-entry fields are atomics because commits
// of any color may be setting them concurrently under their color lock.
func (st *Store) segmentFlushable(seg *segment) bool {
	for _, tok := range seg.tokens {
		if loc := st.byToken[tok]; loc != nil && loc.seg == seg && !loc.dead.Load() && !loc.first().Valid() {
			return false
		}
	}
	return true
}

// Put persists a single-record append (convenience wrapper over PutBatch).
func (st *Store) Put(color types.ColorID, token types.Token, data []byte) error {
	return st.PutBatch(color, token, [][]byte{data})
}

// PutBatch persists an uncommitted append batch (Alg. 1 line 17:
// "persist(records[], t)"): frameEntry lays the records out, then PutEntry
// persists them. Duplicate tokens are rejected so append retries are
// idempotent.
func (st *Store) PutBatch(color types.ColorID, token types.Token, records [][]byte) error {
	return st.PutEntry(color, token, frameEntry(records))
}

// PutEntry persists an uncommitted append batch already laid out as a
// record entry (see frameEntry), as the TCP frame decoders deliver one. It
// fills the entry's header, writes the entry to PM and, at Commit, caches
// it whole: the store owns entry from the call on.
//
// The allocator lock is held only across the duplicate check and the
// segment-space reservation; the PM write itself is awaited after release,
// so concurrent appends (different colors on the write lane, plus the sync
// path) share one transaction window. A segment roll that had to wait for
// an eviction released the lock meanwhile, so the duplicate check and the
// reservation then start over.
func (st *Store) PutEntry(color types.ColorID, token types.Token, entry []byte) error {
	spans, err := sealEntry(entry, color, token)
	if err != nil {
		return err
	}
	payloadLen := len(entry) - entryHeaderSize
	if uint64(len(entry)) > st.cfg.SegmentSize-segHeaderSize {
		return fmt.Errorf("storage: batch of %d bytes exceeds segment capacity", payloadLen)
	}

	st.alloc.Lock()
	var seg *segment
	var off uint64
	for {
		if _, ok := st.byToken[token]; ok {
			st.alloc.Unlock()
			return ErrDuplicateToken
		}
		seg, off, err = st.reserveEntry(uint64(len(entry)))
		if err == nil {
			break
		}
		if err != errRollWaited {
			st.alloc.Unlock()
			return err
		}
	}
	loc := st.addEntryLocked(seg, ckptEntry{token: token, color: color, off: off, payloadLen: payloadLen, spans: spans})
	loc.buf = entry
	op, ticket := st.persistEntry(seg, off, entry)
	st.alloc.Unlock()
	if err := st.gc.wait(op, ticket); err != nil {
		// The write never became durable (the pool is crashed or the
		// committer closed): withdraw the volatile index entry so a retry
		// after recovery is not mistaken for a duplicate.
		st.alloc.Lock()
		if cur := st.byToken[token]; cur == loc {
			delete(st.byToken, token)
		}
		seg.live.Add(-1)
		st.alloc.Unlock()
		return err
	}
	return nil
}

// Commit assigns the batch its SN range, making its records readable
// (Alg. 1 line 24: "commit_all(t, sn)"). Per the protocol, lastSN is the SN
// of the final record of the batch; a batch of n records occupies
// [lastSN-n+1, lastSN]. Re-committing with the same SN is a no-op.
func (st *Store) Commit(token types.Token, lastSN types.SN) error {
	_, err := st.CommitApplied(token, lastSN)
	return err
}

// CommitApplied is Commit, reporting whether this call assigned the SN:
// false for the no-op re-commit. It is decided under the color lock, so of
// two commits of one token racing at one SN exactly one applies.
//
// Commits of one color are serialized by the color lock (held across the
// durable SN write, so the write-lane FIFO and the sync path cannot
// interleave commits of the same token); commits of different colors run
// in parallel. The segment stays pinned in PM until firstSN is published,
// which makes the in-place SN write safe against slot reuse without
// holding the allocator lock.
func (st *Store) CommitApplied(token types.Token, lastSN types.SN) (bool, error) {
	if !lastSN.Valid() {
		return false, fmt.Errorf("storage: cannot commit %v with invalid SN", token)
	}
	st.alloc.RLock()
	loc := st.byToken[token]
	st.alloc.RUnlock()
	if loc == nil {
		return false, ErrUnknownToken
	}
	if int(lastSN.Counter()) < loc.count() {
		return false, fmt.Errorf("storage: SN %v too small for batch of %d", lastSN, loc.count())
	}
	firstSN := lastSN - types.SN(loc.count()-1)
	ci := st.color(loc.color)
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if cur := loc.first(); cur.Valid() {
		if cur == firstSN {
			return false, nil
		}
		return false, fmt.Errorf("storage: token %v already committed at %v, got %v", token, cur, firstSN)
	}
	// Freshly appended records also populate the cache (§5.2): the entry
	// PutEntry wrote, the bytes just written to PM, is cached whole, with
	// no read back. The entry drops the buffer here, even if the SN write
	// fails. An entry Recover rebuilt has no buffer and is cached by its
	// first read instead.
	buf := loc.buf
	loc.buf = nil
	if err := st.commitEntrySN(loc, firstSN); err != nil {
		return false, err
	}
	ci.publishLocked(loc, firstSN)
	if buf != nil && !loc.dead.Load() {
		st.cache.put(loc, wholeEntry, buf)
	}
	// Publish last: from here on segmentFlushable may evict the segment.
	loc.firstSN.Store(uint64(firstSN))
	return true, nil
}

// TokenSN returns the last SN assigned to a persisted token (InvalidSN if
// uncommitted) and whether the token is known.
func (st *Store) TokenSN(token types.Token) (types.SN, bool) {
	_, sn, ok := st.TokenInfo(token)
	return sn, ok
}

// TokenInfo returns the color and last SN of a persisted token (InvalidSN
// if uncommitted) and whether the token is known.
func (st *Store) TokenInfo(token types.Token) (types.ColorID, types.SN, bool) {
	st.alloc.RLock()
	loc := st.byToken[token]
	st.alloc.RUnlock()
	if loc == nil {
		return 0, types.InvalidSN, false
	}
	if !loc.first().Valid() {
		return loc.color, types.InvalidSN, true
	}
	return loc.color, loc.lastSN(), true
}

// Get returns the payload of the committed record (color, sn), consulting
// cache, then PM, then SSD (§5.2: "the volatile cache is first read, then
// PM, then the SSD"). The SN is looked up first, so a trimmed record misses
// even while its entry is cached. The device access is readLive's, with no
// store lock held, so concurrent readers (the replica's read lane) overlap
// their PM/SSD latency instead of serializing.
func (st *Store) Get(color types.ColorID, sn types.SN) ([]byte, error) {
	ci, ok := st.colorIfExists(color)
	if !ok {
		return nil, ErrNotFound
	}
	for attempt := 0; ; attempt++ {
		ci.mu.RLock()
		ref, err := ci.lookupLocked(sn)
		ci.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		if data, ok := st.cache.get(ref.loc, ref.idx); ok {
			return data, nil
		}
		data, cold, err := st.readLive(ref.loc, ref.idx)
		switch {
		case err == nil:
			if cold {
				st.coldMisses.Add(1)
			}
			if !ref.loc.dead.Load() {
				st.cache.put(ref.loc, ref.idx, data)
			}
			return data, nil
		case !cold:
			return nil, err
		case attempt > 0:
			return nil, fmt.Errorf("%w: segment %d: %v", ErrEvicted, ref.loc.seg.id, err)
		}
		// A failed cold read is looked up once more: cold GC may have
		// deleted the blob after a trim landed, and the lookup then
		// reports ErrTrimmed.
	}
}

// MaxSN returns the largest committed SN seen for the color.
func (st *Store) MaxSN(color types.ColorID) types.SN {
	ci, ok := st.colorIfExists(color)
	if !ok {
		return types.InvalidSN
	}
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	return ci.maxSN
}

// Trimmed returns the color's trim frontier: the largest SN an applied
// trim has covered (records at or below it are gone). InvalidSN when the
// color was never trimmed. The sync-phase exchanges this so a recovering
// replica never resurrects garbage-collected records.
func (st *Store) Trimmed(color types.ColorID) types.SN {
	ci, ok := st.colorIfExists(color)
	if !ok {
		return types.InvalidSN
	}
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	return ci.trimmed
}

// Bounds returns the [head, tail] SN pair of the color's log: head is the
// smallest retained SN, tail the largest committed one.
func (st *Store) Bounds(color types.ColorID) (head, tail types.SN) {
	ci, ok := st.colorIfExists(color)
	if !ok {
		return types.InvalidSN, types.InvalidSN
	}
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	return ci.boundsLocked()
}

// Scan returns all committed records of the color sorted by SN (the
// replica-local half of the Subscribe protocol, §6.2).
func (st *Store) Scan(color types.ColorID) ([]types.Record, error) {
	return st.ScanFrom(color, types.InvalidSN, 0)
}

// ScanFrom returns committed records of the color with SN > after, sorted.
// Only the matching runs are snapshotted and read — a subscriber tailing
// the log no longer pays device reads for the prefix it already has — and
// each device read runs with no store lock held (see Get). limit > 0 caps
// the result at that many records, rounded up to the end of the append
// batch the cap falls in: a caller paging through the log (replica
// catch-up) reads only the page it ships and never sees a batch split
// across two pages.
func (st *Store) ScanFrom(color types.ColorID, after types.SN, limit int) ([]types.Record, error) {
	ci, ok := st.colorIfExists(color)
	if !ok {
		return nil, nil
	}
	ci.mu.RLock()
	page := ci.pageLocked(after, limit)
	ci.mu.RUnlock()
	n := 0
	for _, r := range page {
		n += int(r.n)
	}
	out := make([]types.Record, 0, n)
	for _, r := range page {
		for k := int32(0); k < r.n; k++ {
			data, _, err := st.readLive(r.loc, int(r.lo+k))
			if err != nil {
				if r.loc.dead.Load() {
					break // trimmed, and its segment reclaimed, since the snapshot
				}
				return nil, err
			}
			out = append(out, types.Record{Token: r.loc.token, SN: r.first + types.SN(k), Color: color, Data: data})
		}
	}
	return out, nil
}

// readLive reads one record with no store lock held across the device
// access; cold reports that the cold tier served it. A PM slot is reused
// once its segment leaves PM, so a PM read is revalidated afterwards. A
// segment is marked as gone from PM before its slot can be reused
// (freeSlotLocked), so if the mark is set after the read the bytes may be
// torn, and the record is read again from the cold tier. Cold blobs are
// written once and never mutated: a cold read, success or failure, is
// final. An uncommitted entry is pinned in PM, so its read never retries.
func (st *Store) readLive(loc *entryLoc, idx int) (data []byte, cold bool, err error) {
	sp := loc.spans[idx]
	dataOff := loc.off + entryHeaderSize + uint64(sp.off)
	data = make([]byte, sp.len)
	for {
		if cold = loc.seg.flushed(); cold {
			err = st.cold.ReadAt(loc.seg.ssdName(), int64(dataOff), data)
		} else {
			err = st.pm.Read(loc.seg.pmOff+dataOff, data)
		}
		if err != nil {
			return nil, cold, err
		}
		if cold || !loc.seg.flushed() {
			return data, cold, nil
		}
	}
}

// Uncommitted returns batches persisted but not yet assigned SNs, used by
// recovery to re-issue order requests (§6.3).
func (st *Store) Uncommitted() []Batch {
	st.alloc.RLock()
	locs := make([]*entryLoc, 0)
	for _, loc := range st.byToken {
		if !loc.dead.Load() && !loc.first().Valid() {
			locs = append(locs, loc)
		}
	}
	st.alloc.RUnlock()
	sort.Slice(locs, func(i, j int) bool { return locs[i].token < locs[j].token })
	out := make([]Batch, 0, len(locs))
	for _, loc := range locs {
		b := Batch{Token: loc.token, Color: loc.color}
		for i := 0; i < loc.count(); i++ {
			data, _, err := st.readLive(loc, i)
			if err != nil {
				break
			}
			b.Records = append(b.Records, data)
		}
		if len(b.Records) == loc.count() {
			out = append(out, b)
		}
	}
	return out
}

// Trim deletes every record of the color with SN <= sn (§6.2). The trim is
// persisted as a log marker so it survives crashes; a trim at or below
// the color's trim floor changes nothing and writes no marker (clients
// re-send a TrimReq on every retry). Returns the remaining [head, tail]
// bounds. Lock order: the color lock is taken first and held across the
// marker write and the index sweep, serializing the trim against commits
// of the same color; the allocator lock is only held for the marker's
// space reservation.
func (st *Store) Trim(color types.ColorID, sn types.SN) (head, tail types.SN, err error) {
	ci := st.color(color)
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if sn <= ci.trimmed {
		head, tail = ci.boundsLocked()
		return head, tail, nil
	}
	buf := make([]byte, entryHeaderSize)
	encodeEntryHeader(buf, entryKindTrim, color, 0, sn, nil)
	st.alloc.Lock()
	seg, off, e := st.reserveEntry(uint64(len(buf)))
	for e == errRollWaited {
		seg, off, e = st.reserveEntry(uint64(len(buf)))
	}
	if e != nil {
		st.alloc.Unlock()
		return 0, 0, e
	}
	seg.trimMarks = append(seg.trimMarks, trimMark{color: color, sn: sn})
	op, ticket := st.persistEntry(seg, off, buf)
	st.alloc.Unlock()
	if e := st.gc.wait(op, ticket); e != nil {
		return 0, 0, e
	}
	ci.trimLocked(sn, st.cache.drop)
	head, tail = ci.boundsLocked()
	// Trims create garbage: nudge the lifecycle so cold blobs whose records
	// all died are reclaimed promptly.
	if st.lc != nil {
		st.lc.kick()
	}
	return head, tail, nil
}

// lockAllColors acquires every existing color lock (in a deterministic
// order) and returns the locked set keyed by color. Crash/Recover use it
// for exclusivity against the per-color paths; the allocator lock must be
// acquired AFTER this (lock order: colors before allocator).
func (st *Store) lockAllColors() map[types.ColorID]*colorIndex {
	ids := make([]types.ColorID, 0)
	st.colors.Range(func(k, _ any) bool {
		ids = append(ids, k.(types.ColorID))
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	locked := make(map[types.ColorID]*colorIndex, len(ids))
	for _, c := range ids {
		ci := st.color(c)
		ci.mu.Lock()
		locked[c] = ci
	}
	return locked
}

func unlockColors(locked map[types.ColorID]*colorIndex) {
	for _, ci := range locked {
		ci.mu.Unlock()
	}
}

// Crash simulates a power failure of the whole storage node. In-flight
// group-commit windows fail (their callers see ErrCrashed and never ack);
// Recover rolls their partial writes back via the pmem undo log.
func (st *Store) Crash() {
	locked := st.lockAllColors()
	st.alloc.Lock()
	st.crashDevices()
	st.evicted.Broadcast()
	st.alloc.Unlock()
	unlockColors(locked)
}

// crashDevices is Crash for a spill's failpoint, whose caller may hold the
// allocator lock (taking the color locks would invert the lock order) or
// be awaited by a roll holding a color lock: the devices fail at once, and
// every other path sees the crash at its next access.
func (st *Store) crashDevices() {
	st.pm.Crash()
	st.cold.Crash()
}

// Recover re-opens the devices and rebuilds every volatile index by
// scanning the PM segment slots and the flushed SSD segments. This is the
// operation measured by the paper's Fig. 10: its cost is linear in the
// number of records to recover.
func (st *Store) Recover() error {
	locked := st.lockAllColors()
	defer func() { unlockColors(locked) }()
	st.alloc.Lock()
	defer st.alloc.Unlock()
	st.pm.Recover()
	st.cold.Recover()

	// The old segments leave PM: an unlocked reader still holding one of
	// their refs goes to the cold tier and, failing there, looks the SN up
	// again in the rebuilt index (see readLive and Get).
	for _, seg := range st.segs {
		seg.slot.Store(-1)
	}
	st.segs = make(map[uint64]*segment)
	st.byToken = make(map[types.Token]*entryLoc)
	st.cache.reset()
	st.active = nil
	st.nextSeg = 1
	for i := range st.slotSeg {
		st.slotSeg[i] = nil
	}
	// Reset every color index in place (their locks are held); colors
	// first seen during ingest are created and locked on demand.
	colorLocked := func(c types.ColorID) *colorIndex {
		if ci, ok := locked[c]; ok {
			return ci
		}
		ci := st.color(c)
		ci.mu.Lock()
		locked[c] = ci
		return ci
	}
	for _, ci := range locked {
		ci.runs = nil
		ci.live = 0
		ci.maxSN = types.InvalidSN
		ci.trimmed = types.InvalidSN
		ci.ckptFloor = types.InvalidSN
	}

	// Every segment comes back in the checkpoint's per-segment form,
	// whether a scanned image or checkpoint metadata produced it.
	type image struct {
		seg *segment
		s   ckptSeg
	}
	var images []image
	var stats RecoveryStats
	replayed := func(s *ckptSeg) {
		stats.ScannedSegments++
		stats.ReplayedEntries += s.count()
		stats.ReplayedBytes += s.used
	}

	// PM slots first (header, then only the used prefix: the sequential
	// scan whose cost Fig. 10 measures). The PM copy of a segment always
	// wins over its cold blob: a slot is only freed after the cold copy is
	// synced, so a surviving resident copy means the blob may be torn.
	pmIDs := make(map[uint64]bool)
	for i, base := range st.slots {
		var hdr [segHeaderSize]byte
		if err := st.pm.Read(base, hdr[:]); err != nil {
			return err
		}
		used := binary.LittleEndian.Uint64(hdr[0:8])
		id := binary.LittleEndian.Uint64(hdr[8:16])
		if id == 0 || used < segHeaderSize || used > st.cfg.SegmentSize {
			continue // never-used or freed slot
		}
		raw := make([]byte, used)
		if err := st.pm.Read(base, raw); err != nil {
			return err
		}
		s, err := decodeSegment(id, raw)
		if err != nil {
			return err
		}
		images = append(images, image{newSegment(id, i, base, used), s})
		pmIDs[id] = true
		replayed(&s)
	}

	// Restore covered segments from the newest durable checkpoint: their
	// entry metadata is in the blob already — no segment read, no scan.
	// This is what keeps recovery flat as the log grows (§5.2 / Fig. 10):
	// only the suffix flushed after the checkpoint is replayed below.
	ck := st.loadCheckpoint()
	covered := make(map[uint64]bool)
	if ck != nil {
		stats.CheckpointSeq = ck.seq
		stats.CoveredSegments = len(ck.segs)
		for _, s := range ck.segs {
			covered[s.id] = true
			if !pmIDs[s.id] {
				images = append(images, image{newSegment(s.id, -1, 0, s.used), s})
				stats.RestoredEntries += len(s.entries)
			}
		}
	}

	// Scan the cold blobs flushed after the checkpoint (the bounded replay
	// suffix); everything scanned off the cold tier is uncovered again.
	// Blobs that are gone or torn are skipped, not fatal: a blob is only
	// load-bearing once its spill synced, and then either it is readable
	// or the PM copy survived (handled above). Unreadable leftovers are
	// torn artifacts of an unsynced spill or blobs the cold GC deleted
	// under checkpoint cover.
	st.uncovered = 0
	for _, name := range st.cold.List() {
		var id uint64
		if _, err := fmt.Sscanf(name, "seg-%d", &id); err != nil || pmIDs[id] || covered[id] {
			continue
		}
		raw, err := st.readBlob(name)
		var s ckptSeg
		if err == nil {
			s, err = decodeSegment(id, raw)
		}
		if err != nil {
			stats.MissingBlobs++
			continue
		}
		images = append(images, image{newSegment(id, -1, 0, s.used), s})
		replayed(&s)
		st.uncovered += uint64(s.count())
	}

	// Register in ascending segment-id (persist) order so the rebuilt
	// indexes match the pre-crash ones deterministically.
	sort.Slice(images, func(i, j int) bool { return images[i].seg.id < images[j].seg.id })
	for i := range images {
		st.registerLocked(images[i].seg, &images[i].s, colorLocked)
	}

	// Trims in one pass: the checkpoint's color floors (they subsume every
	// trim the checkpoint observed applied), then every segment's markers.
	// trimLocked is a max plus a drop of every SN ≤ sn, so trims commute
	// and their order does not matter. The cache is empty: nothing to drop. The restored checkpoint
	// becomes the durable one.
	st.ckptCovered = covered
	st.ckptTrimmed = make(map[types.ColorID]types.SN)
	st.ckptSeq, st.ckptEntries = 0, 0
	if ck != nil {
		st.ckptSeq, st.ckptEntries = ck.seq, stats.RestoredEntries
		for c, cc := range ck.colors {
			ci := colorLocked(c)
			ci.ckptFloor = cc.trimmed
			ci.trimLocked(cc.trimmed, nil)
			ci.maxSN = max(ci.maxSN, cc.maxSN)
			st.ckptTrimmed[c] = cc.trimmed
		}
	}
	for _, seg := range st.segs {
		for _, m := range seg.trimMarks {
			colorLocked(m.color).trimLocked(m.sn, nil)
		}
	}

	// Pick or create the active segment.
	for _, seg := range st.segs {
		if seg.flushed() || seg.used+entryHeaderSize >= st.cfg.SegmentSize {
			continue
		}
		if st.active == nil || seg.id > st.active.id {
			st.active = seg
		}
	}
	if st.active == nil {
		if err := st.newActiveSegment(); err != nil {
			return err
		}
	}
	st.recovers++
	st.lastRecovery = stats
	return nil
}

// registerLocked installs one recovered segment, given in the checkpoint's
// per-segment form, in the segment map and the token and SN indexes — the
// one builder behind both a scanned image and checkpoint metadata.
// Recover calls it in persist order (see publishLocked). Caller holds
// st.alloc; colorLocked resolves (locking on demand) a color's index.
func (st *Store) registerLocked(seg *segment, s *ckptSeg, colorLocked func(types.ColorID) *colorIndex) {
	seg.trimMarks = s.marks
	seg.total = s.count()
	for _, e := range s.entries {
		loc := st.addEntryLocked(seg, e)
		if e.firstSN.Valid() {
			colorLocked(e.color).publishLocked(loc, e.firstSN)
		}
	}
	st.segs[seg.id] = seg
	if !seg.flushed() {
		st.slotSeg[seg.slotIdx()] = seg
	}
	st.nextSeg = max(st.nextSeg, seg.id+1)
}

// addEntryLocked indexes a persisted entry of seg by its token (committed
// when e.firstSN is valid). Caller holds st.alloc.
func (st *Store) addEntryLocked(seg *segment, e ckptEntry) *entryLoc {
	loc := &entryLoc{seg: seg, off: e.off, payloadLen: e.payloadLen, spans: e.spans, token: e.token, color: e.color}
	loc.firstSN.Store(uint64(e.firstSN))
	loc.liveCount.Store(int32(len(e.spans)))
	st.byToken[e.token] = loc
	seg.tokens = append(seg.tokens, e.token)
	seg.live.Add(1)
	return loc
}

// Stats reports storage-stack counters. It is also what the store
// publishes to the obs registry: each tagged field is one series (see
// obs.Publish).
type Stats struct {
	Records     int    `obs:"flexlog_store_records" help:"Persisted append batches currently indexed (committed or not)."`
	Committed   int    `obs:"-"`
	Flushes     uint64 `obs:"flexlog_store_flushes_total" help:"PM segments flushed to the SSD tier to free slots."`
	Recoveries  uint64 `obs:"flexlog_store_recoveries_total" help:"Recovery scans performed (crash restarts)."`
	CacheHits   uint64 `obs:"flexlog_store_cache_hits_total" help:"DRAM cache hits on the read path."`
	CacheMisses uint64 `obs:"flexlog_store_cache_misses_total" help:"DRAM cache misses on the read path."`

	// Lifecycle counters (see lifecycle.go / checkpoint.go).
	Evictions         uint64 `obs:"flexlog_tier_evictions_total" help:"Segments evicted from PM to the cold tier by the background lifecycle."`
	EvictedBytes      uint64 `obs:"flexlog_tier_evicted_bytes_total" help:"Bytes evicted from PM to the cold tier by the background lifecycle."`
	GCSegments        uint64 `obs:"flexlog_tier_gc_segments_total" help:"Segments reclaimed by trim-driven garbage collection (both tiers, on demand or in the background)."`
	GCBytes           uint64 `obs:"flexlog_tier_gc_bytes_total" help:"Bytes reclaimed by trim-driven garbage collection (both tiers, on demand or in the background)."`
	Checkpoints       uint64 `obs:"flexlog_checkpoints_total" help:"Checkpoints written since the store opened."`
	CheckpointSeq     uint64 `obs:"flexlog_checkpoint_seq" help:"Sequence number of the last durable checkpoint."`
	CheckpointEntries int    `obs:"flexlog_checkpoint_entries" help:"Entries covered by the last durable checkpoint."`
	UncoveredEntries  uint64 `obs:"flexlog_checkpoint_uncovered_entries" help:"Entries flushed to the cold tier since the last durable checkpoint (replay debt)."`
	ColdMissReads     uint64 `obs:"flexlog_tier_miss_reads_total" help:"PM-miss reads served from the cold tier."`
	ResidentSegments  int    `obs:"flexlog_tier_resident_segments" help:"Segments currently occupying PM slots."`
	ResidentBytes     uint64 `obs:"-"` // PM bytes those segments occupy
	ColdSegments      int    `obs:"-"` // flushed segments (cold-tier only)
	ColdBlobs         int    `obs:"flexlog_tier_blobs{tier=ssd}" help:"Blobs currently stored on the cold tier."`
	ColdBytes         uint64 `obs:"flexlog_tier_occupied_bytes{tier=ssd}" help:"Bytes currently occupied on the cold tier."`
	PMBudget          uint64 `obs:"flexlog_tier_pm_budget_bytes" help:"Configured PM budget for resident segments (0: unbounded)."`

	GC  GCStats
	PM  pmem.Stats
	SSD ssd.Stats `obs:"{tier=ssd}"` // the cold tier's device
}

// Stats returns a snapshot of counters across the tiers.
func (st *Store) Stats() Stats {
	// Color locks strictly before the allocator lock.
	committed := 0
	st.colors.Range(func(_, v any) bool {
		ci := v.(*colorIndex)
		ci.mu.RLock()
		committed += ci.live
		ci.mu.RUnlock()
		return true
	})
	st.alloc.RLock()
	defer st.alloc.RUnlock()
	hits, misses := st.cache.stats()
	s := Stats{
		Records:           len(st.byToken),
		Committed:         committed,
		Flushes:           st.flushes,
		Recoveries:        st.recovers,
		CacheHits:         hits,
		CacheMisses:       misses,
		Evictions:         st.evictions,
		EvictedBytes:      st.evictedBytes,
		GCSegments:        st.gcSegments,
		GCBytes:           st.gcBytes,
		Checkpoints:       st.checkpoints,
		CheckpointSeq:     st.ckptSeq,
		CheckpointEntries: st.ckptEntries,
		UncoveredEntries:  st.uncovered,
		ColdMissReads:     st.coldMisses.Load(),
		PMBudget:          st.cfg.PMBudget,
		PM:                st.pm.Stats(),
		SSD:               st.cold.Stats(),
	}
	s.ColdBlobs, s.ColdBytes = st.cold.Occupancy()
	for _, seg := range st.segs {
		if seg.flushed() {
			s.ColdSegments++
		} else {
			s.ResidentSegments++
			s.ResidentBytes += seg.used
		}
	}
	s.GC = st.gc.stats()
	return s
}

// SaveDevices snapshots both device tiers to files (see pmem.SaveTo and
// ssd.SaveTo); Open(WithAttach) restores a store from them on the next boot.
func (st *Store) SaveDevices(pmPath, ssdPath string) error {
	if err := st.pm.SaveTo(pmPath); err != nil {
		return err
	}
	return st.cold.SaveTo(ssdPath)
}
