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
// ordering layer assigns the batch its SN range, each record is indexed at
// its own sequence number.
//
// Concurrency model (the parallel write path): the store is sharded by
// color. Each color's volatile index (bySN, maxSN, trimmed) has its own
// RWMutex, so commits, trims and reads of different colors never contend.
// A narrow allocator lock (st.alloc) guards the shared segment machinery:
// slot table, active segment, the token index, and segment bookkeeping.
// Lock order is color lock → allocator lock; nothing acquires a color lock
// while holding the allocator lock (Crash/Recover, which need both, take
// every color lock first). Mutable per-entry state (firstSN, liveCount,
// dead) and the per-segment slot/live fields are atomics: they are written
// under the owning color's lock but read lock-free from allocator paths.
// With Config.GroupCommit set, PM writes additionally flow through a
// group-commit engine (see groupcommit.go) instead of paying one pmem
// transaction each.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/pmem"
	"flexlog/internal/ssd"
	"flexlog/internal/storage/tier"
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

// errCheckpointTrimmed matches both ErrTrimmed (the long-standing miss
// sentinel) and ErrCheckpointTruncated (the cause).
var errCheckpointTrimmed = fmt.Errorf("%w (%w)", ErrTrimmed, ErrCheckpointTruncated)

// Config sizes the storage stack.
type Config struct {
	SegmentSize uint64 // bytes per PM segment (including 16-byte header)
	NumSegments int    // PM slots
	CacheBytes  int    // DRAM cache capacity; 0 disables the cache
	GroupCommit bool   // fold concurrent PM writes into shared transactions
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
	bySN      map[types.SN]recordRef
	maxSN     types.SN
	trimmed   types.SN // records with sn <= trimmed are gone
	ckptFloor types.SN // trim watermark restored from a checkpoint (≤ trimmed)
}

// lookupLocked resolves sn to its record ref. Caller holds ci.mu.
func (ci *colorIndex) lookupLocked(sn types.SN) (recordRef, error) {
	if sn <= ci.trimmed {
		if sn <= ci.ckptFloor {
			return recordRef{}, errCheckpointTrimmed
		}
		return recordRef{}, ErrTrimmed
	}
	ref, ok := ci.bySN[sn]
	if !ok {
		return recordRef{}, ErrNotFound
	}
	return ref, nil
}

// boundsLocked returns the [head, tail] SN pair. Caller holds ci.mu.
func (ci *colorIndex) boundsLocked() (head, tail types.SN) {
	if len(ci.bySN) == 0 {
		return types.InvalidSN, types.InvalidSN
	}
	first := true
	for sn := range ci.bySN {
		if first || sn < head {
			head = sn
		}
		first = false
	}
	return head, ci.maxSN
}

// Store is one replica's storage server.
type Store struct {
	cfg Config

	pm    *pmem.Pool
	cold  *tier.SSD // the tier below PM; never nil
	cache *stripedCache
	gc    *groupCommitter // nil unless cfg.GroupCommit

	// colors maps ColorID -> *colorIndex; entries are created on first use
	// and never removed (Recover clears them in place under their locks).
	colors sync.Map

	// alloc is the narrow segment-allocator lock: it guards the slot
	// table, the segment map, the active segment and its DRAM frontier,
	// the token index, and the flush/recover counters. Acquired after a
	// color lock, never before one.
	alloc    sync.RWMutex
	slots    []uint64   // pm offset of each slot
	slotSeg  []*segment // segment currently occupying each slot (nil = free)
	segs     map[uint64]*segment
	active   *segment
	nextSeg  uint64
	byToken  map[types.Token]*entryLoc
	flushes  uint64
	recovers uint64

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

	// Observability (nil-safe when cfg.Obs is unset; see obs.go).
	pmTxH       *obs.Histogram // PM transaction latency
	gcWindowH   *obs.Histogram // group-commit window latency
	evictionH   *obs.Histogram // background eviction latency
	checkpointH *obs.Histogram // checkpoint write latency
}

// Close stops the background lifecycle and the group committer (if any),
// draining queued writes. The store remains readable; further writes fail
// with ErrCommitterClosed.
func (st *Store) Close() {
	if st.lc != nil {
		st.lc.stop()
	}
	if st.gc != nil {
		st.gc.close()
	}
}

// color returns (creating on first use) the color's index.
func (st *Store) color(c types.ColorID) *colorIndex {
	if v, ok := st.colors.Load(c); ok {
		return v.(*colorIndex)
	}
	v, _ := st.colors.LoadOrStore(c, &colorIndex{bySN: make(map[types.SN]recordRef)})
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

// newActiveSegment claims a free slot (flushing the oldest committed
// segment if none is free) and installs a fresh segment in it.
// Caller holds st.alloc.
func (st *Store) newActiveSegment() error {
	slot := -1
	for i, s := range st.slotSeg {
		if s == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		var err error
		slot, err = st.flushOldest()
		if err != nil {
			return err
		}
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

// flushOldest frees one PM slot: a fully-trimmed (dead) segment is simply
// reclaimed; otherwise the oldest fully-committed sealed segment is flushed
// to the SSD ("a contiguous portion from the start of the log is flushed to
// SSD and removed from PM", §5.2). Caller holds st.alloc.
func (st *Store) flushOldest() (int, error) {
	// Prefer reclaiming a dead segment — trimmed data needs no SSD write.
	// Segments claimed by the background evictor are skipped everywhere:
	// the evictor reads their PM bytes without the allocator lock, so
	// reusing their slot under it would hand the evictor torn data.
	var dead *segment
	for _, seg := range st.segs {
		if seg.flushed() || seg == st.active || seg.live.Load() > 0 || seg.evicting.Load() {
			continue
		}
		if !st.segmentFlushable(seg) {
			continue // has uncommitted entries
		}
		if dead == nil || seg.id < dead.id {
			dead = seg
		}
	}
	if dead != nil {
		slot := dead.slotIdx()
		st.dropSegmentLocked(dead)
		return slot, nil
	}
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
		return -1, ErrOutOfSpace
	}
	raw := make([]byte, victim.used)
	if err := st.pm.Read(victim.pmOff, raw); err != nil {
		return -1, err
	}
	if err := st.cold.Put(victim.ssdName(), raw); err != nil {
		return -1, err
	}
	if err := st.cold.Sync(); err != nil {
		return -1, err
	}
	slot := victim.slotIdx()
	victim.slot.Store(-1)
	st.slotSeg[slot] = nil
	st.flushes++
	st.uncovered += uint64(victim.total)
	return slot, nil
}

// segmentFlushable reports whether every live entry of the segment is
// committed (uncommitted entries must stay in PM because their sn field is
// still mutable — and, under group commit, possibly not yet durable).
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

// dropSegmentLocked removes a fully-dead segment and all token index
// entries pointing into it. Caller holds st.alloc.
func (st *Store) dropSegmentLocked(seg *segment) {
	for _, tok := range seg.tokens {
		if loc := st.byToken[tok]; loc != nil && loc.seg == seg {
			delete(st.byToken, tok)
		}
	}
	if !seg.flushed() {
		st.slotSeg[seg.slotIdx()] = nil
	}
	delete(st.segs, seg.id)
}

// Put persists a single-record append (convenience wrapper over PutBatch).
func (st *Store) Put(color types.ColorID, token types.Token, data []byte) error {
	return st.PutBatch(color, token, [][]byte{data})
}

// PutBatch persists an uncommitted append batch (Alg. 1 line 17:
// "persist(records[], t)"). Duplicate tokens are rejected so append retries
// are idempotent.
//
// The allocator lock is held only across the duplicate check and the
// segment-space reservation; with group commit enabled the PM write itself
// is awaited after release, so concurrent appends (different colors on the
// write lane, plus the sync path) share one transaction window.
func (st *Store) PutBatch(color types.ColorID, token types.Token, records [][]byte) error {
	if len(records) == 0 {
		return fmt.Errorf("storage: empty batch for token %v", token)
	}
	payload := encodeBatch(records)
	spans, err := batchSpans(payload)
	if err != nil {
		return err
	}
	buf := encodeEntry(entryKindRecord, color, token, types.InvalidSN, payload)

	st.alloc.Lock()
	if _, ok := st.byToken[token]; ok {
		st.alloc.Unlock()
		return ErrDuplicateToken
	}
	if entrySize(len(payload)) > st.cfg.SegmentSize-segHeaderSize {
		st.alloc.Unlock()
		return fmt.Errorf("storage: batch of %d bytes exceeds segment capacity", len(payload))
	}
	seg, off, err := st.reserveEntry(uint64(len(buf)))
	if err != nil {
		st.alloc.Unlock()
		return err
	}
	loc := &entryLoc{
		seg:        seg,
		off:        off,
		payloadLen: len(payload),
		spans:      spans,
		token:      token,
		color:      color,
	}
	loc.liveCount.Store(int32(len(spans)))
	st.byToken[token] = loc
	seg.tokens = append(seg.tokens, token)
	seg.live.Add(1)
	wait, err := st.persistEntry(seg, off, buf)
	st.alloc.Unlock()
	if wait != nil {
		err = wait()
	}
	if err != nil {
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
//
// Commits of one color are serialized by the color lock (held across the
// durable SN write, so the write-lane FIFO and the sync path cannot
// interleave commits of the same token); commits of different colors run
// in parallel. The segment stays pinned in PM until firstSN is published,
// which makes the in-place SN write and the cache fill safe against slot
// reuse without holding the allocator lock.
func (st *Store) Commit(token types.Token, lastSN types.SN) error {
	if !lastSN.Valid() {
		return fmt.Errorf("storage: cannot commit %v with invalid SN", token)
	}
	st.alloc.RLock()
	loc := st.byToken[token]
	st.alloc.RUnlock()
	if loc == nil {
		return ErrUnknownToken
	}
	if int(lastSN.Counter()) < loc.count() {
		return fmt.Errorf("storage: SN %v too small for batch of %d", lastSN, loc.count())
	}
	firstSN := lastSN - types.SN(loc.count()-1)
	ci := st.color(loc.color)
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if cur := loc.first(); cur.Valid() {
		if cur == firstSN {
			return nil
		}
		return fmt.Errorf("storage: token %v already committed at %v, got %v", token, cur, firstSN)
	}
	if err := st.commitEntrySN(loc, firstSN); err != nil {
		return err
	}
	for i := 0; i < loc.count(); i++ {
		sn := firstSN + types.SN(i)
		if sn <= ci.trimmed {
			// Committed below the trim watermark: immediately dead
			// (a trim raced ahead of this commit).
			loc.kill()
			continue
		}
		if _, taken := ci.bySN[sn]; taken {
			// Write-Once-Read-Many (§4): an SN never changes its record.
			// A colliding assignment (which a correct ordering layer never
			// produces) loses; its slot becomes a dead entry.
			loc.kill()
			continue
		}
		ci.bySN[sn] = recordRef{loc: loc, idx: i}
		if sn > ci.maxSN {
			ci.maxSN = sn
		}
		// Freshly appended records also populate the cache (§5.2). The
		// entry is still uncommitted (firstSN unpublished), so its segment
		// cannot be flushed from under this PM read.
		sp := loc.spans[i]
		data := make([]byte, sp.len)
		if err := st.pm.Read(loc.seg.pmOff+loc.off+entryHeaderSize+uint64(sp.off), data); err == nil {
			st.cache.put(loc.color, sn, data)
		}
	}
	// Publish last: from here on segmentFlushable may evict the segment.
	loc.firstSN.Store(uint64(firstSN))
	return nil
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
// PM, then the SSD").
//
// The device access runs with no store lock held, so concurrent readers
// (the replica's read lane) overlap their PM/SSD latency instead of
// serializing. PM slots are reused when a segment is flushed to the SSD,
// so an unlocked PM read is revalidated afterwards: if the segment lost
// its slot mid-read the bytes may be torn and the lookup is retried (the
// record then resolves to its SSD copy, which is immutable).
func (st *Store) Get(color types.ColorID, sn types.SN) ([]byte, error) {
	if data, ok := st.cache.get(color, sn); ok {
		return data, nil
	}
	ci, ok := st.colorIfExists(color)
	if !ok {
		return nil, ErrNotFound
	}
	for attempt := 0; attempt < 2; attempt++ {
		ci.mu.RLock()
		ref, err := ci.lookupLocked(sn)
		ci.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		seg := ref.loc.seg
		flushed := seg.flushed()
		data, derr := st.readRecordAt(ref.loc, ref.idx, flushed)
		if flushed {
			// Cold blobs are written once and never mutated, so a success
			// is final. A failure is retried through the lookup: the blob
			// may have been garbage collected after a trim landed, in
			// which case the next lookup reports ErrTrimmed.
			if derr == nil {
				st.coldMisses.Add(1)
				st.cache.put(color, sn, data)
				return data, nil
			}
			continue
		}
		if derr == nil {
			st.alloc.RLock()
			valid := !seg.flushed() && st.slotSeg[seg.slotIdx()] == seg
			st.alloc.RUnlock()
			if valid {
				st.cache.put(color, sn, data)
				return data, nil
			}
		}
		// The PM slot was flushed or reclaimed mid-read: retry the lookup
		// (the record moved to the cold tier, or was trimmed away).
	}
	// Still racing after retries (or the device read keeps failing):
	// resolve with the allocator lock held across the read, where no flush
	// can interleave (lock order: color, then allocator).
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	ref, err := ci.lookupLocked(sn)
	if err != nil {
		return nil, err
	}
	st.alloc.RLock()
	data, err := st.readRecordData(ref.loc, ref.idx)
	flushed := ref.loc.seg.flushed()
	st.alloc.RUnlock()
	if err != nil {
		if flushed {
			return nil, fmt.Errorf("%w: segment %d: %v", ErrEvicted, ref.loc.seg.id, err)
		}
		return nil, err
	}
	if flushed {
		st.coldMisses.Add(1)
	}
	st.cache.put(color, sn, data)
	return data, nil
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
// Only the matching refs are snapshotted and read — a subscriber tailing
// the log no longer pays device reads for the prefix it already has — and
// each device read runs with no store lock held (see Get). limit > 0 caps
// the result at that many records, rounded up to the end of the append
// batch the cap falls in: a caller paging through the log (replica
// catch-up) reads only the page it ships and never sees a batch split
// across two pages.
func (st *Store) ScanFrom(color types.ColorID, after types.SN, limit int) ([]types.Record, error) {
	type snRef struct {
		sn  types.SN
		ref recordRef
	}
	ci, ok := st.colorIfExists(color)
	if !ok {
		return nil, nil
	}
	ci.mu.RLock()
	refs := make([]snRef, 0, len(ci.bySN))
	for sn, ref := range ci.bySN {
		if sn > after {
			refs = append(refs, snRef{sn, ref})
		}
	}
	ci.mu.RUnlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].sn < refs[j].sn })
	if limit > 0 && len(refs) > limit {
		for limit < len(refs) && refs[limit].ref.loc == refs[limit-1].ref.loc {
			limit++
		}
		refs = refs[:limit]
	}
	out := make([]types.Record, 0, len(refs))
	for _, r := range refs {
		data, err := st.readLive(r.ref.loc, r.ref.idx)
		if err != nil {
			return nil, err
		}
		out = append(out, types.Record{Token: r.ref.loc.token, SN: r.sn, Color: color, Data: data})
	}
	return out, nil
}

// readLive reads one record with no store lock held across the device
// access, revalidating PM reads against slot reuse (see Get for the
// hazard).
func (st *Store) readLive(loc *entryLoc, idx int) ([]byte, error) {
	for attempt := 0; attempt < 2; attempt++ {
		flushed := loc.seg.flushed()
		data, err := st.readRecordAt(loc, idx, flushed)
		if flushed {
			return data, err // SSD files are immutable: both outcomes final
		}
		if err == nil {
			st.alloc.RLock()
			valid := !loc.seg.flushed() && st.slotSeg[loc.seg.slotIdx()] == loc.seg
			st.alloc.RUnlock()
			if valid {
				return data, nil
			}
		}
	}
	st.alloc.RLock()
	defer st.alloc.RUnlock()
	return st.readRecordData(loc, idx)
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
		ok := true
		for i := 0; i < loc.count(); i++ {
			st.alloc.RLock()
			data, err := st.readRecordData(loc, i)
			st.alloc.RUnlock()
			if err != nil {
				ok = false
				break
			}
			b.Records = append(b.Records, data)
		}
		if ok {
			out = append(out, b)
		}
	}
	return out
}

// Trim deletes every record of the color with SN <= sn (§6.2). The trim is
// persisted as a log marker so it survives crashes. Returns the remaining
// [head, tail] bounds. Lock order: the color lock is taken first and held
// across the marker write and the index sweep, serializing the trim
// against commits of the same color; the allocator lock is only held for
// the marker's space reservation.
func (st *Store) Trim(color types.ColorID, sn types.SN) (head, tail types.SN, err error) {
	ci := st.color(color)
	ci.mu.Lock()
	defer ci.mu.Unlock()
	buf := encodeEntry(entryKindTrim, color, 0, sn, nil)
	st.alloc.Lock()
	seg, off, e := st.reserveEntry(uint64(len(buf)))
	if e != nil {
		st.alloc.Unlock()
		return 0, 0, e
	}
	seg.trimMarks = append(seg.trimMarks, trimMark{color: color, sn: sn})
	wait, e := st.persistEntry(seg, off, buf)
	st.alloc.Unlock()
	if wait != nil {
		e = wait()
	}
	if e != nil {
		return 0, 0, e
	}
	st.applyTrimLocked(ci, color, sn)
	head, tail = ci.boundsLocked()
	// Trims create garbage: nudge the lifecycle so cold blobs whose records
	// all died are reclaimed promptly.
	if st.lc != nil {
		st.lc.kick()
	}
	return head, tail, nil
}

// applyTrimLocked removes trimmed records from the indexes. Caller holds
// the color's lock.
func (st *Store) applyTrimLocked(ci *colorIndex, color types.ColorID, sn types.SN) {
	if sn > ci.trimmed {
		ci.trimmed = sn
	}
	for s, ref := range ci.bySN {
		if s <= sn {
			ref.loc.kill()
			delete(ci.bySN, s)
			st.cache.drop(color, s)
		}
	}
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
	st.pm.Crash()
	st.cold.Crash()
	st.alloc.Unlock()
	unlockColors(locked)
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

	st.segs = make(map[uint64]*segment)
	st.byToken = make(map[types.Token]*entryLoc)
	st.cache = newStripedCache(st.cfg.CacheBytes)
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
		ci.bySN = make(map[types.SN]recordRef)
		ci.maxSN = types.InvalidSN
		ci.trimmed = types.InvalidSN
		ci.ckptFloor = types.InvalidSN
	}

	type pendingTrim struct {
		color types.ColorID
		sn    types.SN
	}
	var trims []pendingTrim

	ingest := func(seg *segment, raw []byte) error {
		return scanSegment(raw, func(off uint64, e decodedEntry, data []byte) error {
			seg.total++
			switch e.kind {
			case entryKindRecord:
				spans, err := batchSpans(data)
				if err != nil {
					return err
				}
				seg.live.Add(1)
				loc := &entryLoc{
					seg: seg, off: off, payloadLen: e.dataLen, spans: spans,
					token: e.token, color: e.color,
				}
				loc.firstSN.Store(uint64(e.sn))
				loc.liveCount.Store(int32(len(spans)))
				st.byToken[e.token] = loc
				seg.tokens = append(seg.tokens, e.token)
				if e.sn.Valid() {
					ci := colorLocked(e.color)
					for i := range spans {
						sn := e.sn + types.SN(i)
						if _, taken := ci.bySN[sn]; taken {
							// Write-Once (§4): recovery replays segments in
							// ascending id (persist) order, so the earlier
							// record keeps the SN exactly as the live index
							// did; a later colliding entry is dead.
							loc.kill()
							continue
						}
						ci.bySN[sn] = recordRef{loc: loc, idx: i}
						if sn > ci.maxSN {
							ci.maxSN = sn
						}
					}
				}
				return nil
			case entryKindTrim:
				seg.trimMarks = append(seg.trimMarks, trimMark{color: e.color, sn: e.sn})
				trims = append(trims, pendingTrim{color: e.color, sn: e.sn})
			}
			return nil
		})
	}

	var stats RecoveryStats

	// Collect every segment image — PM slots first (header, then only the
	// used prefix: the sequential scan whose cost Fig. 10 measures). The PM
	// copy of a segment always wins over its cold blob: eviction only frees
	// the slot after the cold copy is synced, so a surviving resident copy
	// means the blob may be torn.
	type pendingSeg struct {
		seg *segment
		raw []byte   // image to scan; nil when restored from checkpoint
		ck  *ckptSeg // checkpoint metadata (raw == nil)
	}
	var images []pendingSeg
	for i, base := range st.slots {
		var hdr [segHeaderSize]byte
		if err := st.pm.Read(base, hdr[:]); err != nil {
			return err
		}
		used := binary.LittleEndian.Uint64(hdr[0:8])
		id := binary.LittleEndian.Uint64(hdr[8:16])
		if id == 0 || used < segHeaderSize || used > st.cfg.SegmentSize {
			continue // never-used slot
		}
		raw := make([]byte, used)
		if err := st.pm.Read(base, raw); err != nil {
			return err
		}
		images = append(images, pendingSeg{seg: newSegment(id, i, base, used), raw: raw})
	}
	pmIDs := make(map[uint64]bool, len(images))
	for _, im := range images {
		pmIDs[im.seg.id] = true
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
		for i := range ck.segs {
			s := &ck.segs[i]
			covered[s.id] = true
			if pmIDs[s.id] {
				continue
			}
			images = append(images, pendingSeg{seg: newSegment(s.id, -1, 0, s.used), ck: s})
		}
	}

	// Scan the cold blobs flushed after the checkpoint (the bounded replay
	// suffix). Blobs that are gone or torn are skipped, not fatal: a blob
	// is only load-bearing once its eviction synced, and then either it is
	// readable or the PM copy survived (handled above). Unreadable
	// leftovers are torn artifacts of an unsynced eviction or blobs the
	// cold GC deleted under checkpoint cover.
	for _, name := range st.cold.List() {
		var id uint64
		if _, err := fmt.Sscanf(name, "seg-%d", &id); err != nil {
			continue
		}
		if pmIDs[id] || covered[id] {
			continue
		}
		sz, err := st.cold.Size(name)
		if err != nil {
			stats.MissingBlobs++
			continue
		}
		raw := make([]byte, sz)
		if err := st.cold.Get(name, 0, raw); err != nil {
			stats.MissingBlobs++
			continue
		}
		if err := scanSegment(raw, func(uint64, decodedEntry, []byte) error { return nil }); err != nil {
			stats.MissingBlobs++
			continue
		}
		images = append(images, pendingSeg{seg: newSegment(id, -1, 0, uint64(sz)), raw: raw})
	}

	// Ingest in ascending segment-id (persist) order so the rebuilt indexes
	// match the pre-crash ones deterministically.
	sort.Slice(images, func(i, j int) bool { return images[i].seg.id < images[j].seg.id })
	var flushedUncovered uint64
	for _, im := range images {
		if im.ck != nil {
			st.restoreCkptSeg(im.seg, im.ck, colorLocked)
			stats.RestoredEntries += len(im.ck.entries)
		} else {
			if err := ingest(im.seg, im.raw); err != nil {
				return err
			}
			stats.ScannedSegments++
			stats.ReplayedEntries += im.seg.total
			stats.ReplayedBytes += uint64(len(im.raw))
			if im.seg.flushed() {
				flushedUncovered += uint64(im.seg.total)
			}
		}
		st.segs[im.seg.id] = im.seg
		if !im.seg.flushed() {
			st.slotSeg[im.seg.slotIdx()] = im.seg
		}
		if im.seg.id >= st.nextSeg {
			st.nextSeg = im.seg.id + 1
		}
	}

	// Trims: the checkpoint's color floors first (they subsume every trim
	// the checkpoint observed applied), then the covered segments'
	// preserved markers, then the markers replayed from scanned images.
	if ck != nil {
		for c, cc := range ck.colors {
			ci := colorLocked(c)
			ci.ckptFloor = cc.trimmed
			st.applyTrimLocked(ci, c, cc.trimmed)
			if cc.maxSN > ci.maxSN {
				ci.maxSN = cc.maxSN
			}
		}
		for _, s := range ck.segs {
			for _, m := range s.marks {
				st.applyTrimLocked(colorLocked(m.color), m.color, m.sn)
			}
		}
	}
	for _, tr := range trims {
		st.applyTrimLocked(colorLocked(tr.color), tr.color, tr.sn)
	}

	// Lifecycle bookkeeping: the restored checkpoint becomes the durable
	// one; everything scanned off the cold tier is uncovered again.
	st.ckptCovered = covered
	st.ckptTrimmed = make(map[types.ColorID]types.SN)
	st.ckptSeq = 0
	st.ckptEntries = 0
	if ck != nil {
		st.ckptSeq = ck.seq
		st.ckptEntries = stats.RestoredEntries
		for c, cc := range ck.colors {
			st.ckptTrimmed[c] = cc.trimmed
		}
	}
	st.uncovered = flushedUncovered

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

// restoreCkptSeg registers a checkpoint-covered segment from metadata alone
// (no device read). Caller holds st.alloc and the color locks regime of
// Recover; colorLocked resolves (locking on demand) a color's index.
func (st *Store) restoreCkptSeg(seg *segment, s *ckptSeg, colorLocked func(types.ColorID) *colorIndex) {
	seg.sealed = true
	seg.trimMarks = append([]trimMark(nil), s.marks...)
	for _, e := range s.entries {
		loc := &entryLoc{
			seg: seg, off: e.off, payloadLen: e.payloadLen, spans: e.spans,
			token: e.token, color: e.color,
		}
		loc.firstSN.Store(uint64(e.firstSN))
		loc.liveCount.Store(int32(len(e.spans)))
		seg.live.Add(1)
		seg.total++
		st.byToken[e.token] = loc
		seg.tokens = append(seg.tokens, e.token)
		if !e.firstSN.Valid() {
			continue
		}
		ci := colorLocked(e.color)
		for i := range e.spans {
			sn := e.firstSN + types.SN(i)
			if _, taken := ci.bySN[sn]; taken {
				// Write-Once (§4): ids are processed in persist order, so
				// the earlier record keeps the SN (see ingest).
				loc.kill()
				continue
			}
			ci.bySN[sn] = recordRef{loc: loc, idx: i}
			if sn > ci.maxSN {
				ci.maxSN = sn
			}
		}
	}
}

// Stats reports storage-stack counters.
type Stats struct {
	Records     int
	Committed   int
	Flushes     uint64
	Recoveries  uint64
	CacheHits   uint64
	CacheMisses uint64

	// Lifecycle counters (see lifecycle.go / checkpoint.go).
	Evictions        uint64 // background evictions to the cold tier
	EvictedBytes     uint64
	GCSegments       uint64 // segments reclaimed (both tiers)
	GCBytes          uint64
	Checkpoints      uint64 // checkpoints written since open
	CheckpointSeq    uint64 // sequence of the last durable checkpoint
	ColdMissReads    uint64 // PM-miss reads served by the cold tier
	ResidentSegments int    // segments currently occupying PM slots
	ResidentBytes    uint64 // PM bytes those segments occupy
	ColdSegments     int    // flushed segments (cold-tier only)

	GC   GCStats
	PM   pmem.Stats
	SSD  ssd.Stats // the device under the cold tier
	Cold tier.Stats
}

// Stats returns a snapshot of counters across the tiers.
func (st *Store) Stats() Stats {
	// Color locks strictly before the allocator lock.
	committed := 0
	st.colors.Range(func(_, v any) bool {
		ci := v.(*colorIndex)
		ci.mu.RLock()
		committed += len(ci.bySN)
		ci.mu.RUnlock()
		return true
	})
	st.alloc.RLock()
	defer st.alloc.RUnlock()
	hits, misses := st.cache.stats()
	s := Stats{
		Records:       len(st.byToken),
		Committed:     committed,
		Flushes:       st.flushes,
		Recoveries:    st.recovers,
		CacheHits:     hits,
		CacheMisses:   misses,
		Evictions:     st.evictions,
		EvictedBytes:  st.evictedBytes,
		GCSegments:    st.gcSegments,
		GCBytes:       st.gcBytes,
		Checkpoints:   st.checkpoints,
		CheckpointSeq: st.ckptSeq,
		ColdMissReads: st.coldMisses.Load(),
		PM:            st.pm.Stats(),
		Cold:          st.cold.Stats(),
	}
	for _, seg := range st.segs {
		if seg.flushed() {
			s.ColdSegments++
		} else {
			s.ResidentSegments++
			s.ResidentBytes += seg.used
		}
	}
	s.SSD = st.cold.Device().Stats()
	if st.gc != nil {
		s.GC = st.gc.stats()
	}
	return s
}

// SaveDevices snapshots both device tiers to files (see pmem.SaveTo and
// ssd.SaveTo); Open(WithAttach) restores a store from them on the next boot.
func (st *Store) SaveDevices(pmPath, ssdPath string) error {
	if err := st.pm.SaveTo(pmPath); err != nil {
		return err
	}
	return st.cold.Device().SaveTo(ssdPath)
}
