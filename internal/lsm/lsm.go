// Package lsm is a log-structured merge-tree storage engine over the
// simulated SSD — the stand-in for RocksDB as the backend of the Boki
// baseline (§9.1: "Boki is built on top of RocksDB … with
// Write-Ahead-Log enabled").
//
// Architecture (mirroring the RocksDB pieces that dominate the paper's
// Fig. 5–7 costs):
//
//   - writes go to a write-ahead log on the SSD and are synced per batch —
//     the sync syscalls are exactly the overhead §9.1 blames for Boki's
//     storage throughput ("Boki's limited performance mainly derives from
//     the sync syscalls");
//   - a skip-list MemTable absorbs writes; at MemTableBytes it is flushed
//     to a sorted SSTable with a sparse index and a Bloom filter;
//   - reads consult the MemTable, the immutable (flushing) memtable, then
//     L0 tables newest-to-oldest, then the compacted L1 table;
//   - a background compaction merges L0 into L1 when L0 grows beyond
//     CompactionTrigger tables;
//   - crash recovery replays the WAL's synced prefix.
package lsm

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"flexlog/internal/ssd"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("lsm: closed")

// ErrNotFound is returned for absent (or deleted) keys.
var ErrNotFound = errors.New("lsm: key not found")

// Config sizes the engine.
type Config struct {
	// MemTableBytes triggers a flush (RocksDB default in the paper: 64 MiB;
	// tests use much smaller values).
	MemTableBytes int
	// CompactionTrigger is the L0 table count that triggers compaction.
	CompactionTrigger int
	// SyncWAL syncs the WAL on every write batch (durability on; the
	// paper's configuration). Disabling it is the ablation knob.
	SyncWAL bool
}

// Stats counts engine activity.
type Stats struct {
	Puts, Gets  uint64
	Flushes     uint64
	Compactions uint64
	WALSyncs    uint64
	BloomSkips  uint64
	SSD         ssd.Stats
}

// hotStats are the counters touched on the concurrent read path.
type hotStats struct {
	gets       atomic.Uint64
	bloomSkips atomic.Uint64
}

// DB is the storage engine.
type DB struct {
	cfg Config
	dev *ssd.Device

	mu        sync.RWMutex
	mem       *skipList
	imms      []immEntry // immutable memtables queued for flush, oldest first
	l0        []*sstable
	l1        *sstable
	walName   string
	walSeq    uint64
	tableSeq  uint64
	stats     Stats
	hot       hotStats
	flushCond *sync.Cond
	flushing  bool
	bgWG      sync.WaitGroup // flushes + compactions
	loopWG    sync.WaitGroup // committer loop

	// compactMu admits one compaction at a time. Two at once would each
	// merge their own snapshot of L0+L1, and the one finishing last would
	// install an L1 that lacks the other's output — lost keys.
	compactMu sync.Mutex

	closeMu sync.RWMutex // guards closed + enqueue into writeCh
	closed  bool
	writeCh chan *pendingWrite
	stopCh  chan struct{}
}

// Open creates an engine over the device, replaying any existing WAL.
func Open(cfg Config, dev *ssd.Device) (*DB, error) {
	if cfg.MemTableBytes <= 0 {
		cfg.MemTableBytes = 64 << 20
	}
	if cfg.CompactionTrigger <= 0 {
		cfg.CompactionTrigger = 4
	}
	db := &DB{
		cfg: cfg, dev: dev, mem: newSkipList(1),
		writeCh: make(chan *pendingWrite, 1024),
		stopCh:  make(chan struct{}),
	}
	db.flushCond = sync.NewCond(&db.mu)
	db.walName = "wal-1"
	db.walSeq = 1
	if err := db.recover(); err != nil {
		return nil, err
	}
	if err := dev.Create(db.walName); err != nil {
		return nil, err
	}
	db.loopWG.Add(1)
	go db.committerLoop()
	return db, nil
}

// recover replays the synced WAL prefix and re-opens existing tables.
// Device listings are unordered, so tables and WALs are sorted by their
// sequence number before use (L0 newest-first; WALs oldest-first so newer
// entries overwrite older ones in the memtable).
func (db *DB) recover() error {
	type seqName struct {
		seq  uint64
		name string
	}
	var l0s, wals []seqName
	for _, name := range db.dev.List() {
		var seq uint64
		if n, _ := fmt.Sscanf(name, "sst-%d", &seq); n == 1 {
			l0s = append(l0s, seqName{seq, name})
			if seq >= db.tableSeq {
				db.tableSeq = seq + 1
			}
			continue
		}
		if n, _ := fmt.Sscanf(name, "l1-%d", &seq); n == 1 {
			t, err := openSSTable(db.dev, name)
			if err != nil {
				return err
			}
			// At most one L1 should exist; keep the newest if a crash
			// left a stale one behind.
			if db.l1 == nil || seq >= db.tableSeq-1 {
				db.l1 = t
			}
			if seq >= db.tableSeq {
				db.tableSeq = seq + 1
			}
			continue
		}
		if n, _ := fmt.Sscanf(name, "wal-%d", &seq); n == 1 {
			wals = append(wals, seqName{seq, name})
			if seq >= db.walSeq {
				db.walSeq = seq + 1
			}
		}
	}
	sort.Slice(l0s, func(i, j int) bool { return l0s[i].seq > l0s[j].seq }) // newest first
	for _, sn := range l0s {
		t, err := openSSTable(db.dev, sn.name)
		if err != nil {
			return err
		}
		db.l0 = append(db.l0, t)
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i].seq < wals[j].seq }) // oldest first
	for _, sn := range wals {
		if err := db.replayWAL(sn.name); err != nil {
			return err
		}
		db.dev.Delete(sn.name)
	}
	db.walName = fmt.Sprintf("wal-%d", db.walSeq)
	return nil
}

// replayWAL inserts the WAL's records into the memtable.
func (db *DB) replayWAL(name string) error {
	size, err := db.dev.Size(name)
	if err != nil {
		return err
	}
	raw := make([]byte, size)
	if err := db.dev.ReadAt(name, 0, raw); err != nil {
		return err
	}
	for off := 0; off+8 <= len(raw); {
		klen := int(leU32(raw[off : off+4]))
		vlen := leU32(raw[off+4 : off+8])
		off += 8
		dlen := int(vlen)
		if off+klen+dlen > len(raw) {
			break // torn tail (unsynced remainder)
		}
		key := append([]byte(nil), raw[off:off+klen]...)
		off += klen
		val := append([]byte{}, raw[off:off+dlen]...)
		off += dlen
		db.mem.set(key, val)
	}
	return nil
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// immEntry is a rotated memtable waiting to be flushed, together with the
// WAL file that covers it.
type immEntry struct {
	sl  *skipList
	wal string
}

// pendingWrite is one queued write awaiting group commit.
type pendingWrite struct {
	key, value []byte
	done       chan error
}

// Put stores a key/value pair. The write is durable (WAL synced) when Put
// returns.
func (db *DB) Put(key, value []byte) error {
	return db.write(key, value)
}

// write enqueues the record for the committer's group commit — the
// RocksDB-style write group that lets WAL-synced writers scale with
// threads (Fig. 6): concurrent writers share one WAL sync.
func (db *DB) write(key, value []byte) error {
	pw := &pendingWrite{
		key:   append([]byte(nil), key...),
		value: append([]byte{}, value...),
		done:  make(chan error, 1),
	}
	db.closeMu.RLock()
	if db.closed {
		db.closeMu.RUnlock()
		return ErrClosed
	}
	db.writeCh <- pw
	db.closeMu.RUnlock()
	return <-pw.done
}

// committerLoop batches queued writes: one WAL append + one sync per
// group, then the memtable inserts.
func (db *DB) committerLoop() {
	defer db.loopWG.Done()
	const maxGroup = 128
	batch := make([]*pendingWrite, 0, maxGroup)
	for {
		batch = batch[:0]
		select {
		case pw := <-db.writeCh:
			batch = append(batch, pw)
		case <-db.stopCh:
			// Drain what is left, then exit.
			for {
				select {
				case pw := <-db.writeCh:
					pw.done <- ErrClosed
				default:
					return
				}
			}
		}
		// Give concurrently released writers a chance to enqueue before the
		// group is cut — on few-core hosts the committer otherwise wins
		// every scheduling race and groups degenerate to size one.
		runtime.Gosched()
	drain:
		for len(batch) < maxGroup {
			select {
			case pw := <-db.writeCh:
				batch = append(batch, pw)
			default:
				break drain
			}
		}
		db.commitGroup(batch)
	}
}

// commitGroup durably writes one group and applies it to the memtable.
func (db *DB) commitGroup(batch []*pendingWrite) {
	var buf []byte
	for _, pw := range batch {
		rec := make([]byte, 8+len(pw.key)+len(pw.value))
		putLeU32(rec[0:4], uint32(len(pw.key)))
		putLeU32(rec[4:8], uint32(len(pw.value)))
		copy(rec[8:], pw.key)
		copy(rec[8+len(pw.key):], pw.value)
		buf = append(buf, rec...)
	}
	db.mu.Lock()
	wal := db.walName
	db.mu.Unlock()

	var commitErr error
	if _, err := db.dev.Append(wal, buf); err != nil {
		commitErr = err
	} else if db.cfg.SyncWAL {
		commitErr = db.dev.Sync(wal)
	}

	db.mu.Lock()
	if commitErr == nil {
		for _, pw := range batch {
			db.mem.set(pw.key, pw.value)
			db.stats.Puts++
		}
		if db.cfg.SyncWAL {
			db.stats.WALSyncs++
		}
		if db.mem.bytes >= db.cfg.MemTableBytes {
			db.rotateLocked()
		}
	}
	db.mu.Unlock()
	for _, pw := range batch {
		pw.done <- commitErr
	}
}

// rotateLocked queues the current memtable for flushing and starts the
// flusher if idle. Caller holds db.mu.
func (db *DB) rotateLocked() {
	db.imms = append(db.imms, immEntry{sl: db.mem, wal: db.walName})
	db.mem = newSkipList(int64(db.walSeq))
	db.walSeq++
	db.walName = fmt.Sprintf("wal-%d", db.walSeq)
	db.dev.Create(db.walName)
	if !db.flushing {
		db.flushing = true
		db.bgWG.Add(1)
		go db.flushLoop()
	}
}

func putLeU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// flushLoop drains the immutable-memtable queue, writing each as an L0
// SSTable, and triggers compaction when L0 grows past the trigger.
func (db *DB) flushLoop() {
	defer db.bgWG.Done()
	for {
		db.mu.Lock()
		if len(db.imms) == 0 {
			db.flushing = false
			db.flushCond.Broadcast()
			db.mu.Unlock()
			return
		}
		entry := db.imms[0]
		name := fmt.Sprintf("sst-%d", db.tableSeq)
		db.tableSeq++
		db.mu.Unlock()

		var keys, values [][]byte
		entry.sl.each(func(k, v []byte) bool {
			keys = append(keys, k)
			values = append(values, v)
			return true
		})
		var t *sstable
		var err error
		if len(keys) > 0 {
			t, err = writeSSTable(db.dev, name, keys, values)
		}

		db.mu.Lock()
		if err == nil {
			if t != nil {
				db.l0 = append([]*sstable{t}, db.l0...)
			}
			db.imms = db.imms[1:]
			db.stats.Flushes++
			db.dev.Delete(entry.wal)
		} else {
			// Leave the entry queued; a later flush retries. Avoid a hot
			// retry loop by giving up the flusher role.
			db.flushing = false
			db.flushCond.Broadcast()
			db.mu.Unlock()
			return
		}
		if len(db.l0) >= db.cfg.CompactionTrigger {
			db.bgWG.Add(1)
			go db.compact()
		}
		db.mu.Unlock()
	}
}

// compact merges all L0 tables and L1 into a new L1 (universal style). A
// compaction that had to wait for one in progress takes its snapshot after
// it, and finds nothing to do if that one merged the tables it was started
// for.
func (db *DB) compact() {
	defer db.bgWG.Done()
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	db.mu.Lock()
	l0 := append([]*sstable(nil), db.l0...)
	l1 := db.l1
	db.mu.Unlock()
	if len(l0) < db.cfg.CompactionTrigger {
		return
	}
	// Merge newest-first: the first writer of a key wins.
	merged := newSkipList(42)
	seen := make(map[string]bool)
	ingest := func(t *sstable) error {
		return t.each(func(k, v []byte) error {
			if seen[string(k)] {
				return nil
			}
			seen[string(k)] = true
			merged.set(append([]byte(nil), k...), append([]byte(nil), v...))
			return nil
		})
	}
	for _, t := range l0 {
		if ingest(t) != nil {
			return
		}
	}
	if l1 != nil {
		if ingest(l1) != nil {
			return
		}
	}
	var keys, values [][]byte
	merged.each(func(k, v []byte) bool {
		keys = append(keys, k)
		values = append(values, v)
		return true
	})
	db.mu.Lock()
	name := fmt.Sprintf("l1-%d", db.tableSeq)
	db.tableSeq++
	db.mu.Unlock()

	var newL1 *sstable
	if len(keys) > 0 {
		var err error
		newL1, err = writeSSTable(db.dev, name, keys, values)
		if err != nil {
			return
		}
	}
	db.mu.Lock()
	// Drop exactly the tables we merged (new L0 flushes may have arrived).
	mergedSet := make(map[*sstable]bool, len(l0))
	for _, t := range l0 {
		mergedSet[t] = true
	}
	var rest []*sstable
	for _, t := range db.l0 {
		if !mergedSet[t] {
			rest = append(rest, t)
		}
	}
	db.l0 = rest
	oldL1 := db.l1
	db.l1 = newL1
	db.stats.Compactions++
	db.mu.Unlock()
	for _, t := range l0 {
		db.dev.Delete(t.name)
	}
	if oldL1 != nil {
		db.dev.Delete(oldL1.name)
	}
}

// Get returns the value for key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.closeMu.RLock()
	closed := db.closed
	db.closeMu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	db.mu.RLock()
	db.hot.gets.Add(1)
	if v, ok := db.mem.get(key); ok {
		db.mu.RUnlock()
		return v, nil
	}
	for i := len(db.imms) - 1; i >= 0; i-- { // newest immutable first
		if v, ok := db.imms[i].sl.get(key); ok {
			db.mu.RUnlock()
			return v, nil
		}
	}
	for {
		l0 := append([]*sstable(nil), db.l0...)
		l1 := db.l1
		compactions := db.stats.Compactions
		db.mu.RUnlock()

		v, err := db.getFromTables(l0, l1, key)
		if !errors.Is(err, ssd.ErrNotFound) {
			return v, err
		}
		// A compaction that finished after the snapshot above deleted the
		// files it merged; what they held is in the new L1, so look
		// again. A missing file with no compaction since is a real error.
		db.mu.RLock()
		if db.stats.Compactions == compactions {
			db.mu.RUnlock()
			return nil, err
		}
	}
}

// getFromTables looks key up in one snapshot of the table set, newest
// table first.
func (db *DB) getFromTables(l0 []*sstable, l1 *sstable, key []byte) ([]byte, error) {
	for _, t := range l0 {
		if !t.bloom.mayContain(key) {
			db.hot.bloomSkips.Add(1)
			continue
		}
		v, found, err := t.get(key)
		if err != nil {
			return nil, err
		}
		if found {
			return v, nil
		}
	}
	if l1 != nil {
		v, found, err := l1.get(key)
		if err != nil {
			return nil, err
		}
		if found {
			return v, nil
		}
	}
	return nil, ErrNotFound
}

// Stats returns a snapshot of the counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.stats
	s.Gets = db.hot.gets.Load()
	s.BloomSkips = db.hot.bloomSkips.Load()
	s.SSD = db.dev.Stats()
	return s
}

// Close waits for background work and marks the engine closed.
func (db *DB) Close() error {
	db.closeMu.Lock()
	if db.closed {
		db.closeMu.Unlock()
		return nil
	}
	db.closed = true
	db.closeMu.Unlock()
	close(db.stopCh)
	db.loopWG.Wait()
	db.bgWG.Wait()
	return nil
}
