package lsm

import "flexlog/internal/ssd"

func newTestDevice() *ssd.Device { return ssd.New(ssd.Zero()) }

// defaultCfg is a test engine at the paper's RocksDB setup.
func defaultCfg() Config {
	return Config{MemTableBytes: 64 << 20, CompactionTrigger: 4, SyncWAL: true}
}

// flush forces the current memtable out and waits for all queued flushes.
func flush(db *DB) {
	db.mu.Lock()
	if db.mem.bytes > 0 {
		db.rotateLocked()
	}
	for db.flushing {
		db.flushCond.Wait()
	}
	db.mu.Unlock()
}

// size counts the skip list's keys.
func size(s *skipList) int {
	n := 0
	s.each(func(_, _ []byte) bool { n++; return true })
	return n
}
