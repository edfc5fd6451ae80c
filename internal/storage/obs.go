package storage

import (
	"flexlog/internal/obs"
)

// This file publishes the storage stack into the observability registry.
// Everything is func-backed: the store's existing counters (cache,
// flush/recovery, group commit, PM and SSD device stats) stay the single
// source of truth and are read at scrape time. The only live recording is
// the two latency histograms — PM transaction time and group-commit
// window time — created in initObs and recorded by the write paths; both
// are nil-safe, so a store built without a registry pays nothing.

// initObs creates the store's histograms and registers its func-backed
// metrics. Called by every constructor before the group committer is made;
// a nil cfg.Obs leaves every histogram nil (recording no-ops).
func (st *Store) initObs() {
	reg := st.cfg.Obs
	if reg == nil {
		return
	}
	lb := obs.Labels{"node": st.cfg.ObsNode}
	st.pmTxH = reg.Histogram("flexlog_pm_tx_seconds",
		"Duration of one persistent-memory transaction (undo-log snapshot through commit).", lb)
	st.gcWindowH = reg.Histogram("flexlog_gc_window_seconds",
		"Duration of one group-commit window: the leader cutting it through its writes marked done.", lb)

	reg.CounterFunc("flexlog_store_cache_hits_total",
		"DRAM cache hits on the read path.", lb,
		func() uint64 { h, _ := st.cache.stats(); return h })
	reg.CounterFunc("flexlog_store_cache_misses_total",
		"DRAM cache misses on the read path.", lb,
		func() uint64 { _, m := st.cache.stats(); return m })
	reg.CounterFunc("flexlog_store_flushes_total",
		"PM segments flushed to the SSD tier to free slots.", lb,
		func() uint64 { st.alloc.RLock(); defer st.alloc.RUnlock(); return st.flushes })
	reg.CounterFunc("flexlog_store_recoveries_total",
		"Recovery scans performed (crash restarts).", lb,
		func() uint64 { st.alloc.RLock(); defer st.alloc.RUnlock(); return st.recovers })
	reg.GaugeFunc("flexlog_store_records",
		"Persisted append batches currently indexed (committed or not).", lb,
		func() float64 { st.alloc.RLock(); defer st.alloc.RUnlock(); return float64(len(st.byToken)) })

	// Group-commit engine (zero until cfg.GroupCommit creates it; the
	// closures tolerate a nil committer so registration order is free).
	reg.CounterFunc("flexlog_gc_windows_total",
		"Group-commit windows committed (PM transactions shared by concurrent writers).", lb,
		func() uint64 {
			if st.gc == nil {
				return 0
			}
			return st.gc.windows.Load()
		})
	reg.CounterFunc("flexlog_gc_ops_total",
		"Writes submitted to the group committer.", lb,
		func() uint64 {
			if st.gc == nil {
				return 0
			}
			return st.gc.ops.Load()
		})
	reg.CounterFunc("flexlog_gc_fused_total",
		"Payload writes saved by contiguous fusion inside group-commit windows.", lb,
		func() uint64 {
			if st.gc == nil {
				return 0
			}
			return st.gc.fused.Load()
		})

	// The simulated PM pool keeps its own op counters; publish them per
	// direction/outcome.
	reg.CounterFunc("flexlog_pm_ops_total",
		"Persistent-memory device operations, by op.", withKV(lb, "op", "read"),
		func() uint64 { return st.pm.Stats().Reads })
	reg.CounterFunc("flexlog_pm_ops_total",
		"Persistent-memory device operations, by op.", withKV(lb, "op", "write"),
		func() uint64 { return st.pm.Stats().Writes })
	reg.CounterFunc("flexlog_pm_bytes_total",
		"Persistent-memory bytes moved, by direction.", withKV(lb, "dir", "read"),
		func() uint64 { return st.pm.Stats().BytesRead })
	reg.CounterFunc("flexlog_pm_bytes_total",
		"Persistent-memory bytes moved, by direction.", withKV(lb, "dir", "write"),
		func() uint64 { return st.pm.Stats().BytesWritten })
	reg.CounterFunc("flexlog_pm_tx_total",
		"Persistent-memory transactions, by outcome.", withKV(lb, "outcome", "commit"),
		func() uint64 { return st.pm.Stats().TxCommits })
	reg.CounterFunc("flexlog_pm_tx_total",
		"Persistent-memory transactions, by outcome.", withKV(lb, "outcome", "abort"),
		func() uint64 { return st.pm.Stats().TxAborts })
	reg.CounterFunc("flexlog_pm_tx_total",
		"Persistent-memory transactions, by outcome.", withKV(lb, "outcome", "rollback"),
		func() uint64 { return st.pm.Stats().RecoveryRollbks })

	// Cold tier (the SSD device, one blob per file) and lifecycle.
	st.evictionH = reg.Histogram("flexlog_tier_eviction_seconds",
		"Duration of one background segment eviction (PM snapshot through cold-tier sync).", lb)
	st.checkpointH = reg.Histogram("flexlog_checkpoint_seconds",
		"Duration of one checkpoint write (snapshot encode through cold-tier sync).", lb)

	coldLb := withKV(lb, "tier", "ssd")
	reg.CounterFunc("flexlog_tier_ops_total",
		"Cold-tier blob operations, by op.", withKV(coldLb, "op", "put"),
		func() uint64 { return st.cold.Stats().Writes })
	reg.CounterFunc("flexlog_tier_ops_total",
		"Cold-tier blob operations, by op.", withKV(coldLb, "op", "get"),
		func() uint64 { return st.cold.Stats().Reads })
	reg.CounterFunc("flexlog_tier_ops_total",
		"Cold-tier blob operations, by op.", withKV(coldLb, "op", "delete"),
		func() uint64 { return st.cold.Stats().Deletes })
	reg.CounterFunc("flexlog_tier_ops_total",
		"Cold-tier blob operations, by op.", withKV(coldLb, "op", "sync"),
		func() uint64 { return st.cold.Stats().Syncs })
	reg.CounterFunc("flexlog_tier_bytes_total",
		"Cold-tier bytes moved, by direction.", withKV(coldLb, "dir", "in"),
		func() uint64 { return st.cold.Stats().BytesWritten })
	reg.CounterFunc("flexlog_tier_bytes_total",
		"Cold-tier bytes moved, by direction.", withKV(coldLb, "dir", "out"),
		func() uint64 { return st.cold.Stats().BytesRead })
	reg.GaugeFunc("flexlog_tier_blobs",
		"Blobs currently stored on the cold tier.", coldLb,
		func() float64 { n, _ := st.cold.Occupancy(); return float64(n) })
	reg.GaugeFunc("flexlog_tier_occupied_bytes",
		"Bytes currently occupied on the cold tier.", coldLb,
		func() float64 { _, b := st.cold.Occupancy(); return float64(b) })

	reg.CounterFunc("flexlog_tier_evictions_total",
		"Segments evicted from PM to the cold tier by the background lifecycle.", lb,
		func() uint64 { st.alloc.RLock(); defer st.alloc.RUnlock(); return st.evictions })
	reg.CounterFunc("flexlog_tier_evicted_bytes_total",
		"Bytes evicted from PM to the cold tier by the background lifecycle.", lb,
		func() uint64 { st.alloc.RLock(); defer st.alloc.RUnlock(); return st.evictedBytes })
	reg.CounterFunc("flexlog_tier_gc_segments_total",
		"Segments reclaimed by trim-driven garbage collection (both tiers, on demand or in the background).", lb,
		func() uint64 { st.alloc.RLock(); defer st.alloc.RUnlock(); return st.gcSegments })
	reg.CounterFunc("flexlog_tier_gc_bytes_total",
		"Bytes reclaimed by trim-driven garbage collection (both tiers, on demand or in the background).", lb,
		func() uint64 { st.alloc.RLock(); defer st.alloc.RUnlock(); return st.gcBytes })
	reg.CounterFunc("flexlog_tier_miss_reads_total",
		"PM-miss reads served from the cold tier.", lb,
		func() uint64 { return st.coldMisses.Load() })
	reg.GaugeFunc("flexlog_tier_resident_segments",
		"Segments currently occupying PM slots.", lb,
		func() float64 {
			st.alloc.RLock()
			defer st.alloc.RUnlock()
			n := 0
			for _, seg := range st.segs {
				if !seg.flushed() {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("flexlog_tier_pm_budget_bytes",
		"Configured PM budget for resident segments (0: unbounded).", lb,
		func() float64 { return float64(st.cfg.PMBudget) })

	reg.CounterFunc("flexlog_checkpoints_total",
		"Checkpoints written since the store opened.", lb,
		func() uint64 { st.alloc.RLock(); defer st.alloc.RUnlock(); return st.checkpoints })
	reg.GaugeFunc("flexlog_checkpoint_seq",
		"Sequence number of the last durable checkpoint.", lb,
		func() float64 { st.alloc.RLock(); defer st.alloc.RUnlock(); return float64(st.ckptSeq) })
	reg.GaugeFunc("flexlog_checkpoint_entries",
		"Entries covered by the last durable checkpoint.", lb,
		func() float64 { st.alloc.RLock(); defer st.alloc.RUnlock(); return float64(st.ckptEntries) })
	reg.GaugeFunc("flexlog_checkpoint_uncovered_entries",
		"Entries flushed to the cold tier since the last durable checkpoint (replay debt).", lb,
		func() float64 { st.alloc.RLock(); defer st.alloc.RUnlock(); return float64(st.uncovered) })
}

// withKV copies a label set and adds one more label.
func withKV(lb obs.Labels, k, v string) obs.Labels {
	out := obs.Labels{k: v}
	for key, val := range lb {
		out[key] = val
	}
	return out
}
