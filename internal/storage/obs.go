package storage

import (
	"flexlog/internal/obs"
)

// This file creates the storage stack's latency histograms: PM
// transaction and group-commit window time, recorded by the committer,
// plus eviction and checkpoint time. All are nil-safe, so a store built
// without a registry pays nothing. The counters and gauges are the
// store's Stats, published by Open (obs.Publish reads them at scrape
// time).

// initObs creates the store's histograms, returning the two the group
// committer records into (PM transaction and window latency). A nil
// cfg.Obs leaves every histogram nil (recording no-ops).
func (st *Store) initObs() (txH, windowH *obs.Histogram) {
	reg := st.cfg.Obs
	if reg == nil {
		return nil, nil
	}
	lb := obs.Labels{"node": st.cfg.ObsNode}
	txH = reg.Histogram("flexlog_pm_tx_seconds",
		"Duration of one persistent-memory transaction (undo-log snapshot through commit).", lb)
	windowH = reg.Histogram("flexlog_gc_window_seconds",
		"Duration of one group-commit window: the leader cutting it through its writes marked done.", lb)
	st.evictionH = reg.Histogram("flexlog_tier_eviction_seconds",
		"Duration of one background segment eviction (PM snapshot through cold-tier sync).", lb)
	st.checkpointH = reg.Histogram("flexlog_checkpoint_seconds",
		"Duration of one checkpoint write (snapshot encode through cold-tier sync).", lb)
	return txH, windowH
}
