package bench

import (
	"fmt"

	"flexlog/internal/metrics"
	"flexlog/internal/types"
)

// leafCounts is the Fig. 9 sweep.
var leafCounts = []int{1, 2, 4, 6}

// runFig9 measures ordering throughput as leaf sequencers are added as
// aggregating proxies to the root (§9.3). Every request asks for a
// master-region SN, so the root orders everything; leaves batch. The
// throughput is modeled from per-node message counts: each leaf is
// saturated by its own order-request stream (≈1.2M/s at the calibrated
// per-message cost) while the root sees only the aggregated batches, so
// capacity grows by about one leaf's worth per added leaf — the paper's
// "additional 1M sequence numbers per second for each leaf sequencer".
func runFig9(cfg RunConfig) (*Report, error) {
	driversPerLeaf := 8
	opsPerDriver := 4000
	if cfg.Quick {
		opsPerDriver = 800
	}
	series := metrics.NewSeries("FlexLog ordering", "MReqs/s")
	for _, leaves := range leafCounts {
		drivers := driversPerLeaf * leaves
		f, err := newOrderingFixture(orderingSpec{n: leaves, star: true, drivers: drivers})
		if err != nil {
			return nil, err
		}
		ops, _, err := f.modeledRate(drivers, opsPerDriver, f.orderLoad([]types.ColorID{types.MasterColor}, 0), laneModel{})
		f.stop()
		if err != nil {
			return nil, err
		}
		series.Add(fmt.Sprint(leaves), ops/1e6)
	}
	return &Report{
		ID:      "fig9",
		Title:   "ordering throughput vs leaf sequencers; paper: ~1.2M SN/s for 1 leaf, ≈ +1M per extra leaf",
		XHeader: "leaf sequencers",
		Series:  []*metrics.Series{series},
		Notes:   []string{"modeled from per-node message counts; aggregation keeps the root off the per-request path"},
	}, nil
}
