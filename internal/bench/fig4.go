package bench

import (
	"fmt"
	"time"

	"flexlog/internal/metrics"
	"flexlog/internal/scalog"
	"flexlog/internal/simclock"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

// fig4ReadPercents are the workload mixes of Figure 4.
var fig4ReadPercents = []int{10, 15, 50}

// bokiBatchInterval is the Scalog/Boki counter commit interval: the
// ordering layer advances the replicated tail once per interval, so every
// append pays half of it in expectation on top of the Paxos round.
const bokiBatchInterval = time.Millisecond

// storageReadLatency is the (negligible) local PM read charged to read
// operations in the ordering-only workloads (§9.1 RQ1.1: "the storage
// latency is 1 us").
const storageReadLatency = time.Microsecond

// runFig4Latency measures single-client append-ordering latency for
// FlexLog's 3-sequencer tree and the Boki/Scalog orderer across read
// mixes.
func runFig4Latency(cfg RunConfig) (*Report, error) {
	opsPerPoint := 300
	if cfg.Quick {
		opsPerPoint = 60
	}
	systems := []struct {
		series *metrics.Series
		spec   orderingSpec
	}{
		// FlexLog: root–middle–leaf tree, total order (master color).
		{metrics.NewSeries("FlexLog", "usec"), orderingSpec{n: 2, drivers: 1}},
		// Boki: aggregator + classic-Paxos counter with the Scalog commit
		// interval.
		{metrics.NewSeries("Boki", "usec"), orderingSpec{drivers: 1, scalog: &scalog.Config{
			BatchInterval: bokiBatchInterval,
			UniquePrimary: false, // classic two-phase Paxos (§3.3)
			PhaseTimeout:  time.Second,
		}}},
	}
	err := withLatencyInjection(func() error {
		for _, rp := range fig4ReadPercents {
			for _, sys := range systems {
				mean, err := measureOrderingLatency(sys.spec, rp, opsPerPoint)
				if err != nil {
					return err
				}
				sys.series.Add(fmt.Sprint(rp), float64(mean)/1e3)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:      "fig4lat",
		Title:   "mean append-ordering latency (µs); paper: FlexLog < 250µs, 2.5–4x below Boki",
		XHeader: "Reads (%)",
		Series:  []*metrics.Series{systems[0].series, systems[1].series},
		Notes: []string{
			"reads bypass the ordering layer and cost only the ~1µs local PM access (§9.1)",
			fmt.Sprintf("Boki modeled as classic 2-phase Paxos counter with a %v commit interval", bokiBatchInterval),
		},
	}, nil
}

// measureOrderingLatency runs a single closed-loop client with the given
// read share against a fresh deployment until it has ordered `appends`
// appends, and returns their mean ordering latency.
func measureOrderingLatency(spec orderingSpec, readPercent, appends int) (time.Duration, error) {
	f, err := newOrderingFixture(spec)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	mix := workload.NewMix(readPercent, int64(readPercent)+1)
	h := metrics.NewHistogram()
	for done := 0; done < appends; {
		if mix.NextIsRead() {
			// Reads only touch local storage (no ordering round).
			simclock.Wait(storageReadLatency)
			continue
		}
		start := time.Now()
		if err := f.drivers[0].request(f.entries[0], types.MasterColor); err != nil {
			return 0, err
		}
		h.Record(time.Since(start))
		done++
	}
	return h.Mean(), nil
}

// runFig4Throughput measures multi-client ordering throughput for FlexLog
// (total order via the tree), FlexLog-P (leaf-only partial order) and the
// optimized Paxos counter. Throughput is modeled (model.go): the protocols
// run functionally and the busiest ordering-layer node's delivered-message
// count times the calibrated per-message cost bounds throughput. Reads
// bypass the ordering layer entirely, but count as operations.
func runFig4Throughput(cfg RunConfig) (*Report, error) {
	drivers := 24
	opsPerDriver := 4000
	if cfg.Quick {
		drivers = 8
		opsPerDriver = 800
	}
	tree := orderingSpec{n: 2, drivers: drivers}
	systems := []struct {
		series *metrics.Series
		spec   orderingSpec
		color  types.ColorID
	}{
		{metrics.NewSeries("FlexLog", "kOps/s"), tree, types.MasterColor},
		// FlexLog-P: leaf-owned color, the root is never consulted.
		{metrics.NewSeries("FlexLog-P", "kOps/s"), tree, types.ColorID(tree.n)},
		// Optimized Paxos: unique primary, one pipelined decision per
		// order request.
		{metrics.NewSeries("Paxos", "kOps/s"), orderingSpec{drivers: drivers, scalog: &scalog.Config{
			UniquePrimary: true,
			PerRequest:    true,
			PhaseTimeout:  time.Second,
		}}, types.MasterColor},
	}
	var series []*metrics.Series
	for _, sys := range systems {
		series = append(series, sys.series)
	}
	for _, rp := range fig4ReadPercents {
		for _, sys := range systems {
			ops, err := orderingThroughput(sys.spec, sys.color, rp, opsPerDriver)
			if err != nil {
				return nil, err
			}
			sys.series.Add(fmt.Sprint(rp), ops/1e3)
		}
	}
	return &Report{
		ID:      "fig4thr",
		Title:   "ordering throughput (kOps/s); paper: FlexLog 2-3x Paxos, FlexLog-P ~10% above total order",
		XHeader: "Reads (%)",
		Series:  series,
		Notes: []string{
			"modeled from per-node message counts x calibrated per-message cost; Paxos pays one quorum round (4 messages at the primary) per request",
		},
	}, nil
}

// orderingThroughput runs one deployment's drivers closed-loop at the
// given read share and returns the modeled operations per second.
func orderingThroughput(spec orderingSpec, color types.ColorID, readPercent, opsPerDriver int) (float64, error) {
	f, err := newOrderingFixture(spec)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	l := f.orderLoad([]types.ColorID{color}, 0)
	mixes := make([]*workload.Mix, spec.drivers)
	for w := range mixes {
		mixes[w] = workload.NewMix(readPercent, int64(w+1))
	}
	order := l.op
	l.op = func(w, i int, warm bool) error {
		if mixes[w].NextIsRead() {
			return nil // local storage access; no ordering traffic
		}
		return order(w, i, warm)
	}
	ops, _, err := f.modeledRate(spec.drivers, opsPerDriver, l, laneModel{})
	return ops, err
}
