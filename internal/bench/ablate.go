package bench

import (
	"errors"
	"fmt"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/metrics"
	"flexlog/internal/pmem"
	"flexlog/internal/ssd"
	"flexlog/internal/storage"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

// runAblateBatch sweeps concurrent order drivers against the leaf's one
// batching rule (a color's round ships at once and combines only behind
// its unanswered round): a lone driver's requests each climb alone and pay
// no window, and the root's message load per request falls as more
// requests arrive behind each unanswered round — the §5.2 tradeoff, now
// set by load instead of a timer. The window sweep it replaced is a record
// in EXPERIMENTS.md.
func runAblateBatch(cfg RunConfig) (*Report, error) {
	opsPerDriver, latOps := 2000, 150
	if cfg.Quick {
		opsPerDriver, latOps = 500, 40
	}
	rootS := metrics.NewSeries("Root msgs per request", "")
	latS := metrics.NewSeries("Append order latency", "usec")
	master := []types.ColorID{types.MasterColor}

	for _, drivers := range []int{1, 8, 64} {
		// Root load, functional.
		f, err := newOrderingFixture(orderingSpec{n: 2, drivers: drivers})
		if err != nil {
			return nil, err
		}
		err = closedLoop(drivers, opsPerDriver, f.orderLoad(master, 0), nil)
		rootMsgs := f.snapshot()[f.seqs[0].ID()].msgs
		f.stop()
		if err != nil {
			return nil, err
		}
		rootS.Add(fmt.Sprint(drivers), float64(rootMsgs)/float64(drivers*opsPerDriver))
	}
	// Latency, injected, single driver: the load the rule gives nothing to
	// combine.
	mean, err := loneLatency(latOps,
		func() (*fixture, error) { return newOrderingFixture(orderingSpec{n: 2, drivers: 1}) },
		func(f *fixture) (load, error) { return f.orderLoad(master, 0), nil })
	if err != nil {
		return nil, err
	}
	latS.Add("1", float64(mean)/1e3)
	return &Report{
		ID:      "ablate-batch",
		Title:   "upward batching under load: root messages per request fall as concurrent drivers rise, a lone driver pays no window",
		XHeader: "drivers",
		Series:  []*metrics.Series{rootS, latS},
	}, nil
}

// runAblateCache compares the tiered store's read path with and without
// the DRAM cache under a read-heavy workload.
func runAblateCache(cfg RunConfig) (*Report, error) {
	ops := 20000
	if cfg.Quick {
		ops = 4000
	}
	series := metrics.NewSeries("Read throughput", "ops/s")
	hits := metrics.NewSeries("Cache hit rate", "%")
	for _, cache := range []int{16 << 20, 0} {
		label := "on"
		if cache == 0 {
			label = "off"
		}
		st, err := storage.Open(storage.Config{
			SegmentSize: 4 << 20, NumSegments: 16, CacheBytes: cache,
			PMModel: pmem.OptaneBypass(), SSDModel: ssd.NVMe(),
		})
		if err != nil {
			return nil, err
		}
		payload := workload.Payload(1024, 9)
		const n = 4000
		for i := 1; i <= n; i++ {
			st.Put(1, types.Token(i), payload)
			st.Commit(types.Token(i), types.MakeSN(1, uint32(i)))
		}
		base := core.BenchClusterConfig().Storage
		before := base.PMModel.TimeOf(st.Stats().PM)
		keys := workload.NewUniformKeys(n, 3)
		for i := 0; i < ops; i++ {
			// Zipf-ish locality: 90% of reads hit 10% of records.
			k := keys.Next()
			if i%10 != 0 {
				k = k % (n / 10)
			}
			if _, err := st.Get(1, types.MakeSN(1, uint32(k+1))); err != nil {
				return nil, err
			}
		}
		stats := st.Stats()
		devTime := base.PMModel.TimeOf(stats.PM) - before
		perOp := devTime/time.Duration(ops) + 150*time.Nanosecond
		series.Add(label, float64(time.Second/perOp))
		total := stats.CacheHits + stats.CacheMisses
		if total > 0 {
			hits.Add(label, 100*float64(stats.CacheHits)/float64(total))
		} else {
			hits.Add(label, 0)
		}
	}
	return &Report{
		ID:      "ablate-cache",
		Title:   "DRAM cache ablation: read-heavy workload with 90/10 locality",
		XHeader: "cache",
		Series:  []*metrics.Series{series, hits},
	}, nil
}

// runAblateReadHold measures how the §6.3 read-hold timeout masks the race
// between a read and the append whose SN it anticipates.
func runAblateReadHold(cfg RunConfig) (*Report, error) {
	holds := []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	trials := 40
	if cfg.Quick {
		holds = []time.Duration{0, 5 * time.Millisecond}
		trials = 15
	}
	series := metrics.NewSeries("Read success", "%")

	err := withLatencyInjection(func() error {
		for _, hold := range holds {
			success, err := readHoldSuccesses(hold, trials)
			if err != nil {
				return err
			}
			series.Add(hold.String(), 100*float64(success)/float64(trials))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:      "ablate-readhold",
		Title:   "read-hold ablation: reads racing the append they anticipate; holds mask the race without violating linearizability",
		XHeader: "hold timeout",
		Series:  []*metrics.Series{series},
		Notes:   []string{"a ⊥ under a short hold is legal (§6.3) — the FaaS application re-executes the read"},
	}, nil
}

// readHoldSuccesses races `trials` reads of the SN the next append will
// get against that append, on a fresh one-shard cluster with the given
// read-hold timeout, and returns how many reads found the record.
func readHoldSuccesses(hold time.Duration, trials int) (int, error) {
	f, err := newClusterFixture(clusterSpec{shards: 1, tweak: func(c *core.ClusterConfig) {
		c.Profile.ReadHold = hold
		c.SeqBackups = 0
	}})
	if err != nil {
		return 0, err
	}
	defer f.stop()
	cs, err := f.clients(2)
	if err != nil {
		return 0, err
	}
	writer, reader := cs[0], cs[1]
	// Seed so the next SN is predictable.
	last, err := writer.Append([][]byte{[]byte("seed")}, types.MasterColor)
	if err != nil {
		return 0, err
	}
	success := 0
	for i := 0; i < trials; i++ {
		next := last + 1
		done := make(chan types.SN, 1)
		go func() {
			sn, err := writer.Append([][]byte{[]byte("race")}, types.MasterColor)
			if err == nil {
				done <- sn
			} else {
				done <- types.InvalidSN
			}
		}()
		// Read the anticipated SN while the append is in flight.
		_, err := reader.Read(next, types.MasterColor)
		if sn := <-done; sn.Valid() {
			last = sn
		}
		if err == nil {
			success++
		} else if !errors.Is(err, core.ErrNotFound) {
			return 0, err
		}
	}
	return success, nil
}
