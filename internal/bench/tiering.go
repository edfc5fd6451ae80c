package bench

import (
	"fmt"
	"time"

	"flexlog/internal/metrics"
	"flexlog/internal/pmem"
	"flexlog/internal/ssd"
	"flexlog/internal/storage"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

// runAblateTiering contrasts the background storage lifecycle against the
// lifecycle-less store as the log grows 1x → 4x with a constant live
// window (rolling trims). With the lifecycle on — a PM budget of two
// segments and periodic checkpoints — recovery replay is bounded by the
// resident set plus the uncovered suffix, so recovery cost stays flat as
// the log grows; the lifecycle-less store rescans everything ever
// flushed, so its cost grows with total log size (the Fig. 10 linearity,
// now avoidable). The "on" arm also proves the transparent cold read
// path: reads of evicted live records must be served from the cold tier
// (ColdMissReads > 0) and every append must succeed while eviction runs.
func runAblateTiering(cfg RunConfig) (*Report, error) {
	const (
		recordBytes = 128
		segSize     = uint64(64 << 10)
		numSegs     = 8
		ckptEvery   = 256
	)
	baseN := 2000
	window := 1200 // live records kept by the rolling trim
	if cfg.Quick {
		baseN, window = 1200, 800
	}
	budget := 2 * segSize // resident bound well under the live window

	recOn := metrics.NewSeries("Recovery (lifecycle on)", "ms")
	recOff := metrics.NewSeries("Recovery (lifecycle off)", "ms")
	repOn := metrics.NewSeries("Replay (lifecycle on)", "entries")
	repOff := metrics.NewSeries("Replay (lifecycle off)", "entries")
	var maxAppend time.Duration

	runArm := func(lifecycle bool, n int) (time.Duration, int, error) {
		scfg := storage.Config{
			SegmentSize: segSize,
			NumSegments: numSegs,
			CacheBytes:  0, // cold misses must hit the cold tier, not DRAM
			PMModel:     pmem.OptaneBypass(),
			SSDModel:    ssd.NVMe(),
		}
		if lifecycle {
			scfg.PMBudget = budget
			scfg.CheckpointEvery = ckptEvery
			scfg.LifecycleInterval = time.Millisecond
		}
		st, err := storage.Open(scfg)
		if err != nil {
			return 0, 0, err
		}
		defer st.Close()

		payload := workload.Payload(recordBytes, 7)
		for i := 1; i <= n; i++ {
			tok := types.Token(i)
			t0 := time.Now()
			if err := st.Put(1, tok, payload); err != nil {
				return 0, 0, fmt.Errorf("append %d/%d stalled: %w", i, n, err)
			}
			if err := st.Commit(tok, types.MakeSN(1, uint32(i))); err != nil {
				return 0, 0, err
			}
			if d := time.Since(t0); d > maxAppend {
				maxAppend = d
			}
			// Rolling trim: the live window stays constant while the
			// cumulative log grows.
			if i > window && i%200 == 0 {
				if _, _, err := st.Trim(1, types.MakeSN(1, uint32(i-window))); err != nil {
					return 0, 0, err
				}
			}
		}
		if lifecycle {
			// Settle: let the background pass (1 ms ticks) bring the resident
			// set under the budget, then cover the flushed suffix. Only that
			// pass evicts — oldest first, and only while over budget — so
			// the resident set it leaves is the same in every run; a second
			// evictor racing it (ForceEvict here) would take one segment
			// more whenever the pass had a claim in flight.
			settleBy := time.Now().Add(10 * time.Second)
			for st.Stats().ResidentBytes > budget {
				if time.Now().After(settleBy) {
					return 0, 0, fmt.Errorf("resident set stuck above the budget (%d > %d bytes)", st.Stats().ResidentBytes, budget)
				}
				time.Sleep(100 * time.Microsecond)
			}
			if err := st.ForceCheckpoint(); err != nil {
				return 0, 0, err
			}
			// The oldest live records are now cold; reads must fall
			// through to the cold tier transparently.
			for k := 0; k < 100; k++ {
				sn := types.MakeSN(1, uint32(n-window+1+k))
				if _, err := st.Get(1, sn); err != nil {
					return 0, 0, fmt.Errorf("cold read of %v: %w", sn, err)
				}
			}
			if st.Stats().ColdMissReads == 0 {
				return 0, 0, fmt.Errorf("no reads were served from the cold tier (budget %d, window %d)", budget, window)
			}
		}
		st.Crash()
		start := time.Now()
		if err := st.Recover(); err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start)
		// The recovered store still serves both ends of the live window.
		if _, err := st.Get(1, types.MakeSN(1, uint32(n))); err != nil {
			return 0, 0, fmt.Errorf("post-recovery read (tail): %w", err)
		}
		if _, err := st.Get(1, types.MakeSN(1, uint32(n-window+1))); err != nil {
			return 0, 0, fmt.Errorf("post-recovery read (head): %w", err)
		}
		rec := st.LastRecovery()
		if lifecycle && rec.RestoredEntries == 0 {
			return 0, 0, fmt.Errorf("recovery restored nothing from the checkpoint (%d segments scanned, %d entries replayed)", rec.ScannedSegments, rec.ReplayedEntries)
		}
		return elapsed, rec.ReplayedEntries, nil
	}

	err := withLatencyInjection(func() error {
		for mult := 1; mult <= 4; mult++ {
			n := baseN * mult
			label := fmt.Sprintf("%dx", mult)
			for _, lc := range []bool{true, false} {
				elapsed, replayed, err := runArm(lc, n)
				if err != nil {
					return fmt.Errorf("%s lifecycle=%v: %w", label, lc, err)
				}
				if lc {
					recOn.Add(label, float64(elapsed)/1e6)
					repOn.Add(label, float64(replayed))
				} else {
					recOff.Add(label, float64(elapsed)/1e6)
					repOff.Add(label, float64(replayed))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:      "ablate-tiering",
		Title:   "storage lifecycle ablation: recovery cost vs log growth at a constant live window",
		XHeader: "log size",
		Series:  []*metrics.Series{recOn, recOff, repOn, repOff},
		Notes: []string{
			fmt.Sprintf("%d-byte records, %d-entry live window, PM budget %d KiB (2 of %d segments), checkpoint every %d flushed entries",
				recordBytes, window, budget>>10, numSegs, ckptEvery),
			fmt.Sprintf("max append+commit latency across all arms: %s (appends never stall on eviction)", maxAppend.Round(time.Microsecond)),
			"lifecycle on: replay bounded by resident set + uncovered suffix; lifecycle off: rescans the whole flushed log",
		},
	}, nil
}
