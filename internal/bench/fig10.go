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

// recoverySweep is the Fig. 10 x axis.
var recoverySweep = []int{100, 1_000, 5_000, 10_000, 100_000, 1_000_000, 3_000_000}

// runFig10 fills a replica's storage stack with N committed records,
// crashes it, and measures the recovery scan (§9.4: "recovery time is
// heavily dependent on the number of committed records ... grows almost
// linearly ... as a result of reading all records that have to be
// recovered in a sequential manner").
func runFig10(cfg RunConfig) (*Report, error) {
	sweep := recoverySweep
	if cfg.Quick {
		sweep = []int{100, 1_000, 10_000, 100_000}
	}
	const recordBytes = 128
	series := metrics.NewSeries("Recovery time", "ms")

	err := withLatencyInjection(func() error {
		for _, n := range sweep {
			// Size PM to hold all n records (entry header + framing).
			entry := int(uint64(recordBytes) + 48)
			segSize := uint64(8 << 20)
			numSegs := (n*entry)/int(segSize-32) + 2
			st, err := storage.Open(storage.Config{
				SegmentSize: segSize,
				NumSegments: numSegs,
				CacheBytes:  0, // recovery reads PM, not the cache
				PMModel:     pmem.OptaneBypass(),
				SSDModel:    ssd.NVMe(),
			})
			if err != nil {
				return err
			}
			payload := workload.Payload(recordBytes, 3)
			for i := 1; i <= n; i++ {
				tok := types.Token(i)
				if err := st.Put(1, tok, payload); err != nil {
					return fmt.Errorf("fill %d/%d: %w", i, n, err)
				}
				if err := st.Commit(tok, types.MakeSN(1, uint32(i))); err != nil {
					return err
				}
			}
			st.Crash()
			start := time.Now()
			if err := st.Recover(); err != nil {
				return err
			}
			elapsed := time.Since(start)
			series.Add(recoveryLabel(n), float64(elapsed)/1e6)
			// Sanity: the recovered store still serves its records.
			if _, err := st.Get(1, types.MakeSN(1, uint32(n))); err != nil {
				return fmt.Errorf("post-recovery read: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:      "fig10",
		Title:   "recovery time vs records to recover; paper: ~linear growth",
		XHeader: "records",
		Series:  []*metrics.Series{series},
		Notes:   []string{fmt.Sprintf("%d-byte records; recovery sequentially scans PM segments and rebuilds the indexes", recordBytes)},
	}, nil
}

func recoveryLabel(n int) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%de6", n/1_000_000)
	case n >= 1_000:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprint(n)
	}
}
