package bench

import (
	"fmt"
	"time"

	"flexlog/internal/metrics"
	"flexlog/internal/pmem"
	"flexlog/internal/ssd"
	"flexlog/internal/workload"
)

// runFig1 measures the six curves of Figure 1: PM via kernel bypass, PM
// via OS syscalls and SSD file I/O, reads and writes, across block sizes
// 64 B – 8 KiB.
func runFig1(cfg RunConfig) (*Report, error) {
	iters := 400
	if cfg.Quick {
		iters = 80
	}
	series := map[string]*metrics.Series{
		"pmem_read":     metrics.NewSeries("pmem_read", "ns"),
		"pmem_write":    metrics.NewSeries("pmem_write", "ns"),
		"read_syscall":  metrics.NewSeries("read_syscall", "ns"),
		"write_syscall": metrics.NewSeries("write_syscall", "ns"),
		"fileio_read":   metrics.NewSeries("fileio_read", "ns"),
		"fileio_write":  metrics.NewSeries("fileio_write", "ns"),
	}

	err := withLatencyInjection(func() error {
		for _, bs := range workload.BlockSizes {
			label := fmt.Sprint(bs)
			buf := workload.Payload(bs, int64(bs))

			// PM, kernel bypass (DAX) and via syscalls.
			for _, mode := range []struct {
				model       pmem.LatencyModel
				readSeries  string
				writeSeries string
			}{
				{pmem.OptaneBypass(), "pmem_read", "pmem_write"},
				{pmem.OptaneSyscall(), "read_syscall", "write_syscall"},
			} {
				pool, err := pmem.New(bs+64, mode.model)
				if err != nil {
					return err
				}
				off, err := pool.Alloc(bs)
				if err != nil {
					return err
				}
				wh, rh := metrics.NewHistogram(), metrics.NewHistogram()
				for i := 0; i < iters; i++ {
					start := time.Now()
					if err := pool.Write(off, buf); err != nil {
						return err
					}
					wh.Record(time.Since(start))
					start = time.Now()
					if err := pool.Read(off, buf); err != nil {
						return err
					}
					rh.Record(time.Since(start))
				}
				series[mode.readSeries].Add(label, float64(rh.Percentile(50)))
				series[mode.writeSeries].Add(label, float64(wh.Percentile(50)))
			}

			// SSD file I/O.
			dev := ssd.New(ssd.NVMe())
			if _, err := dev.Append("f", buf); err != nil {
				return err
			}
			wh, rh := metrics.NewHistogram(), metrics.NewHistogram()
			for i := 0; i < iters; i++ {
				start := time.Now()
				if _, err := dev.Append("f", buf); err != nil {
					return err
				}
				wh.Record(time.Since(start))
				start = time.Now()
				if err := dev.ReadAt("f", 0, buf); err != nil {
					return err
				}
				rh.Record(time.Since(start))
			}
			series["fileio_read"].Add(label, float64(rh.Percentile(50)))
			series["fileio_write"].Add(label, float64(wh.Percentile(50)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:      "fig1",
		Title:   "median latency (ns); paper: PM ~10x faster than SSD, bypass up to 100x below syscall path at small blocks",
		XHeader: "block sz (B)",
		Series: []*metrics.Series{
			series["pmem_read"], series["read_syscall"], series["fileio_read"],
			series["pmem_write"], series["write_syscall"], series["fileio_write"],
		},
	}, nil
}
