package bench

import (
	"fmt"

	"flexlog/internal/metrics"
	"flexlog/internal/ssd"
	"flexlog/internal/workload"
)

func runTable1(cfg RunConfig) (*Report, error) {
	frames, frameBytes := 60, 256<<10
	if cfg.Quick {
		frames, frameBytes = 15, 64<<10
	}
	var video, gzip workload.ProfileReport
	err := withLatencyInjection(func() error {
		var err error
		video, err = workload.ProfileVideo(ssd.New(ssd.NVMe()), frames, frameBytes)
		if err != nil {
			return err
		}
		gzip, err = workload.ProfileGzip(ssd.New(ssd.NVMe()), frames, frameBytes)
		return err
	})
	if err != nil {
		return nil, err
	}
	videoSeries := metrics.NewSeries("Video processing", "%")
	gzipSeries := metrics.NewSeries("Gzip compression", "%")
	for _, class := range []string{"open", "read", "write", "fstat", "close"} {
		videoSeries.Add(class+"()", video.ClassPercent(class))
		gzipSeries.Add(class+"()", gzip.ClassPercent(class))
	}
	videoSeries.Add("Total", video.StoragePercent())
	gzipSeries.Add("Total", gzip.StoragePercent())
	return &Report{
		ID:      "table1",
		Title:   "CPU time in storage syscalls (paper: video 41%, gzip 48.1%)",
		XHeader: "syscall",
		Series:  []*metrics.Series{videoSeries, gzipSeries},
		Notes: []string{
			fmt.Sprintf("synthetic FunctionBench stand-ins over the simulated NVMe device; %d objects of %d KiB", frames, frameBytes>>10),
		},
	}, nil
}
