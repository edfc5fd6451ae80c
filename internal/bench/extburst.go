package bench

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"flexlog/internal/faas"
	"flexlog/internal/metrics"
	"flexlog/internal/types"
)

// runExtBurst is not a paper figure; it exercises the §3.1 design
// requirement the evaluation argues for — "scalability for handling bursts
// of serverless functions as well as high function concurrency" — end to
// end: a burst of concurrent invocations lands on the FaaS platform, each
// invocation appends its event to its tenant's color and reads it back,
// and the experiment reports completion rate, retry-absorbed rejections,
// and the burst's drain time.
func runExtBurst(cfg RunConfig) (*Report, error) {
	bursts := []int{50, 200, 800}
	if cfg.Quick {
		bursts = []int{50, 200}
	}
	completion := metrics.NewSeries("Completed", "%")
	drain := metrics.NewSeries("Drain time", "ms")
	retries := metrics.NewSeries("Overload retries per invocation", "")

	for _, n := range bursts {
		f, err := newClusterFixture(clusterSpec{test: true, regions: 2, shards: 1})
		if err != nil {
			return nil, err
		}
		platform, err := faas.New(faas.Config{Workers: 4, SlotsPerWorker: 16}, f.cl)
		if err != nil {
			f.stop()
			return nil, err
		}
		if err := platform.Deploy("record-event", func(inv *faas.Invocation) ([]byte, error) {
			color := types.ColorID(1)
			if inv.Tenant == "tenant-b" {
				color = 2
			}
			sn, err := inv.Log.Append([][]byte{inv.Input}, color)
			if err != nil {
				return nil, err
			}
			return inv.Log.Read(sn, color)
		}); err != nil {
			f.stop()
			return nil, err
		}

		var completed, retryCount atomic.Uint64
		start := time.Now()
		// A failed invocation is not an error of the run: it shows up as
		// a completion rate below 100%.
		_ = fanOut(n, func(i int) error {
			tenant := "tenant-a"
			if i%2 == 1 {
				tenant = "tenant-b"
			}
			payload := fmt.Appendf(nil, "event-%d", i)
			for {
				out, err := platform.Invoke(tenant, "record-event", payload)
				if err == nil {
					if string(out) == string(payload) {
						completed.Add(1)
					}
					return nil
				}
				if !errors.Is(err, faas.ErrOverloaded) {
					return nil
				}
				// The burst exceeds instant capacity; the client backs
				// off and retries — the autoscaling-queue behaviour of a
				// real platform.
				retryCount.Add(1)
				time.Sleep(time.Millisecond)
			}
		})
		elapsed := time.Since(start)
		f.stop()

		label := fmt.Sprint(n)
		completion.Add(label, 100*float64(completed.Load())/float64(n))
		drain.Add(label, float64(elapsed)/1e6)
		retries.Add(label, float64(retryCount.Load())/float64(n))
	}
	return &Report{
		ID:      "ext-burst",
		Title:   "burst handling: every invocation completes; overload is absorbed by retries, not lost work",
		XHeader: "burst size",
		Series:  []*metrics.Series{completion, drain, retries},
		Notes:   []string{"2 tenants on disjoint colors, 4 workers x 16 slots; functions append+read their event"},
	}, nil
}
