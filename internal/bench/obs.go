package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/obs"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

// obsOverheadBudget is the acceptance bound: with tracing on, modeled
// append throughput must stay within this fraction of the tracing-off
// run. The experiment fails (make verify's obs smoke) if it does not.
const obsOverheadBudget = 5.0 // percent

// obsAblation measures what full observability costs on the append hot
// path. Two identical functional runs — concurrent callers appending
// through one handle — differ only in the registry: off is a nil registry
// (instrumentation no-ops on nil receivers), on is a live registry with
// every tracer enabled, a 0-threshold slow ring (every request is
// recorded — the worst case), and client-side context traces on every
// append. Every append is its own batch (oneRecordBatches): how batches
// form depends on timing, and would move the message count between the
// two runs. The asserted number is the modeled throughput delta (model.go,
// nothing laned), which is deterministic; the wall-clock delta is reported as a note (it
// carries scheduler noise, so it informs DESIGN.md's overhead budget but
// does not gate).
func obsAblation(cfg RunConfig) laneAblation {
	payload := workload.Payload(128, 17)
	callers, ops := 32, 300
	if cfg.Quick {
		callers, ops = 8, 100
	}
	var offModeled, offWall float64 // the off mode's rates, for the on mode's deltas
	return laneAblation{
		title:   "observability overhead: full tracing + registry vs nil registry",
		xHeader: "observability",
		unit:    "kRec/s",
		total:   "Modeled append throughput",
		modes: []ablationMode{
			{name: "off"},
			{name: "on", tweak: func(c *core.ClusterConfig) {
				c.Obs = cfg.Obs
				if c.Obs == nil {
					c.Obs = obs.NewRegistry()
				}
				c.TraceSlow = time.Nanosecond // every request enters the slow ring
			}},
		},
		loads:   []int{callers},
		ops:     ops,
		cluster: clusterSpec{shards: 1},
		workload: func(f *fixture, _ ablationMode, _ int, _ bool) (load, error) {
			handle, err := f.clients(1, core.WithBatching(oneRecordBatches()))
			if err != nil {
				return load{}, err
			}
			return load{op: func(w, i int, _ bool) error {
				ctx := context.Background()
				var tr *obs.Trace
				if f.cfg.Obs != nil {
					tr = obs.NewTrace("append")
					ctx = obs.WithTrace(ctx, tr)
				}
				if _, err := handle[0].AppendCtx(ctx, [][]byte{payload}, types.MasterColor); err != nil {
					return fmt.Errorf("caller %d op %d: %w", w, i, err)
				}
				tr.Finish()
				return nil
			}}, nil
		},
		observe: func(p ablationPoint, record func(series, unit string, v float64)) ([]string, error) {
			wallRate := float64(p.workers*ops) / p.wall.Seconds()
			record("Wall-clock append rate", "kRec/s", wallRate/1e3)
			reg := p.f.cfg.Obs
			if reg == nil {
				offModeled, offWall = p.rate, wallRate
				return nil, nil
			}
			// Exercise a full scrape while the cluster is live, and check
			// the registry actually covers the stack.
			if len(reg.Snapshot()) == 0 {
				return nil, errors.New("empty registry snapshot")
			}
			modeledDelta := 100 * (offModeled - p.rate) / offModeled
			wallDelta := 100 * (offWall - wallRate) / offWall
			if modeledDelta > obsOverheadBudget {
				return nil, fmt.Errorf("modeled throughput dropped %.2f%% with tracing on (budget %.1f%%)", modeledDelta, obsOverheadBudget)
			}
			return []string{
				fmt.Sprintf("modeled delta %.2f%%, wall-clock delta %.2f%% (budget %.1f%%, modeled gates)", modeledDelta, wallDelta, obsOverheadBudget),
				fmt.Sprintf("%d metric families registered; slow-ring threshold 1ns (every request recorded)", len(reg.Families())),
				fmt.Sprintf("%d callers x %d appends per mode, 128B payloads", p.workers, ops),
			}, nil
		},
	}
}
