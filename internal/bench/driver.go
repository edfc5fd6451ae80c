package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/metrics"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

// fanOut runs fn(0) … fn(n-1) on n goroutines, waits for all of them and
// returns the first error any of them reported.
func fanOut(n int, fn func(w int) error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(w); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// load is the operation a closed loop repeats. op runs on worker w's
// goroutine; i counts that worker's operations within the phase and warm
// is set during warm-up. Whatever a workload keeps per worker it indexes
// by w.
type load struct {
	warmOps int
	op      func(w, i int, warm bool) error
	lat     *metrics.Histogram // the measured operations' latency, where an experiment reports one
}

// closedLoop runs l on `workers` goroutines: warmOps unmeasured
// operations each, then — once every worker is warm and afterWarmup has
// returned, which is where the throughput model takes its baseline so the
// measured phase reflects steady state — ops measured ones. A worker
// stops at its first error; the first error of the run is returned.
func closedLoop(workers, ops int, l load, afterWarmup func()) error {
	phase := func(n int, warm bool) error {
		return fanOut(workers, func(w int) error {
			for i := 0; i < n; i++ {
				if err := l.op(w, i, warm); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := phase(l.warmOps, true); err != nil {
		return err
	}
	if afterWarmup != nil {
		afterWarmup()
	}
	return phase(ops, false)
}

// loneLatency is the injected-latency pass the ablations pair with their
// modeled throughput: one closed-loop worker on a fresh deployment under
// calibrated latency injection, reporting the mean of the load's latency
// histogram. No lane, batch or pipeline can help a lone client; the bar
// these passes hold is that the mechanism does not hurt it either.
func loneLatency(ops int, build func() (*fixture, error), mk func(*fixture) (load, error)) (mean time.Duration, err error) {
	err = withLatencyInjection(func() error {
		f, err := build()
		if err != nil {
			return err
		}
		defer f.stop()
		l, err := mk(f)
		if err != nil {
			return err
		}
		if err := closedLoop(1, ops, l, nil); err != nil {
			return err
		}
		if l.lat.Count() == 0 {
			return errors.New("latency run recorded no operations")
		}
		mean = l.lat.Mean()
		return nil
	})
	return mean, err
}

// readOwnWrites is the read/append mix of fig8, fig11 and
// ablate-readpath: each worker first appends a small working set (the
// records it will read back, as a function reading its own state would),
// then reads one of its own 64 most recent records readPercent of the
// time and appends otherwise. Worker w's mix and choice of record are
// seeded mixSeed+w and rngSeed+w.
type readOwnWrites struct {
	clients        []*core.Client // worker w uses clients[w%len(clients)]: one each, or one shared batching handle
	payload        []byte
	appendH, readH *metrics.Histogram
	workers        []rowWorker
}

type rowWorker struct {
	mix *workload.Mix
	rng *rand.Rand
	own []types.SN
}

func newReadOwnWrites(clients []*core.Client, workers, readPercent int, payload []byte, mixSeed, rngSeed int64) *readOwnWrites {
	r := &readOwnWrites{
		clients: clients, payload: payload,
		appendH: metrics.NewHistogram(), readH: metrics.NewHistogram(),
		workers: make([]rowWorker, workers),
	}
	for w := range r.workers {
		r.workers[w] = rowWorker{
			mix: workload.NewMix(readPercent, mixSeed+int64(w)),
			rng: rand.New(rand.NewSource(rngSeed + int64(w))),
		}
	}
	return r
}

// load is the closed-loop form; its latency histogram is the read side's.
func (r *readOwnWrites) load() load {
	return load{warmOps: 8, lat: r.readH, op: func(w, _ int, warm bool) error {
		if !warm && r.workers[w].mix.NextIsRead() {
			return r.read(w)
		}
		return r.append(w, warm)
	}}
}

func (r *readOwnWrites) read(w int) error {
	ws := &r.workers[w]
	sn := ws.own[ws.rng.Intn(len(ws.own))]
	t0 := time.Now()
	if _, err := r.clients[w%len(r.clients)].Read(sn, types.MasterColor); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	r.readH.Record(time.Since(t0))
	return nil
}

func (r *readOwnWrites) append(w int, warm bool) error {
	ws := &r.workers[w]
	t0 := time.Now()
	sn, err := r.clients[w%len(r.clients)].Append([][]byte{r.payload}, types.MasterColor)
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if !warm {
		r.appendH.Record(time.Since(t0))
	}
	ws.own = append(ws.own, sn)
	if len(ws.own) > 64 {
		ws.own = ws.own[1:]
	}
	return nil
}

// timedLoad repeats do, timing the measured calls.
func timedLoad(warmOps int, do func(w int) error) load {
	h := metrics.NewHistogram()
	return load{warmOps: warmOps, lat: h, op: func(w, _ int, warm bool) error {
		t0 := time.Now()
		if err := do(w); err != nil {
			return err
		}
		if !warm {
			h.Record(time.Since(t0))
		}
		return nil
	}}
}

// appendLoad is the append-only workload: worker w appends payload to
// colors[w%len(colors)] through clients[w%len(clients)].
func appendLoad(clients []*core.Client, colors []types.ColorID, payload []byte, warmOps int) load {
	return timedLoad(warmOps, func(w int) error {
		color := colors[w%len(colors)]
		if _, err := clients[w%len(clients)].Append([][]byte{payload}, color); err != nil {
			return fmt.Errorf("append color %v: %w", color, err)
		}
		return nil
	})
}

// orderLoad is the ordering-only workload: driver w asks its entry
// sequencer (the fixture's entries, round-robin) for one SN in
// colors[w%len(colors)].
func (f *fixture) orderLoad(colors []types.ColorID, warmOps int) load {
	return timedLoad(warmOps, func(w int) error {
		color := colors[w%len(colors)]
		if err := f.drivers[w].request(f.entries[w%len(f.entries)], color); err != nil {
			return fmt.Errorf("order color %v: %w", color, err)
		}
		return nil
	})
}
