package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/obs"
	"flexlog/internal/types"
)

// opRec is the benchmark's own span around one core.Client call: what was
// asked, when it was due, sent and done, and how it ended. The end-to-end
// metrics are computed from these and from nothing inside the program.
type opRec struct {
	Sent  int64    // ns since the run's epoch, when the client call began
	Done  int64    // ns since the epoch when it returned; 0 = never
	Late  int64    // open loop: Sent minus the tick's due time
	SN    types.SN // appends: the SN returned
	Kind  opKind
	Color types.ColorID
	OK    bool // no error, and for reads the bytes written at that SN
}

const (
	preloadCaller = 1 << 30 // caller id of the records written during set-up
	latencyLimit  = 10 * time.Millisecond
)

// runConfig is one invocation's parameters after flag parsing.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	setups  int
	warmup  time.Duration // how long the loop runs, untimed, before the window opens
	handles int
	closed  bool          // the window is the workload's closed loop, not its open loop
	ladder  time.Duration // per-rung time of the ladder a --trace 1 run ends with
	spans   string        // file the op spans are written to when the run ends ("" = nowhere)
}

// env is one booted cluster with the state a run accumulates against it.
type env struct {
	cfg    runConfig
	cl     *cluster
	pay    *payloads
	traced bool
	epoch  time.Time

	// calls holds every op's span, per issuer, op index = position: the
	// closed loop's callers first, then the open loop's generators.
	calls   [][]opRec
	gens    []*opGen // parallel to calls
	preload []ack

	// index lists the acknowledged color-0 appends for readers to choose
	// from; it is kept only by workloads that read.
	indexMu sync.RWMutex
	index   []ack

	newest  atomic.Uint64 // newest acknowledged color-0 SN, for the trimmer
	trimmed types.SN      // highest SN a successful Trim was given
	trimErr int

	tracers [numOpKinds]*obs.Tracer

	// The measured window, filled in by runClosed/runOpen.
	t0, t1        time.Time
	before, after *snapshot
	cpu0, cpu1    time.Duration // process CPU time at t0 and t1
}

func newEnv(cfg runConfig, cl *cluster, epoch time.Time) *env {
	e := &env{cfg: cfg, cl: cl, pay: newPayloads(cfg.seed, cfg.w.RecordBytes), traced: cl.reg != nil, epoch: epoch}
	issuers := cfg.w.Callers + len(cl.handles)
	e.calls = make([][]opRec, issuers)
	for i := 0; i < issuers; i++ {
		e.gens = append(e.gens, newOpGen(cfg.w, cfg.seed, i))
	}
	if e.traced {
		lb := obs.Labels{"node": "client"}
		for kind, op := range map[opKind]string{opAppend: opClientAppend, opRead: opClientRead, opMulti: opClientMulti} {
			e.tracers[kind] = obs.NewTracer(cl.reg, op, lb, time.Second, 0)
		}
	}
	return e
}

func (e *env) now() int64 { return int64(time.Since(e.epoch)) }

// since converts an instant to ns since the run's epoch.
func (e *env) since(t time.Time) int64 { return int64(t.Sub(e.epoch)) }

// traceCtx opens a client-side trace for one call in traced runs and
// returns the function that folds it into the registry.
func (e *env) traceCtx(kind opKind) (context.Context, *obs.Trace, func()) {
	if !e.traced {
		return context.Background(), nil, func() {}
	}
	tr := obs.NewTrace(kind.String())
	return obs.WithTrace(context.Background(), tr), tr, func() {
		tr.Finish()
		e.tracers[kind].ObserveTrace(tr, "")
	}
}

func (e *env) noteAck(a ack) {
	if a.Color == types.MasterColor {
		e.newest.Store(uint64(a.SN))
	}
	if e.cfg.w.ReadPercent > 0 && a.Color == types.MasterColor {
		e.indexMu.Lock()
		e.index = append(e.index, a)
		e.indexMu.Unlock()
	}
}

// pickRead maps a read's seeded draw onto the records acknowledged so far.
func (e *env) pickRead(ch opChoice) (ack, bool) {
	e.indexMu.RLock()
	defer e.indexMu.RUnlock()
	n := uint64(len(e.index))
	if n == 0 {
		return ack{}, false
	}
	if ch.Recent {
		return e.index[n-1-ch.Pick%min(n, recentWindow)], true
	}
	return e.index[ch.Pick%n], true
}

// do performs one op through handle h, waits for it and returns its span.
// due is when an open-loop op was scheduled (ns since the epoch); 0 in a
// closed loop, where an op is due when it is called.
func (e *env) do(h *core.Client, issuer int, idx uint64, ch opChoice, due int64) (rec opRec) {
	w := e.cfg.w
	rec = opRec{Kind: ch.Kind, Color: ch.Color}
	if due != 0 {
		defer func() { rec.Late = rec.Sent - due }()
	}
	id := opID{Kind: ch.Kind, Caller: uint32(issuer), Index: idx}
	ctx, _, finish := e.traceCtx(ch.Kind)
	switch ch.Kind {
	case opAppend:
		data := e.pay.build(id, ch.Color, w.RecordBytes)
		rec.Sent = e.now()
		sn, err := h.AppendCtx(ctx, [][]byte{data}, ch.Color)
		rec.Done = e.now()
		rec.SN, rec.OK = sn, err == nil && sn.Valid()
		if rec.OK {
			e.noteAck(ack{ID: id, Color: ch.Color, SN: sn})
		}
	case opRead:
		target, ok := e.pickRead(ch)
		if !ok {
			// Nothing acknowledged yet: there is no record to ask for.
			ch.Kind = opAppend
			return e.do(h, issuer, idx, ch, due)
		}
		want := e.pay.build(target.ID, target.Color, w.RecordBytes)
		rec.SN, rec.Color = target.SN, target.Color
		rec.Sent = e.now()
		got, err := h.ReadCtx(ctx, target.SN, target.Color)
		rec.Done = e.now()
		rec.OK = err == nil && bytes.Equal(got, want)
	case opMulti:
		colors := multiColors
		sets := make([][][]byte, len(colors))
		for i, c := range colors {
			sets[i] = [][]byte{e.pay.build(id, c, w.RecordBytes)}
		}
		rec.Sent = e.now()
		err := h.MultiAppendCtx(ctx, sets, colors, types.MasterColor)
		rec.Done = e.now()
		rec.OK = err == nil
	}
	finish()
	return rec
}

// multiColors are the targets of every multi-color append; the broker is
// the master color.
var multiColors = []types.ColorID{1, 2}

// loadRecords appends n color-0 records through h as caller, a bounded
// number in flight, and remembers their acknowledgements. It serves the
// preload.
func (e *env) loadRecords(h *core.Client, caller, n int) ([]opRec, error) {
	const inFlight = 256
	id := func(i int) opID { return opID{Kind: opAppend, Caller: uint32(caller), Index: uint64(i)} }
	recs := make([]opRec, n)
	futs := make([]*core.AppendFuture, 0, inFlight)
	for i := 0; i < n; i += len(futs) {
		futs = futs[:0]
		for j := i; j < n && j < i+inFlight; j++ {
			recs[j] = opRec{Kind: opAppend, Sent: e.now()}
			data := e.pay.build(id(j), types.MasterColor, e.cfg.w.RecordBytes)
			futs = append(futs, h.AsyncAppend([][]byte{data}, types.MasterColor))
		}
		for k, f := range futs {
			sn, err := f.Wait(context.Background())
			if err != nil {
				return nil, fmt.Errorf("loading record %d: %w", i+k, err)
			}
			r := &recs[i+k]
			r.Done, r.SN, r.OK = e.now(), sn, true
			e.noteAck(ack{ID: id(i + k), SN: sn})
		}
	}
	return recs, nil
}

// setUp preloads the log and lets eviction settle, as the workload asks.
func (e *env) setUp() error {
	w := e.cfg.w
	if w.Preload == 0 {
		return nil
	}
	recs, err := e.loadRecords(e.cl.aux, preloadCaller, w.Preload)
	if err != nil {
		return err
	}
	for i, r := range recs {
		e.preload = append(e.preload, ack{ID: opID{Kind: opAppend, Caller: preloadCaller, Index: uint64(i)}, SN: r.SN})
	}
	return e.cl.settle(uint64(w.PMBudgetMB)<<20, 30*time.Second)
}

// trimmer keeps the newest TrimWindow records of color 0 live until stop.
func (e *env) trimmer(stop <-chan struct{}) {
	t := time.NewTicker(trimInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		newest := types.SN(e.newest.Load())
		if newest.Counter() <= uint32(e.cfg.w.TrimWindow) {
			continue
		}
		upTo := newest - types.SN(e.cfg.w.TrimWindow)
		if _, _, err := e.cl.aux.Trim(upTo, types.MasterColor); err != nil {
			e.trimErr++
			continue
		}
		e.trimmed = upTo
	}
}

// watchWindow takes the snapshots and reads the process CPU time as the
// window opens and closes. A zero window has nothing to watch.
func (e *env) watchWindow() {
	if e.cfg.seconds == 0 {
		return
	}
	time.Sleep(time.Until(e.t0))
	e.before = e.cl.snapshot()
	e.cpu0 = cpuTime()
	time.Sleep(time.Until(e.t1))
	e.cpu1 = cpuTime()
	e.after = e.cl.snapshot()
}

// run drives the workload's loop, open unless the run asked for the closed
// one, from now to the end of the measured window, which opens after the
// warm-up: the same traffic, not timed. A zero window ends where a window would
// open: it measures the set-up alone.
func (e *env) run() {
	if e.cfg.w.TrimWindow > 0 {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() { defer close(done); e.trimmer(stop) }()
		defer func() { close(stop); <-done }()
	}
	start := time.Now()
	e.t0 = start.Add(e.cfg.warmup)
	e.t1 = e.t0.Add(time.Duration(e.cfg.seconds * float64(time.Second)))
	watched := make(chan struct{})
	go func() { defer close(watched); e.watchWindow() }()
	if e.cfg.closed {
		e.closedLoop()
	} else {
		e.openLoop(start)
	}
	<-watched
}

// closedLoop runs the workload's callers, each issuing its next op when its
// previous one completed, until the window closes.
func (e *env) closedLoop() {
	var wg sync.WaitGroup
	for c := 0; c < e.cfg.w.Callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := e.cl.handles[c%len(e.cl.handles)]
			for time.Now().Before(e.t1) {
				e.calls[c] = append(e.calls[c], e.do(h, c, uint64(len(e.calls[c])), e.gens[c].next(), 0))
			}
		}(c)
	}
	wg.Wait()
}

// openLoop runs from start until the window closes: one generator per handle
// issues its precomputed tick schedule whatever the system's pace, and every
// op is timed from its tick's due time. Appends are enqueued by the generator
// itself (AsyncAppend); the calls that block get a goroutine each.
func (e *env) openLoop(start time.Time) {
	w := e.cfg.w
	gens := len(e.cl.handles)
	span := e.t1.Sub(start)
	origin := e.since(start) // the schedule counts from here
	var wg, inFlight sync.WaitGroup
	for g := 0; g < gens; g++ {
		sched := buildSchedule(e.cfg.seed, g, gens, w.Rate, span)
		total := 0
		for _, tk := range sched {
			total += tk.N
		}
		issuer := w.Callers + g
		// Sized once, up front: completions write into their own slot.
		recs := make([]opRec, total)
		e.calls[issuer] = recs
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := e.cl.handles[g]
			i := 0
			for _, tk := range sched {
				due := origin + int64(tk.Due)
				time.Sleep(time.Duration(due - e.now()))
				for k := 0; k < tk.N; k, i = k+1, i+1 {
					ch := e.gens[issuer].next()
					rec, idx := &recs[i], uint64(i)
					inFlight.Add(1)
					if ch.Kind != opAppend {
						go func() {
							defer inFlight.Done()
							*rec = e.do(h, issuer, idx, ch, due)
						}()
						continue
					}
					id := opID{Kind: opAppend, Caller: uint32(issuer), Index: idx}
					data := e.pay.build(id, ch.Color, w.RecordBytes)
					rec.Kind, rec.Color, rec.Sent = opAppend, ch.Color, e.now()
					rec.Late = rec.Sent - due
					_, tr, finish := e.traceCtx(opAppend)
					fut := h.AsyncAppend([][]byte{data}, ch.Color)
					go func() {
						defer inFlight.Done()
						sn, err := fut.Wait(context.Background())
						rec.Done = e.now()
						rec.SN, rec.OK = sn, err == nil && sn.Valid()
						// AsyncAppend takes no context, so the span AppendCtx
						// would record is recorded here.
						tr.AddSpan("batch_wait", time.Duration(rec.Done-rec.Sent))
						finish()
						if rec.OK {
							e.noteAck(ack{ID: id, Color: ch.Color, SN: sn})
						}
					}()
				}
			}
		}(g)
	}
	wg.Wait()
	inFlight.Wait()
}

// writeSpans writes every op's span, one JSON object per line, times in ns
// since the window opened.
func (e *env) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(f)
	enc := json.NewEncoder(out)
	t0 := int64(e.t0.Sub(e.epoch))
	for caller, recs := range e.calls {
		for idx, r := range recs {
			err := enc.Encode(struct {
				Op     string `json:"op"`
				Caller int    `json:"caller"`
				Index  int    `json:"index"`
				Color  uint32 `json:"color"`
				SN     uint64 `json:"sn,omitempty"`
				Due    int64  `json:"due_ns"`
				Sent   int64  `json:"sent_ns"`
				Done   int64  `json:"done_ns"`
				OK     bool   `json:"ok"`
			}{r.Kind.String(), caller, idx, uint32(r.Color), uint64(r.SN), r.Sent - r.Late - t0, r.Sent - t0, r.Done - t0, r.OK})
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := out.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
