package main

import (
	"fmt"
	"slices"

	"flexlog/internal/metrics"
	"flexlog/internal/types"
)

// phaseResult is what one measured window produced.
type phaseResult struct {
	SetupS    float64
	Attempted int
	Failed    int
	Check     checkResult
	Completed [numOpKinds]float64 // verified ops that fell due inside the window
	OpsS      float64
	Metrics   metricSet // every metric but setup_s, trace.* and ladder.*
	Notes     []string
}

const nsPerUs = 1e3

// analyze computes the window's metrics from the op records and the two
// snapshots, and runs the output check. Every figure is plain wall-clock.
func (e *env) analyze() (phaseResult, error) {
	w := e.cfg.w
	res := phaseResult{Metrics: metricSet{}}
	t0, t1 := e.since(e.t0), e.since(e.t1)

	var (
		lat       [numOpKinds][]int64 // from due time (= call time in closed loops)
		service   []int64             // appends, from the actual call
		late      []int64
		userBytes float64
		backlog   int
		lastDone  = t0 // when the last op of the window completed
		acks      = append([]ack(nil), e.preload...)
		multis    []multiOp
	)
	for caller, recs := range e.calls {
		for idx, r := range recs {
			id := opID{Kind: r.Kind, Caller: uint32(caller), Index: uint64(idx)}
			switch {
			case r.Kind == opAppend && r.OK:
				acks = append(acks, ack{ID: id, Color: r.Color, SN: r.SN})
			case r.Kind == opMulti:
				multis = append(multis, multiOp{ID: id, Acked: r.OK})
			}
			// An op belongs to the window its due time falls in, whenever it
			// completes: nothing slow is cut off at the window's end.
			due := r.Sent - r.Late
			if due < t0 || due >= t1 {
				continue
			}
			res.Attempted++
			late = append(late, r.Late)
			if !e.cfg.closed && due < t1-int64(latencyLimit) && (r.Done == 0 || r.Done >= t1) {
				backlog++
			}
			if !r.OK {
				res.Failed++
				continue
			}
			took := r.Done - r.Sent
			res.Completed[r.Kind]++
			lastDone = max(lastDone, r.Done)
			lat[r.Kind] = append(lat[r.Kind], r.Late+took)
			switch r.Kind {
			case opAppend:
				service = append(service, took)
				userBytes += float64(w.RecordBytes)
			case opMulti:
				userBytes += float64(w.RecordBytes * len(multiColors))
			}
		}
	}
	for k := range lat {
		slices.Sort(lat[k])
	}
	slices.Sort(service)
	slices.Sort(late)

	var err error
	if res.Check, err = e.checkLogs(acks, multis); err != nil {
		return res, err
	}
	if res.Attempted == 0 {
		return res, fmt.Errorf("no op fell due inside the %.1f s window", e.cfg.seconds)
	}

	m := res.Metrics
	var ops float64
	for _, n := range res.Completed {
		ops += n
	}
	layerMetrics(e.cl, e.before, e.after, window{
		seconds: e.cfg.seconds, ops: ops, userBytes: userBytes, copies: replicasPerShard,
	}, m)
	// The counters that must stay zero on a healthy run are part of the
	// check: a drop, a decode error or a shed request is a failed op even
	// when a retry hid it from the caller.
	for _, name := range []string{"replica.drops", "transport.decode_errs", "transport.lane_shed"} {
		if v := m[name].Value; v != 0 {
			res.Check.fail("%s = %v, want 0", name, v)
		}
	}
	res.Failed += res.Check.FailedOps + e.trimErr
	m.set("failed_frac", float64(res.Failed)/float64(res.Attempted), res.Attempted)

	// The window's ops over the time it took to complete them: from the
	// window's start until the last of them was done.
	res.OpsS = ratio(ops, float64(lastDone-t0)/1e9)
	m.set("ops_s", res.OpsS, int(ops))
	m.set("cpu_us_per_op", float64((e.cpu1-e.cpu0).Nanoseconds())/nsPerUs/ops, int(ops))

	// Every percentile is taken over the whole window, so that a stall of the
	// process's own making (a GC cycle, a lock convoy) counts.
	pct := func(name string, v []int64, q float64) {
		if len(v) > 0 {
			m.set(name, percentile(v, q)/nsPerUs, len(v))
		}
	}
	pct("append_p50_us", lat[opAppend], 50)
	pct("append_p99_us", lat[opAppend], 99)
	pct("focus_p50_us", lat[w.focus()], 50)
	for k := opKind(0); k < numOpKinds; k++ {
		if q, v, n, ok := highestPercentile(lat[k]); ok {
			res.Notes = append(res.Notes, fmt.Sprintf("%s latency: n=%d, highest percentile with %d samples beyond it p%v = %.1f us", k, n, minTail, q, v/nsPerUs))
		}
	}
	pct("read_p50_us", lat[opRead], 50)
	pct("read_p99_us", lat[opRead], 99)
	pct("multi_p50_us", lat[opMulti], 50)
	pct("multi_p99_us", lat[opMulti], 99)
	pct("core.append_service_p50_us", service, 50)
	pct("core.append_service_p99_us", service, 99)
	pct("core.append_p999_us", lat[opAppend], 99.9)
	pct("core.read_p999_us", lat[opRead], 99.9)
	if !e.cfg.closed {
		pct("gen.late_p50_us", late, 50)
		pct("gen.late_p99_us", late, 99)
		m.set("gen.backlog_end", float64(backlog), res.Attempted)
	}

	// The queue-delay histograms cannot be reset or subtracted, so this
	// median covers the handles' whole life: warm-up and window.
	delay := metrics.NewHistogram()
	for _, h := range e.cl.handles {
		delay.Merge(h.Metrics().QueueDelay)
	}
	m.set("core.batch_queue_delay_p50_us", float64(delay.Percentile(50).Nanoseconds())/nsPerUs, int(delay.Count()))

	if e.traced {
		traceMetrics(e.before, e.after, res.Completed, m)
	}
	return res, nil
}

// checkLogs subscribes to every color once and runs the output check.
func (e *env) checkLogs(acks []ack, multis []multiOp) (checkResult, error) {
	var logs []colorLog
	for _, c := range e.cfg.w.spec(0).colors() {
		recs, err := e.cl.aux.Subscribe(c, types.InvalidSN)
		if err != nil {
			return checkResult{}, fmt.Errorf("final subscribe of %v: %w", c, err)
		}
		lg := colorLog{Color: c, Records: recs}
		if c == types.MasterColor {
			lg.Trimmed = e.trimmed
		}
		logs = append(logs, lg)
	}
	var targets []types.ColorID
	if len(multis) > 0 {
		targets = multiColors
	}
	return checkOutput(e.pay, e.cfg.w.RecordBytes, acks, multis, targets, logs), nil
}
