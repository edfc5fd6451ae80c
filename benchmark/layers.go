package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/storage"
	"flexlog/internal/transport"
)

// snapshot is every always-on public counter of the cluster and the process
// at one instant. Per-layer metrics are differences of two snapshots: the
// layers are measured from outside, through their Stats() methods.
type snapshot struct {
	cpu    time.Duration // process user+system time
	rssMiB float64       // high-water resident set
	mem    runtime.MemStats

	replicas []replica.Stats
	lanes    [][]obs.LaneSnapshot
	stores   []storage.Stats
	seqs     []seq.Stats
	tcp      []transport.TCPStats // sequencers first, then replicas, then clients

	batches, batched uint64            // core.ClientMetrics over the measuring handles
	stages           map[string]stageT // traced runs only
}

// stageT is the running total of one trace histogram.
type stageT struct {
	sum time.Duration
	n   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (cl *cluster) snapshot() *snapshot {
	s := &snapshot{cpu: cpuTime()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	runtime.ReadMemStats(&s.mem)
	for _, r := range cl.replicas {
		s.replicas = append(s.replicas, r.Stats())
		s.lanes = append(s.lanes, r.LaneSnapshots())
		s.stores = append(s.stores, r.Store().Stats())
	}
	for _, q := range cl.seqs {
		s.seqs = append(s.seqs, q.Stats())
	}
	for _, ep := range cl.endpoints {
		s.tcp = append(s.tcp, ep.Stats())
	}
	for _, h := range cl.handles {
		m := h.Metrics()
		s.batches += m.Batches.Count()
		s.batched += m.BatchedAppends.Count()
	}
	if cl.reg != nil {
		s.stages = cl.traceStages()
	}
	return s
}

// Client-side tracers publish under these op names, next to the replicas'
// "append" and "read".
const (
	opClientAppend = "client_append"
	opClientRead   = "client_read"
	opClientMulti  = "client_multi"
)

var traceStages = []struct{ op, stage string }{
	{opClientAppend, "batch_wait"},
	{opClientAppend, ""}, // "" = the op's end-to-end total
	{opClientRead, "read_rtt"},
	{opClientRead, ""},
	{"append", "lane_wait"}, {"append", "persist"}, {"append", "order_wait"}, {"append", "commit"},
	{"read", "lane_wait"}, {"read", "serve"},
}

// traceStages sums, over the nodes that publish it, each stage histogram of
// the obs registry's flexlog_trace_* families.
func (cl *cluster) traceStages() map[string]stageT {
	nodes := []string{"client"}
	for _, r := range cl.replicas {
		nodes = append(nodes, fmt.Sprintf("%d", r.ID()))
	}
	out := make(map[string]stageT)
	for _, st := range traceStages {
		var t stageT
		for _, node := range nodes {
			// Histogram returns the registered instance for these labels
			// (or registers an empty one, which adds nothing).
			lb := obs.Labels{"op": st.op, "node": node}
			family := "flexlog_trace_total_seconds"
			if st.stage != "" {
				lb["stage"] = st.stage
				family = "flexlog_trace_stage_seconds"
			}
			h := cl.reg.Histogram(family, "", lb).HDR()
			t.sum += h.Sum()
			t.n += h.Count()
		}
		out[st.op+"/"+st.stage] = t
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// window is what the driver learned about the measured window; the layer
// metrics are normalised by it.
type window struct {
	seconds   float64
	ops       float64 // completed, verified ops
	userBytes float64 // payload bytes of completed appends
	copies    float64 // replicas each appended byte is stored on
}

// layerMetrics turns two snapshots into the per-layer metrics that come
// from counters. Each is a delta over the window summed over the nodes of
// the role, per completed op unless the name says otherwise.
func layerMetrics(cl *cluster, a, b *snapshot, w window, out metricSet) {
	d := func(x, y uint64) float64 { return float64(y - x) }

	// core
	out.set("core.records_per_batch", ratio(d(a.batched, b.batched), d(a.batches, b.batches)), 0)

	// transport
	var sends, bytesOut, writev, hits, misses, decErr float64
	for i := range b.tcp {
		sends += d(a.tcp[i].SendsOut, b.tcp[i].SendsOut)
		bytesOut += d(a.tcp[i].BytesOut, b.tcp[i].BytesOut)
		writev += d(a.tcp[i].WritevCalls, b.tcp[i].WritevCalls)
		hits += d(a.tcp[i].PoolHits, b.tcp[i].PoolHits)
		misses += d(a.tcp[i].PoolMisses, b.tcp[i].PoolMisses)
		decErr += d(a.tcp[i].DecodeErrs, b.tcp[i].DecodeErrs)
	}
	out.set("transport.frames_per_op", ratio(sends, w.ops), 0)
	out.set("transport.wire_bytes_per_op", ratio(bytesOut, w.ops), 0)
	out.set("transport.frames_per_writev", ratio(sends, writev), 0)
	out.set("transport.pool_miss_frac", ratio(misses, hits+misses), 0)
	out.set("transport.decode_errs", decErr, 0)

	cfg := replica.DefaultConfig()
	laneWorkers := map[string]int{"read": cfg.ReadWorkers, "write": cfg.WriteWorkers}
	busy := map[string]float64{}
	depth := map[string]float64{}
	var shed float64
	for i := range b.lanes {
		for j, lane := range b.lanes[i] {
			busy[lane.Lane] += (lane.Busy - a.lanes[i][j].Busy).Seconds()
			depth[lane.Lane] = max(depth[lane.Lane], float64(lane.MaxDepth))
			shed += d(a.lanes[i][j].Shed, lane.Shed)
		}
	}
	for lane, workers := range laneWorkers {
		capacity := w.seconds * float64(len(b.lanes)*workers)
		out.set("transport."+lane+"_lane_busy_frac", ratio(busy[lane], capacity), 0)
		// The high-water mark is since boot: the lanes keep no resettable one.
		out.set("transport."+lane+"_lane_max_depth", depth[lane], 0)
	}
	out.set("transport.lane_shed", shed, 0)

	// replica
	var msgs, batchMsgs, batchRecs, commits, reads, held, rmiss, retries, drops float64
	for i := range b.replicas {
		x, y := a.replicas[i], b.replicas[i]
		msgs += d(x.Appends, y.Appends)
		batchMsgs += d(x.BatchAppends, y.BatchAppends)
		batchRecs += d(x.BatchRecords, y.BatchRecords)
		commits += d(x.Commits, y.Commits)
		reads += d(x.Reads, y.Reads)
		held += d(x.HeldReads, y.HeldReads)
		rmiss += d(x.ReadMisses, y.ReadMisses)
		retries += d(x.OReqRetries, y.OReqRetries)
		drops += d(x.AppendDrops, y.AppendDrops) + d(x.OReqDrops, y.OReqDrops)
	}
	out.set("replica.append_msgs_per_op", ratio(msgs, w.ops), 0)
	out.set("replica.records_per_append_msg", ratio(batchRecs, batchMsgs), 0)
	out.set("replica.commits_per_op", ratio(commits, w.ops), 0)
	out.set("replica.held_read_frac", ratio(held, reads), 0)
	out.set("replica.read_miss_frac", ratio(rmiss, reads), 0)
	out.set("replica.oreq_retries", retries, 0)
	out.set("replica.drops", drops, 0)

	// seq
	var direct, child, upward, pipelined, rounds, urgent, resends, dups, seqFrames float64
	var parentFrames, parentChild, parentAssigned float64
	for i := range b.seqs {
		x, y := a.seqs[i], b.seqs[i]
		direct += d(x.DirectReqs, y.DirectReqs)
		child += d(x.ChildReqs, y.ChildReqs)
		upward += d(x.BatchesSent, y.BatchesSent)
		pipelined += d(x.PipelinedBatches, y.PipelinedBatches)
		rounds += d(x.FlushRounds, y.FlushRounds)
		urgent += d(x.UrgentFlushes, y.UrgentFlushes)
		resends += d(x.Resends, y.Resends)
		dups += d(x.DupTokens, y.DupTokens)
		// Endpoints were attached in boot order, sequencers first.
		frames := d(a.tcp[i].FramesIn, b.tcp[i].FramesIn)
		seqFrames += frames
		if cl.seqHasKid[i] {
			parentFrames += frames
			parentChild += d(x.ChildReqs, y.ChildReqs)
			parentAssigned += d(x.Assigned, y.Assigned)
		}
	}
	out.set("seq.order_reqs_per_op", ratio(direct, w.ops), 0)
	out.set("seq.reqs_per_batch", ratio(direct+child, seqFrames), 0)
	out.set("seq.upward_batches_per_op", ratio(upward, w.ops), 0)
	out.set("seq.child_reqs_per_upward_batch", ratio(parentChild, parentFrames), 0)
	out.set("seq.records_per_upward_batch", ratio(parentAssigned, parentChild), 0)
	out.set("seq.pipelined_frac", ratio(pipelined, upward), 0)
	out.set("seq.urgent_flush_frac", ratio(urgent, rounds), 0)
	out.set("seq.resends", resends, 0)
	out.set("seq.dup_tokens", dups, 0)

	// storage, pmem, storage/tier
	var gcOps, gcWin, tx, pmWrites, pmBytes, chit, cmiss, cold, evicted, gcSegs, spilled, resident, coldSegs float64
	for i := range b.stores {
		x, y := a.stores[i], b.stores[i]
		gcOps += d(x.GC.Ops, y.GC.Ops)
		gcWin += d(x.GC.Windows, y.GC.Windows)
		tx += d(x.PM.TxCommits, y.PM.TxCommits)
		pmWrites += d(x.PM.Writes, y.PM.Writes)
		pmBytes += d(x.PM.BytesWritten, y.PM.BytesWritten)
		chit += d(x.CacheHits, y.CacheHits)
		cmiss += d(x.CacheMisses, y.CacheMisses)
		cold += d(x.ColdMissReads, y.ColdMissReads)
		evicted += d(x.EvictedBytes, y.EvictedBytes)
		gcSegs += d(x.GCSegments, y.GCSegments)
		spilled += d(x.Flushes, y.Flushes)
		resident += float64(y.ResidentSegments)
		coldSegs += float64(y.ColdSegments)
	}
	out.set("storage.gc_ops_per_window", ratio(gcOps, gcWin), 0)
	out.set("storage.pm_tx_per_op", ratio(tx, w.ops), 0)
	out.set("pmem.writes_per_tx", ratio(pmWrites, tx), 0)
	out.set("storage.pm_bytes_per_user_byte", ratio(pmBytes, w.userBytes*w.copies), 0)
	out.set("storage.cache_hit_frac", ratio(chit, chit+cmiss), 0)
	out.set("storage.cold_read_frac", ratio(cold, reads), 0)
	out.set("storage.evicted_mb", evicted/(1<<20), 0)
	out.set("storage.gc_segments", gcSegs, 0)
	out.set("storage.spilled_segments", spilled, 0)
	out.set("storage.resident_segments_end", resident, 0)
	out.set("storage.cold_segments_end", coldSegs, 0)

	// process
	out.set("process.peak_rss_mb", b.rssMiB, 0)
	out.set("process.allocs_per_op", ratio(d(a.mem.Mallocs, b.mem.Mallocs), w.ops), 0)
	out.set("process.alloc_bytes_per_op", ratio(d(a.mem.TotalAlloc, b.mem.TotalAlloc), w.ops), 0)
	out.set("process.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC), 0)
	out.set("process.gc_pause_ms", d(a.mem.PauseTotalNs, b.mem.PauseTotalNs)/1e6, 0)
}

// traceMetrics turns two traced snapshots into the trace.* means: each is
// the stage's summed time over its observation count within the window, so
// the stages of one op add up.
func traceMetrics(a, b *snapshot, completed [numOpKinds]float64, out metricSet) {
	mean := func(op, stage string) (float64, int) {
		x, y := a.stages[op+"/"+stage], b.stages[op+"/"+stage]
		n := y.n - x.n
		return ratio(float64((y.sum - x.sum).Microseconds()), float64(n)), int(n)
	}
	set := func(name, op, stage string) float64 {
		v, n := mean(op, stage)
		out.set(name, v, n)
		return v
	}
	set("trace.client.batch_wait_mean_us", opClientAppend, "batch_wait")
	appendRTT := set("trace.client.append_rtt_mean_us", opClientAppend, "")
	readRTT := set("trace.client.read_rtt_mean_us", opClientRead, "read_rtt")
	var appendStages, readStages float64
	for _, st := range []string{"lane_wait", "persist", "order_wait", "commit"} {
		appendStages += set("trace.replica.append."+st+"_mean_us", "append", st)
	}
	for _, st := range []string{"lane_wait", "serve"} {
		readStages += set("trace.replica.read."+st+"_mean_us", "read", st)
	}
	// What the client waited for and no server stage accounts for (wire,
	// syscalls, client batching, scheduling), weighted by op class.
	na, nr := completed[opAppend], completed[opRead]
	out.set("trace.unattributed_mean_us",
		ratio(na*(appendRTT-appendStages)+nr*(readRTT-readStages), na+nr), int(na+nr))
}
