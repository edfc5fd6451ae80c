package main

// metricDef names one metric the program emits. BENCHMARK.json lists the
// same names and units (a test keeps the two in step) and adds the
// regression bounds of the end-to-end ones.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

func lower(name, unit string) metricDef  { return metricDef{name, unit, "lower"} }
func higher(name, unit string) metricDef { return metricDef{name, unit, "higher"} }

// endToEnd are the metrics a user of the log would see. Every workload
// reports every one of them; focus_* is the latency of the op class the
// workload exists to measure (see workload.focus).
var endToEnd = []metricDef{
	lower("setup_s", "s"),
	higher("ops_s", "1/s"),
	lower("append_p50_us", "us"),
	lower("focus_p50_us", "us"),
}

// perLayer are the metrics of single layers, plus end-to-end figures that
// cannot carry a bound: zero on a healthy run, absent on some workloads, or
// spreading from run to run by more than a bound may be (see README.md).
var perLayer = []metricDef{
	lower("failed_frac", "frac"),
	lower("cpu_us_per_op", "us"),
	lower("append_p99_us", "us"),
	lower("read_p50_us", "us"),
	lower("read_p99_us", "us"),
	lower("multi_p50_us", "us"),
	lower("multi_p99_us", "us"),

	higher("core.records_per_batch", "count"),
	lower("core.batch_queue_delay_p50_us", "us"),
	lower("core.append_service_p50_us", "us"),
	lower("core.append_service_p99_us", "us"),
	lower("core.append_p999_us", "us"),
	lower("core.read_p999_us", "us"),

	lower("gen.late_p50_us", "us"),
	lower("gen.late_p99_us", "us"),
	lower("gen.backlog_end", "count"),

	higher("closed.ops_s", "1/s"),
	lower("closed.cpu_us_per_op", "us"),

	lower("transport.frames_per_op", "1/op"),
	lower("transport.wire_bytes_per_op", "B/op"),
	higher("transport.frames_per_writev", "count"),
	lower("transport.pool_miss_frac", "frac"),
	lower("transport.decode_errs", "count"),
	lower("transport.write_lane_busy_frac", "frac"),
	lower("transport.write_lane_max_depth", "count"),
	lower("transport.read_lane_busy_frac", "frac"),
	lower("transport.read_lane_max_depth", "count"),
	lower("transport.lane_shed", "count"),

	lower("replica.append_msgs_per_op", "1/op"),
	higher("replica.records_per_append_msg", "count"),
	lower("replica.commits_per_op", "1/op"),
	lower("replica.held_read_frac", "frac"),
	lower("replica.read_miss_frac", "frac"),
	lower("replica.oreq_retries", "count"),
	lower("replica.drops", "count"),

	lower("seq.order_reqs_per_op", "1/op"),
	higher("seq.reqs_per_batch", "count"),
	lower("seq.upward_batches_per_op", "1/op"),
	higher("seq.child_reqs_per_upward_batch", "count"),
	higher("seq.records_per_upward_batch", "count"),
	higher("seq.pipelined_frac", "frac"),
	lower("seq.urgent_flush_frac", "frac"),
	lower("seq.resends", "count"),
	lower("seq.dup_tokens", "count"),

	higher("storage.gc_ops_per_window", "count"),
	lower("storage.pm_tx_per_op", "1/op"),
	lower("pmem.writes_per_tx", "count"),
	lower("storage.pm_bytes_per_user_byte", "B/B"),
	higher("storage.cache_hit_frac", "frac"),
	lower("storage.cold_read_frac", "frac"),
	lower("storage.evicted_mb", "MiB"),
	lower("storage.gc_segments", "count"),
	lower("storage.spilled_segments", "count"),
	lower("storage.resident_segments_end", "count"),
	lower("storage.cold_segments_end", "count"),

	lower("process.peak_rss_mb", "MiB"),
	lower("process.allocs_per_op", "1/op"),
	lower("process.alloc_bytes_per_op", "B/op"),
	lower("process.gc_cycles", "count"),
	lower("process.gc_pause_ms", "ms"),

	lower("trace.client.batch_wait_mean_us", "us"),
	lower("trace.client.append_rtt_mean_us", "us"),
	lower("trace.client.read_rtt_mean_us", "us"),
	lower("trace.replica.append.lane_wait_mean_us", "us"),
	lower("trace.replica.append.persist_mean_us", "us"),
	lower("trace.replica.append.order_wait_mean_us", "us"),
	lower("trace.replica.append.commit_mean_us", "us"),
	lower("trace.replica.read.lane_wait_mean_us", "us"),
	lower("trace.replica.read.serve_mean_us", "us"),
	lower("trace.unattributed_mean_us", "us"),
	lower("trace.overhead_frac", "frac"),

	lower("ladder.pmem.tx_commit_ns", "ns"),
	lower("ladder.storage.putbatch_ns", "ns"),
	lower("ladder.storage.get_hit_ns", "ns"),
	lower("ladder.storage.get_miss_ns", "ns"),
	lower("ladder.proto.encode_append_ns", "ns"),
	lower("ladder.proto.decode_append_ns", "ns"),
	lower("ladder.proto.encode_append_allocs", "count"),
	lower("ladder.transport.tcp_rtt_us", "us"),
	lower("ladder.seq.order_round_us", "us"),
	lower("ladder.seq.order_round_depth2_us", "us"),
	lower("ladder.replica.append_commit_us", "us"),
	lower("ladder.replica.read_us", "us"),
	lower("ladder.core.batcher_enqueue_ns", "ns"),
}

// catalogue is every metric the program can emit, end-to-end ones first.
func catalogue() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// measured is one emitted value with the number of samples behind it
// (0 where the value is a ratio of counters, not a sample statistic).
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects emitted values by name.
type metricSet map[string]measured

func (m metricSet) set(name string, value float64, n int) {
	m[name] = measured{Value: value, N: n}
}

// complete returns the values of defs in order, filling the unit from the
// catalogue and 0 for a metric this run had nothing to report on.
func (m metricSet) complete(defs []metricDef) map[string]measured {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out
}
