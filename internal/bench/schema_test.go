package bench

import (
	"fmt"
	"slices"
)

// seriesSchema is the part of a series everything outside the package
// reads: its name, its unit and its x labels, in order.
type seriesSchema struct {
	name, unit string
	labels     []string
}

type reportSchema struct {
	xHeader string
	series  []seriesSchema
}

// quickSchema pins, per experiment id, what a quick-mode report looks
// like to its readers — the shape tests, the root bench_test.go,
// EXPERIMENTS.md's tables — captured before internal/bench was refactored
// onto the shared fixture, driver and model. A renamed series, a dropped
// label or a reordered column fails runExperiment.
var quickSchema = map[string]reportSchema{
	"table1": {xHeader: "syscall", series: []seriesSchema{
		{"Video processing", "%", []string{"open()", "read()", "write()", "fstat()", "close()", "Total"}},
		{"Gzip compression", "%", []string{"open()", "read()", "write()", "fstat()", "close()", "Total"}},
	}},
	"fig1": {xHeader: "block sz (B)", series: []seriesSchema{
		{"pmem_read", "ns", []string{"64", "128", "256", "512", "1024", "2048", "4096", "8192"}},
		{"read_syscall", "ns", []string{"64", "128", "256", "512", "1024", "2048", "4096", "8192"}},
		{"fileio_read", "ns", []string{"64", "128", "256", "512", "1024", "2048", "4096", "8192"}},
		{"pmem_write", "ns", []string{"64", "128", "256", "512", "1024", "2048", "4096", "8192"}},
		{"write_syscall", "ns", []string{"64", "128", "256", "512", "1024", "2048", "4096", "8192"}},
		{"fileio_write", "ns", []string{"64", "128", "256", "512", "1024", "2048", "4096", "8192"}},
	}},
	"fig4lat": {xHeader: "Reads (%)", series: []seriesSchema{
		{"FlexLog", "usec", []string{"10", "15", "50"}},
		{"Boki", "usec", []string{"10", "15", "50"}},
	}},
	"fig4thr": {xHeader: "Reads (%)", series: []seriesSchema{
		{"FlexLog", "kOps/s", []string{"10", "15", "50"}},
		{"FlexLog-P", "kOps/s", []string{"10", "15", "50"}},
		{"Paxos", "kOps/s", []string{"10", "15", "50"}},
	}},
	"fig5": {xHeader: "record sz (B)", series: []seriesSchema{
		{"FlexLog (PM)", "ops/s", []string{"64", "1K", "8K"}},
		{"Boki (RocksDB)", "ops/s", []string{"64", "1K", "8K"}},
	}},
	"fig6": {xHeader: "threads", series: []seriesSchema{
		{"FlexLog (PM)", "ops/s", []string{"1", "4", "12"}},
		{"Boki (RocksDB)", "ops/s", []string{"1", "4", "12"}},
	}},
	"fig7": {xHeader: "Reads (%)", series: []seriesSchema{
		{"FlexLog (PM)", "ops/s", []string{"0", "50", "99"}},
		{"Boki (RocksDB)", "ops/s", []string{"0", "50", "99"}},
	}},
	"fig8": {xHeader: "replication", series: []seriesSchema{
		{"Appends", "ms", []string{"2", "3", "8"}},
		{"Reads", "ms", []string{"2", "3", "8"}},
	}},
	"fig9": {xHeader: "leaf sequencers", series: []seriesSchema{
		{"FlexLog ordering", "MReqs/s", []string{"1", "2", "4", "6"}},
	}},
	"fig10": {xHeader: "records", series: []seriesSchema{
		{"Recovery time", "ms", []string{"100", "1K", "10K", "100K"}},
	}},
	"fig11": {xHeader: "clients", series: []seriesSchema{
		{"Throughput (3 shards)", "kOps/s", []string{"1", "4"}},
		{"Throughput (6 shards)", "kOps/s", []string{"1", "4"}},
		{"Append lat (3 shards)", "ms", []string{"1", "4"}},
		{"Append lat (6 shards)", "ms", []string{"1", "4"}},
		{"Read lat (3 shards)", "ms", []string{"1", "4"}},
		{"Read lat (6 shards)", "ms", []string{"1", "4"}},
	}},
	"ablate-batch": {xHeader: "drivers", series: []seriesSchema{
		{"Root msgs per request", "", []string{"1", "8", "64"}},
		{"Append order latency", "usec", []string{"1"}},
	}},
	"ablate-cache": {xHeader: "cache", series: []seriesSchema{
		{"Read throughput", "ops/s", []string{"on", "off"}},
		{"Cache hit rate", "%", []string{"on", "off"}},
	}},
	"ablate-readhold": {xHeader: "hold timeout", series: []seriesSchema{
		{"Read success", "%", []string{"0s", "5ms"}},
	}},
	"ablate-clientbatch": {xHeader: "batching", series: []seriesSchema{
		{"Append throughput", "kRec/s", []string{"off", "on"}},
		{"1-client mean latency", "usec", []string{"off", "on"}},
		{"Mean batch size", "rec", []string{"off", "on"}},
	}},
	"ablate-readpath": {xHeader: "readers", series: []seriesSchema{
		{"95%R lane off", "kOps/s", []string{"1", "64"}},
		{"95%R lane on", "kOps/s", []string{"1", "64"}},
		{"50%R lane off", "kOps/s", []string{"1", "64"}},
		{"50%R lane on", "kOps/s", []string{"1", "64"}},
		{"1-reader lat off", "usec", []string{"1"}},
		{"1-reader lat on", "usec", []string{"1"}},
	}},
	"ablate-writepath": {xHeader: "writers", series: []seriesSchema{
		{"serial", "kOps/s", []string{"1", "64"}},
		{"+lanes", "kOps/s", []string{"1", "64"}},
		{"+group-commit", "kOps/s", []string{"1", "64"}},
		{"full", "kOps/s", []string{"1", "64"}},
		{"1-writer lat serial", "usec", []string{"1"}},
		{"1-writer lat full", "usec", []string{"1"}},
		{"append drops (full)", "msgs", []string{"1", "64"}},
		{"oreq drops (full)", "msgs", []string{"1", "64"}},
	}},
	"ablate-tiering": {xHeader: "log size", series: []seriesSchema{
		{"Recovery (lifecycle on)", "ms", []string{"1x", "2x", "3x", "4x"}},
		{"Recovery (lifecycle off)", "ms", []string{"1x", "2x", "3x", "4x"}},
		{"Replay (lifecycle on)", "entries", []string{"1x", "2x", "3x", "4x"}},
		{"Replay (lifecycle off)", "entries", []string{"1x", "2x", "3x", "4x"}},
	}},
	"ablate-codec": {xHeader: "senders", series: []seriesSchema{
		{"gob", "kRec/s", []string{"2", "8"}},
		{"binary", "kRec/s", []string{"2", "8"}},
	}},
	"ablate-qos": {xHeader: "scenario", series: []seriesSchema{
		{"victim appends", "kOps/s", []string{"baseline", "qos"}},
		{"victim served share", "%", []string{"baseline", "qos"}},
		{"agg throttled", "records", []string{"baseline", "qos"}},
		{"lane sheds", "msgs", []string{"baseline", "qos"}},
		{"read P99", "usec", []string{"baseline", "qos"}},
		{"hedged rounds", "count", []string{"baseline", "qos"}},
	}},
	"ablate-seq": {xHeader: "concurrent colors", series: []seriesSchema{
		{"serial", "kReqs/s", []string{"4", "16", "64"}},
		{"full", "kReqs/s", []string{"4", "16", "64"}},
		{"1-driver lat serial", "usec", []string{"1"}},
		{"1-driver lat full", "usec", []string{"1"}},
	}},
	"ablate-reconfig": {xHeader: "phase", series: []seriesSchema{
		{"append throughput", "kOps/s", []string{"pre", "during", "post"}},
		{"vs pre", "x", []string{"pre", "during", "post"}},
	}},
	"ext-burst": {xHeader: "burst size", series: []seriesSchema{
		{"Completed", "%", []string{"50", "200"}},
		{"Drain time", "ms", []string{"50", "200"}},
		{"Overload retries per invocation", "", []string{"50", "200"}},
	}},
}

// checkSchema compares a quick-mode report against quickSchema.
func checkSchema(rep *Report) error {
	want, ok := quickSchema[rep.ID]
	if !ok {
		return fmt.Errorf("no schema recorded for %q", rep.ID)
	}
	if rep.XHeader != want.xHeader {
		return fmt.Errorf("x header %q, want %q", rep.XHeader, want.xHeader)
	}
	if len(rep.Series) != len(want.series) {
		return fmt.Errorf("%d series, want %d", len(rep.Series), len(want.series))
	}
	for i, s := range rep.Series {
		w := want.series[i]
		labels, _ := s.Points()
		if s.Name != w.name || s.Unit != w.unit || !slices.Equal(labels, w.labels) {
			return fmt.Errorf("series %d is %q (%s) %q, want %q (%s) %q", i, s.Name, s.Unit, labels, w.name, w.unit, w.labels)
		}
	}
	return nil
}
