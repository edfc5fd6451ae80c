package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareLabelsEachPairing(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"ops_s","unit":"1/s","better":"higher","bound":0.05},
		{"name":"append_p50_us","unit":"us","better":"lower","bound":0.05},
		{"name":"append_p99_us","unit":"us","better":"lower","bound":0.05}]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	put := func(name string, ops, p50, p99 []float64) string {
		path := filepath.Join(dir, name)
		for i := range ops {
			rec := record{Workload: "w", Metrics: map[string]measured{
				"ops_s": {Value: ops[i]}, "append_p50_us": {Value: p50[i]}, "append_p99_us": {Value: p99[i]},
			}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := put("base.jsonl", []float64{100, 101, 99, 100}, []float64{10, 10.1, 9.9, 10}, []float64{50, 80, 30, 60})
	cand := put("cand.jsonl", []float64{90, 91, 89, 90}, []float64{10.2, 10.1, 10.3, 10.2}, []float64{52, 85, 31, 58})

	var out bytes.Buffer
	err = cmdCompare([]string{"--spec", spec, base, cand}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 metric(s) regressed") {
		t.Fatalf("err = %v, want one regression\n%s", err, out.String())
	}
	var labels []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "cand.jsonl") {
			f := strings.Fields(line)
			labels = append(labels, f[len(f)-1])
		}
	}
	// ops_s fell by a tenth; the median latency moved 2%, inside the bound;
	// the p99's own spread is wider than the bound, so it cannot be judged.
	if want := "regressed,ok,unresolved"; strings.Join(labels, ",") != want {
		t.Fatalf("labels %v, want %s\n%s", labels, want, out.String())
	}
	// Run for run, the candidate's throughput lost every pair.
	if !strings.Contains(out.String(), "pairs won 0 lost 4  regressed") {
		t.Fatalf("ops_s pairs not counted\n%s", out.String())
	}

	// Runs made with another window are not comparable.
	other := filepath.Join(dir, "other.jsonl")
	if err := appendRecord(other, record{Workload: "w", Seconds: 5, Metrics: map[string]measured{"ops_s": {Value: 100}}}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompare([]string{"--spec", spec, base, other}, &out); err == nil || !strings.Contains(err.Error(), "different settings") {
		t.Fatalf("err = %v, want a refusal to compare different settings", err)
	}
}
