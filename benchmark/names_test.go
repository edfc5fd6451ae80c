package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"flexlog/internal/deploy"
)

// benchmarkJSON is BENCHMARK.json with every key the contract allows.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json and the program's catalogue must name the same workloads
// and metrics, with the same units and directions.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	seen := map[string]bool{}
	check := func(list string, i int, name, unit, better string, d metricDef) {
		if name != d.Name || unit != d.Unit || better != d.Better {
			t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", list, i, name, unit, better, d.Name, d.Unit, d.Better)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("%s[%d] %q: name, unit %q or direction %q outside the contract", list, i, name, unit, better)
		}
		if seen[name] {
			t.Errorf("%s is listed twice", name)
		}
		seen[name] = true
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		check("end_to_end", i, m.Name, m.Unit, m.Better, d)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound must be in (0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for i, d := range perLayer {
		m := b.PerLayer[i]
		check("per_layer", i, m.Name, m.Unit, m.Better, d)
	}
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 {
		t.Error("more metrics than the contract allows")
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || len(b.Command) != 2 || b.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %v / paths %v do not name this directory", b.Command, b.Paths)
	}
}

// A one-second run of every workload, then a traced run and the ladder:
// nothing fails, every end-to-end metric is positive, and the names the
// program emits are exactly the catalogue's. No timing is asserted.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots five clusters")
	}
	deploy.RegisterWire()
	cfg := func(w workload) runConfig {
		return runConfig{w: w, seed: 1, seconds: 1, setups: 1, warmup: 100 * time.Millisecond, handles: 2, ladder: time.Millisecond}
	}
	emitted := map[string]bool{}
	run := func(mode string, w workload, f func(runConfig, *record) error, c runConfig) record {
		var rec record
		if err := f(c, &rec); err != nil {
			t.Fatalf("%s %s: %v", w.Name, mode, err)
		}
		if rec.Failed != 0 || len(rec.Violations) != 0 || rec.Attempted == 0 {
			t.Fatalf("%s %s: attempted %d, failed %d, violations %v", w.Name, mode, rec.Attempted, rec.Failed, rec.Violations)
		}
		if f := rec.Metrics["failed_frac"]; f.Value != 0 {
			t.Errorf("%s %s: failed_frac = %v", w.Name, mode, f.Value)
		}
		for name := range rec.Metrics {
			emitted[name] = true
		}
		return rec
	}
	for _, w := range workloads {
		rec := run("end to end", w, runEndToEnd, cfg(w))
		for _, d := range endToEnd {
			if rec.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, rec.Metrics[d.Name].Value)
			}
		}
	}
	traced := cfg(workloads[0])
	traced.seconds = 3 // one second per third
	run("per layer", workloads[0], runPerLayer, traced)

	known := map[string]bool{}
	for _, d := range catalogue() {
		known[d.Name] = true
		if !emitted[d.Name] {
			t.Errorf("%s is in the catalogue but no run emitted it", d.Name)
		}
	}
	for name := range emitted {
		if !known[name] {
			t.Errorf("%s was emitted but is not in the catalogue", name)
		}
	}
}
