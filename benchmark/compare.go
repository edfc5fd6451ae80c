package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json compare needs: the end-to-end
// metrics with the direction that is better and the share of the baseline's
// median by which each may worsen.
type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords reads a result file: one record per line, as --out writes.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// summary is one metric's runs in one result file.
type summary struct {
	values     []float64 // in the order the runs were made
	n          int
	q1, q2, q3 float64
	spread     float64 // (q3-q1)/median; NaN with fewer than two runs
}

func summarize(recs []record, workload, metric string) summary {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			v = append(v, m.Value)
		}
	}
	s := summary{values: v, n: len(v), q2: median(v), spread: math.NaN()}
	if q1, q2, q3, ok := quartiles(v); ok {
		s.q1, s.q2, s.q3 = q1, q2, q3
		s.spread, _ = spread(v)
	}
	return s
}

// verdict labels a candidate against the baseline under a bound: regressed
// when its median is worse by more than the bound; unresolved when either
// side's own run-to-run spread is wider than the bound (or unknown), so the
// comparison cannot tell; ok otherwise.
func verdict(base, cand summary, better string, bound float64) (string, float64) {
	worse := ratio(cand.q2-base.q2, math.Abs(base.q2))
	if better == "higher" {
		worse = -worse
	}
	switch {
	case base.n == 0 || cand.n == 0:
		return "missing", worse
	case worse > bound:
		return "regressed", worse
	case !(base.spread <= bound) || !(cand.spread <= bound):
		return "unresolved", worse
	default:
		return "ok", worse
	}
}

// sameSettings refuses to compare runs of one workload that were made with
// different windows or load parameters (--seconds, --rate, --callers).
func sameSettings(files [][]record) error {
	first := map[string]record{}
	for _, recs := range files {
		for _, r := range recs {
			f, seen := first[r.Workload]
			if !seen {
				first[r.Workload] = r
				continue
			}
			if r.Seconds != f.Seconds || !maps.Equal(r.Params, f.Params) {
				return fmt.Errorf("%s: runs with different settings cannot be compared (%.0f s %v against %.0f s %v)", r.Workload, f.Seconds, f.Params, r.Seconds, r.Params)
			}
		}
	}
	return nil
}

// pairs matches the i-th run of the baseline with the i-th of the candidate
// and counts the pairs the candidate won and lost (ties count for neither).
// When the two sides were run alternately, a drift of the host's speed hits
// both runs of a pair alike, so the pairs can tell what the medians cannot.
func pairs(base, cand summary, better string) (won, lost int) {
	for i := 0; i < len(base.values) && i < len(cand.values); i++ {
		d := cand.values[i] - base.values[i]
		if better == "lower" {
			d = -d
		}
		switch {
		case d > 0:
			won++
		case d < 0:
			lost++
		}
	}
	return won, lost
}

// cmdCompare prints, per workload and end-to-end metric, each file's median,
// quartiles and spread, and labels every later file against the first.
func cmdCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("compare needs a baseline result file and at least one more")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	var files [][]record
	for _, path := range fs.Args() {
		recs, err := readRecords(path)
		if err != nil {
			return err
		}
		files = append(files, recs)
	}
	if err := sameSettings(files); err != nil {
		return err
	}
	regressed := 0
	for _, w := range spec.Workloads {
		fmt.Fprintf(out, "%s\n", w.Name)
		for _, m := range spec.EndToEnd {
			base := summarize(files[0], w.Name, m.Name)
			fmt.Fprintf(out, "  %-16s %-5s better=%-6s bound=%.2f\n", m.Name, m.Unit, m.Better, m.Bound)
			for i, recs := range files {
				s := summarize(recs, w.Name, m.Name)
				line := fmt.Sprintf("    %-28s n=%-3d median %12.3f  q1 %12.3f  q3 %12.3f  spread %6.3f", fs.Arg(i), s.n, s.q2, s.q1, s.q3, s.spread)
				if i > 0 {
					label, worse := verdict(base, s, m.Better, m.Bound)
					won, lost := pairs(base, s, m.Better)
					line += fmt.Sprintf("  worse by %+7.3f  pairs won %d lost %d  %s", worse, won, lost, label)
					if label == "regressed" {
						regressed++
					}
				}
				fmt.Fprintln(out, line)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
