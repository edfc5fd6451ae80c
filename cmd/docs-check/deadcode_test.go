package main

import (
	"slices"
	"strings"
	"testing"
)

// names strips the position from report lines ("file:line:col: name").
func names(lines []string) []string {
	var out []string
	for _, l := range lines {
		out = append(out, l[strings.LastIndex(l, " ")+1:])
	}
	return out
}

// TestDeadcode runs the gate over testdata/deadmod, whose internal/lib
// declares one name per case.
func TestDeadcode(t *testing.T) {
	rep, err := checkDeadcode("testdata/deadmod", "benchmark", map[string]string{
		"internal/lib.Allowed":    "kept on purpose",
		"internal/lib.Unreasoned": " ",
		"internal/lib.Used":       "has a caller",
		"internal/lib.Missing":    "declared nowhere",
	})
	if err != nil {
		t.Fatal(err)
	}
	dead := names(rep.Dead)
	for _, want := range []string{
		"internal/lib.OnlyTested",         // used only by its own package's test
		"internal/lib.Config.OnlyTestSet", // a config field set only in a test
		"internal/lib.Config.ReadOnly",    // a config field read but never set
	} {
		if !slices.Contains(dead, want) {
			t.Errorf("%s is not reported dead; dead: %v", want, dead)
		}
	}
	if len(dead) != 3 {
		t.Errorf("dead = %v, want exactly the three above", dead)
	}
	if bench := names(rep.Bench); !slices.Equal(bench, []string{"internal/lib.BenchOnly"}) {
		t.Errorf("benchmark-only names = %v, want [internal/lib.BenchOnly]", bench)
	}
	var stale []string
	for _, s := range rep.Stale {
		stale = append(stale, s[:strings.Index(s, ":")])
	}
	if want := []string{"internal/lib.Missing", "internal/lib.Unreasoned", "internal/lib.Used"}; !slices.Equal(stale, want) {
		t.Errorf("stale allowlist entries = %v, want %v", rep.Stale, want)
	}
}
