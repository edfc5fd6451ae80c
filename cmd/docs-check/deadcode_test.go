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
		"internal/lib.Allowed":    "test support: kept on purpose",
		"internal/lib.Unreasoned": " ",
		"internal/lib.Untyped":    "kept on purpose",
		"internal/lib.Used":       "paper API: has a caller",
		"internal/lib.Missing":    "paper API: declared nowhere",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.Config.OnlyTestSet", // a config field set only in a test
		"internal/lib.Config.ReadOnly",    // a config field read but never set
		"internal/lib.Engine.hits",        // an unexported counter written, never read
		"internal/lib.OnlyTested",         // used only by its own package's test
		"internal/lib.Policy.Cap",         // filled only by withDefaults
		"internal/lib.Profile.Window",     // a keyed default only one constructor gives
	}
	// Not dead: ClientConfig.Tenant (set by an option closure),
	// Profile.Rate (two constructors give it different values), the fields
	// of key (a map key) and version (compared whole), and stripe.m (read
	// through the alias intStripe).
	dead := names(rep.Dead)
	slices.Sort(dead)
	if !slices.Equal(dead, want) {
		t.Errorf("dead = %v, want %v", dead, want)
	}
	if bench := names(rep.Bench); !slices.Equal(bench, []string{"internal/lib.BenchOnly"}) {
		t.Errorf("benchmark-only names = %v, want [internal/lib.BenchOnly]", bench)
	}
	var stale []string
	for _, s := range rep.Stale {
		stale = append(stale, s[:strings.Index(s, ":")])
	}
	if want := []string{"internal/lib.Missing", "internal/lib.Unreasoned", "internal/lib.Untyped", "internal/lib.Used"}; !slices.Equal(stale, want) {
		t.Errorf("stale allowlist entries = %v, want %v", rep.Stale, want)
	}
	// Config's three fields, Policy.Cap, Profile's two, ClientConfig.Tenant.
	if rep.Options != 7 {
		t.Errorf("options = %d, want 7", rep.Options)
	}
}
