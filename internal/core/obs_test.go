package core

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/types"
)

// buildObsCluster deploys a small observed cluster and exercises every
// path that registers metrics: appends (batch + direct), reads, a trim,
// and a registry scrape — the union of what a real deployment exposes.
func buildObsCluster(t *testing.T) *Cluster {
	t.Helper()
	reg := obs.NewRegistry()
	obs.RegisterProcess(reg)
	cfg := TestClusterConfig()
	cfg.Obs = reg
	cfg.TraceSlow = time.Nanosecond // everything is "slow": exercise the ring
	cl, err := SimpleCluster(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("append")
	ctx := obs.WithTrace(context.Background(), tr)
	var lastSN types.SN
	for i := 0; i < 20; i++ {
		sn, err := c.AppendCtx(ctx, [][]byte{[]byte("obs")}, types.MasterColor)
		if err != nil {
			t.Fatal(err)
		}
		lastSN = sn
	}
	tr.Finish()
	if _, err := c.ReadCtx(context.Background(), lastSN, types.MasterColor); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Trim(0, types.MasterColor); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestOperationsDocCoversMetrics is the doc-drift gate of OPERATIONS.md:
// every metric family a full deployment registers must appear by name in
// the operator handbook. Adding a metric without documenting it fails
// here.
func TestOperationsDocCoversMetrics(t *testing.T) {
	reg := buildObsCluster(t).Obs()
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading OPERATIONS.md: %v", err)
	}
	fams := reg.Families()
	if len(fams) < 40 {
		t.Fatalf("only %d metric families registered; the cluster exercise lost coverage", len(fams))
	}
	var missing []string
	for _, name := range fams {
		if !strings.Contains(string(doc), name) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("OPERATIONS.md does not document %d metric families:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// TestClusterObsEndToEnd checks the observed cluster's exposition and
// debug surfaces carry real data: counters moved, stage histograms
// recorded, lanes visible, and a slow append shows its per-stage
// breakdown in some replica's trace ring.
func TestClusterObsEndToEnd(t *testing.T) {
	reg := buildObsCluster(t).Obs()
	snap := reg.Snapshot()
	for _, want := range []string{
		"flexlog_replica_appends_total",
		"flexlog_replica_commits_total",
		"flexlog_seq_assigned_total",
		"flexlog_store_cache_hits_total",
		"flexlog_pm_ops_total",
		"flexlog_net_delivered_total",
		"flexlog_trace_total_seconds",
		`flexlog_trace_stage_seconds{node=`,
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("exposition is missing %s", want)
		}
	}
}

// TestDebugLanesListsEveryNode scrapes /debug/lanes of an exercised
// cluster: every node that sizes a lane has its row — a replica's read
// and write lanes, a sequencer's order lane — the rows that carried the
// appends and the read counted them, and no depth is a wrapped counter.
func TestDebugLanesListsEveryNode(t *testing.T) {
	cl := buildObsCluster(t)
	srv := httptest.NewServer(obs.NewMux(cl.MuxConfig()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/lanes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	busiest := map[string]uint64{} // lane name → highest ENQUEUED of any node
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) != 9 {
			t.Fatalf("lane row has %d columns, want 9: %q", len(f), line)
		}
		enq, _ := strconv.ParseUint(f[2], 10, 64)
		depth, err := strconv.ParseUint(f[4], 10, 64)
		if err != nil || depth > 1<<20 {
			t.Errorf("implausible DEPTH in lane row %q", line)
		}
		busiest[f[1]] = max(busiest[f[1]], enq)
	}
	for _, lane := range []string{"read", "write", "order"} {
		if busiest[lane] == 0 {
			t.Errorf("no %q lane row with traffic on /debug/lanes:\n%s", lane, body)
		}
	}
}
