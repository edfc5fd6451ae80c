package ctrlplane_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/ctrlplane"
	"flexlog/internal/obs"
	"flexlog/internal/topology"
	"flexlog/internal/types"
)

func newCluster(t *testing.T, shards int) *core.Cluster {
	t.Helper()
	cl, err := core.SimpleCluster(core.TestClusterConfig(), shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

func newController(cl ctrlplane.Cluster, reg *obs.Registry) *ctrlplane.Controller {
	return ctrlplane.New(cl, ctrlplane.Config{
		PollInterval:   time.Millisecond,
		PromoteLag:     64,
		CatchupTimeout: 10 * time.Second,
		DrainTimeout:   5 * time.Second,
		Obs:            reg,
	})
}

// appendN issues n appends of per records each and returns the SN of every
// record appended.
func appendN(t *testing.T, c *core.Client, color types.ColorID, n, per int) []types.SN {
	t.Helper()
	sns := make([]types.SN, 0, n*per)
	for i := 0; i < n; i++ {
		records := make([][]byte, per)
		for j := range records {
			records[j] = []byte(fmt.Sprintf("rec-%d-%d.%d", color, i, j))
		}
		last, err := c.Append(records, color)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		for j := per - 1; j >= 0; j-- {
			sns = append(sns, last-types.SN(j))
		}
	}
	return sns
}

// scanLog returns the replica's committed log of the master color.
func scanLog(t *testing.T, cl *core.Cluster, id types.NodeID) []types.Record {
	t.Helper()
	recs, err := cl.Replica(id).Store().Scan(types.MasterColor)
	if err != nil {
		t.Fatalf("scanning replica %d: %v", id, err)
	}
	return recs
}

// sameRecords fails unless got is want, record for record.
func sameRecords(t *testing.T, what string, got, want []types.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s holds %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].SN != want[i].SN || got[i].Token != want[i].Token || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("%s record %d = %v %q, want %v %q", what, i, got[i].SN, got[i].Data, want[i].SN, want[i].Data)
		}
	}
}

// perAppend runs a test with single-record appends and with 3-record
// appends, each append its own batch, and with 3-record appends that the
// client coalesces (the default tuning): catch-up moves append batches,
// and a batch of one hides every way of getting that wrong.
func perAppend(t *testing.T, test func(t *testing.T, per int, opts ...core.Option)) {
	alone := core.WithBatching(core.BatchConfig{MaxBatchBytes: 1})
	t.Run("1-per-append", func(t *testing.T) { test(t, 1, alone) })
	t.Run("3-per-append", func(t *testing.T) { test(t, 3, alone) })
	t.Run("3-per-append-batched", func(t *testing.T) { test(t, 3) })
}

func TestAddReplicaCatchesUpAndPromotes(t *testing.T) { perAppend(t, testAddReplica) }

func testAddReplica(t *testing.T, per int, opts ...core.Option) {
	cl := newCluster(t, 1)
	c, err := cl.NewClient(opts...)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, c, types.MasterColor, 200, per)

	ctrl := newController(cl, nil)
	sh := cl.Topology().Snapshot().Shards[0]
	before := len(sh.Replicas)

	plan, err := ctrl.AddReplica(sh.ID)
	if err != nil {
		t.Fatalf("AddReplica: %v (plan %v)", err, plan)
	}
	if plan.State != ctrlplane.StateDone {
		t.Fatalf("plan state = %v, want done", plan.State)
	}
	after, err := cl.Topology().Shard(sh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Replicas) != before+1 {
		t.Fatalf("shard has %d replicas, want %d", len(after.Replicas), before+1)
	}

	// The promoted replica must hold the full committed history: the
	// donor's log, record for record.
	if cl.Replica(plan.Node) == nil {
		t.Fatal("joined replica not found")
	}
	sameRecords(t, "joined replica", scanLog(t, cl, plan.Node), scanLog(t, cl, plan.Donor))

	// And the widened shard keeps serving appends: the client — a batching
	// one too, whose per-shard batcher predates the promotion — needs acks
	// from ALL members, so the new one holds these as well.
	appendN(t, c, types.MasterColor, 20, per)
	sameRecords(t, "joined replica after new appends", scanLog(t, cl, plan.Node), scanLog(t, cl, plan.Donor))
}

func TestDrainReplicaFlushesAndRemoves(t *testing.T) {
	cl := newCluster(t, 1)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, c, types.MasterColor, 50, 1)

	ctrl := newController(cl, nil)
	sh := cl.Topology().Snapshot().Shards[0]
	before := len(sh.Replicas)

	plan, err := ctrl.DrainReplica(sh.ID, 0)
	if err != nil {
		t.Fatalf("DrainReplica: %v (plan %v)", err, plan)
	}
	after, err := cl.Topology().Shard(sh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Replicas) != before-1 {
		t.Fatalf("shard has %d replicas, want %d", len(after.Replicas), before-1)
	}
	if cl.Replica(plan.Node) != nil {
		t.Fatalf("drained replica %d still registered", plan.Node)
	}
	// Acked history survives on the remaining members.
	sns := appendN(t, c, types.MasterColor, 20, 1)
	if _, err := c.Read(sns[len(sns)-1], types.MasterColor); err != nil {
		t.Fatalf("read after drain: %v", err)
	}
}

func TestDrainLastReplicaRefused(t *testing.T) {
	cl := newCluster(t, 1)
	ctrl := newController(cl, nil)
	sh := cl.Topology().Snapshot().Shards[0]
	for i := 0; i < len(sh.Replicas)-1; i++ {
		if _, err := ctrl.DrainReplica(sh.ID, 0); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if _, err := ctrl.DrainReplica(sh.ID, 0); err == nil {
		t.Fatal("draining the last replica should fail")
	}
}

func TestSplitShardKeepsHistoryReadable(t *testing.T) {
	cl := newCluster(t, 1)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	pre := appendN(t, c, types.MasterColor, 30, 1)

	ctrl := newController(cl, nil)
	plan, err := ctrl.SplitShard(types.MasterColor)
	if err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	if plan.State != ctrlplane.StateDone || plan.Target == 0 {
		t.Fatalf("plan = %v", plan)
	}
	if got := len(cl.Topology().ShardsInRegion(types.MasterColor)); got != 2 {
		t.Fatalf("%d shards after split, want 2", got)
	}
	// Old records remain readable (reads consult every shard) and new
	// appends land somewhere.
	for _, sn := range pre {
		if _, err := c.Read(sn, types.MasterColor); err != nil {
			t.Fatalf("read %v after split: %v", sn, err)
		}
	}
	appendN(t, c, types.MasterColor, 30, 1)
}

// sumSamples sums every instance of a counter or gauge family.
func sumSamples(reg *obs.Registry, name string) float64 {
	var sum float64
	for _, s := range reg.Samples(name) {
		sum += s.Value
	}
	return sum
}

func TestPlanObservabilityAndHistory(t *testing.T) {
	cl := newCluster(t, 1)
	reg := obs.NewRegistry()
	ctrl := newController(cl, reg)
	if _, err := ctrl.SplitShard(types.MasterColor); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.SplitShard(99); err == nil { // unknown leaf
		t.Fatal("split of unknown leaf should fail")
	}
	plans := ctrl.Plans()
	if len(plans) != 2 {
		t.Fatalf("%d plans, want 2", len(plans))
	}
	if plans[0].State != ctrlplane.StateDone || plans[1].State != ctrlplane.StateFailed {
		t.Fatalf("plan states = %v, %v", plans[0].State, plans[1].State)
	}
	if got := sumSamples(reg, "flexlog_ctrl_plans_total"); got != 2 {
		t.Fatalf("plans_total = %v, want 2", got)
	}
	if got := sumSamples(reg, "flexlog_ctrl_plans_done_total"); got != 1 {
		t.Fatalf("plans_done_total = %v, want 1", got)
	}
	if got := sumSamples(reg, "flexlog_ctrl_plans_failed_total"); got != 1 {
		t.Fatalf("plans_failed_total = %v, want 1", got)
	}
	if got := sumSamples(reg, "flexlog_ctrl_plans_active"); got != 0 {
		t.Fatalf("plans_active = %v, want 0", got)
	}
}

func TestTopologyHandler(t *testing.T) {
	cl := newCluster(t, 2)
	ctrl := newController(cl, nil)
	if _, err := ctrl.SplitShard(types.MasterColor); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	ctrlplane.TopologyHandler(ctrl).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/topology", nil))
	body := rec.Body.String()
	for _, want := range []string{"topology version", "SHARD", "split-shard", "state=done"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/topology missing %q:\n%s", want, body)
		}
	}
}

func TestAutoscalerPolicy(t *testing.T) {
	cl := newCluster(t, 1)
	ctrl := newController(cl, nil)
	node := cl.Topology().Snapshot().Shards[0].Replicas[0]

	// A private registry with a synthetic backlog gauge stands in for a
	// write-saturated replica.
	reg := obs.NewRegistry()
	backlog := 0.0
	reg.GaugeFunc("flexlog_replica_pending_orders", "test", obs.Labels{"node": fmt.Sprintf("%d", node)},
		func() float64 { return backlog })

	as := ctrlplane.NewAutoscaler(ctrl, reg, ctrlplane.Policy{
		MaxPendingOrders: 100,
		Advisory:         true,
	}, time.Hour)

	if adv := as.Evaluate(); adv != nil {
		t.Fatalf("advice below threshold: %+v", adv)
	}
	backlog = 500
	adv := as.Evaluate()
	if adv == nil {
		t.Fatal("no advice above threshold")
	}
	if adv.Kind != ctrlplane.KindSplitShard {
		t.Fatalf("advice kind = %v, want split-shard (leaf below shard cap)", adv.Kind)
	}
	if adv.Executed {
		t.Fatal("advisory mode must not execute")
	}
	if got := len(cl.Topology().ShardsInRegion(types.MasterColor)); got != 1 {
		t.Fatalf("advisory mode split the shard: %d shards", got)
	}
	if got := sumSamples(reg, "flexlog_ctrl_autoscale_evals_total"); got != 2 {
		t.Fatalf("evals_total = %v, want 2", got)
	}
	if got := sumSamples(reg, "flexlog_ctrl_autoscale_actions_total"); got != 1 {
		t.Fatalf("actions_total = %v, want 1", got)
	}
}

func TestAutoscalerExecutesSplit(t *testing.T) {
	cl := newCluster(t, 1)
	ctrl := newController(cl, nil)
	node := cl.Topology().Snapshot().Shards[0].Replicas[0]
	reg := obs.NewRegistry()
	reg.GaugeFunc("flexlog_replica_pending_orders", "test", obs.Labels{"node": fmt.Sprintf("%d", node)},
		func() float64 { return 1000 })
	as := ctrlplane.NewAutoscaler(ctrl, reg, ctrlplane.Policy{MaxPendingOrders: 100}, time.Hour)

	adv := as.Evaluate()
	if adv == nil || !adv.Executed {
		t.Fatalf("expected executed advice, got %+v", adv)
	}
	if got := len(cl.Topology().ShardsInRegion(types.MasterColor)); got != 2 {
		t.Fatalf("%d shards after autoscale, want 2", got)
	}
	// Cooldown: the still-breaching gauge must not trigger a second action.
	if adv := as.Evaluate(); adv != nil {
		t.Fatalf("action during cooldown: %+v", adv)
	}
}

// TestAutoscalerStopsAtCaps: a saturated shard is split while its leaf
// holds fewer than four shards, widened while it holds fewer than five
// replicas, and left alone at both caps.
func TestAutoscalerStopsAtCaps(t *testing.T) {
	for _, tc := range []struct {
		shards, replicas int
		want             ctrlplane.PlanKind
		advise           bool
	}{
		{3, 5, ctrlplane.KindSplitShard, true},
		{4, 4, ctrlplane.KindAddReplica, true},
		{4, 5, 0, false},
	} {
		topo := topology.New()
		if err := topo.AddRegion(types.MasterColor, types.MasterColor, 900, nil); err != nil {
			t.Fatal(err)
		}
		for s := 1; s <= tc.shards; s++ {
			var replicas []types.NodeID
			for r := 0; r < tc.replicas; r++ {
				replicas = append(replicas, types.NodeID(10*s+r))
			}
			if err := topo.AddShard(types.ShardID(s), types.MasterColor, replicas); err != nil {
				t.Fatal(err)
			}
		}
		reg := obs.NewRegistry()
		reg.GaugeFunc("flexlog_replica_pending_orders", "test", obs.Labels{"node": "10"}, func() float64 { return 1000 })
		ctrl := ctrlplane.New(&ctrlplane.Static{Topo: topo}, ctrlplane.Config{})
		adv := ctrlplane.NewAutoscaler(ctrl, reg, ctrlplane.Policy{MaxPendingOrders: 100, Advisory: true}, time.Hour).Evaluate()
		if (adv != nil) != tc.advise || adv != nil && adv.Kind != tc.want {
			t.Errorf("%d shards of %d replicas: advice %+v, want %v (advise %v)", tc.shards, tc.replicas, adv, tc.want, tc.advise)
		}
	}
}

// TestAddReplicaRollsBackWhenPromotionDoesNotConverge: a joiner whose
// promotion sync-phase cannot finish (here: it cannot reach one member)
// must not stay in the membership — every append to the shard would wait
// for the ack of a replica that never leaves ModeSyncing. The plan ends
// RolledBack, the old membership is back, and the shard accepts appends.
func TestAddReplicaRollsBackWhenPromotionDoesNotConverge(t *testing.T) {
	cl := newCluster(t, 1)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, c, types.MasterColor, 50, 1)
	sh := cl.Topology().Snapshot().Shards[0]

	// Node ids are handed out in order, so the joiner will be the next
	// one: cut it off from a member that is not its donor (the first).
	joiner := slices.Max(sh.Replicas) + 1
	cl.Network().Partition(joiner, sh.Replicas[1])

	ctrl := ctrlplane.New(cl, ctrlplane.Config{
		PollInterval:    time.Millisecond,
		CatchupTimeout:  10 * time.Second,
		ConvergeTimeout: 300 * time.Millisecond,
	})
	plan, err := ctrl.AddReplica(sh.ID)
	if plan.Node != joiner {
		t.Fatalf("joiner is node %d, the test cut off node %d", plan.Node, joiner)
	}
	if err == nil || plan.State != ctrlplane.StateRolledBack {
		t.Fatalf("plan = %v, err = %v; want rolled-back", &plan, err)
	}
	after, err := cl.Topology().Shard(sh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after.Replicas, sh.Replicas) {
		t.Fatalf("membership after rollback = %v, want %v", after.Replicas, sh.Replicas)
	}
	if cl.Replica(plan.Node) != nil {
		t.Fatalf("rolled-back joiner %d still registered", plan.Node)
	}
	quick, err := cl.NewClient(core.WithTimeout(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, quick, types.MasterColor, 5, 1)
}
