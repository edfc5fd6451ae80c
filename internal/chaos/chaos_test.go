package chaos

import (
	"context"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/ctrlplane"
	"flexlog/internal/histcheck"
	"flexlog/internal/qos"
	"flexlog/internal/types"
)

// defaultSeed is the pinned CI seed; override with FLEXLOG_CHAOS_SEED to
// replay a failing run.
const defaultSeed int64 = 20260805

// aggressorTenant is the identity the noisy-neighbor flood appends
// under; the soak cluster declares it with a tight rate cap so admission
// control and the weighted-fair lanes face the nemeses live.
const aggressorTenant types.TenantID = 9

func soakSeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("FLEXLOG_CHAOS_SEED")
	if env == "" {
		return defaultSeed
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("bad FLEXLOG_CHAOS_SEED %q: %v", env, err)
	}
	return seed
}

func TestScheduleDeterminism(t *testing.T) {
	cfg := GenConfig{
		Duration:  30 * time.Second,
		Replicas:  []types.NodeID{1, 2, 3, 4, 5, 6},
		Colors:    []types.ColorID{1, 2},
		Aggressor: aggressorTenant,
	}
	a := Generate(42, cfg)
	b := Generate(42, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a, b)
	}
	c := Generate(43, cfg)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
	// The shape contract: both lossy windows and at least one structural
	// nemesis of each family over a 30s horizon.
	counts := make(map[EventKind]int)
	for _, ev := range a.Events {
		counts[ev.Kind]++
		if ev.At < 0 || ev.At > cfg.Duration {
			t.Fatalf("event %s outside the run window", ev)
		}
	}
	if counts[EvSetFaults] != 2 || counts[EvClearFaults] != 2 {
		t.Fatalf("want two lossy-link windows, got %d/%d", counts[EvSetFaults], counts[EvClearFaults])
	}
	// Replica crashes come in three flavors (plain, mid-spill,
	// mid-checkpoint); every flavor pairs with the same recover event.
	crashes := counts[EvCrashReplica] + counts[EvCrashMidSpill] + counts[EvCrashMidCkpt]
	if crashes == 0 || crashes != counts[EvRecoverReplica] {
		t.Fatalf("replica crash/recover unpaired: %d/%d", crashes, counts[EvRecoverReplica])
	}
	// The flavor cycle guarantees both tier-lifecycle crash windows are
	// exercised once per schedule (given at least two crash slots).
	if counts[EvCrashMidSpill] != 1 || counts[EvCrashMidCkpt] != 1 {
		t.Fatalf("want one mid-spill and one mid-ckpt crash, got %d/%d",
			counts[EvCrashMidSpill], counts[EvCrashMidCkpt])
	}
	if counts[EvKillLeader] == 0 || counts[EvKillLeader] != counts[EvRestartLeader] {
		t.Fatalf("leader kill/restart unpaired: %d/%d", counts[EvKillLeader], counts[EvRestartLeader])
	}
	if counts[EvPartition] != counts[EvHeal] {
		t.Fatalf("partition/heal unpaired: %d/%d", counts[EvPartition], counts[EvHeal])
	}
	// The QoS nemeses: exactly one slow-replica window and one
	// noisy-neighbor window per schedule, each opened and closed.
	if counts[EvSlowReplica] != 1 || counts[EvSlowHeal] != 1 {
		t.Fatalf("slow-replica window unpaired: %d/%d", counts[EvSlowReplica], counts[EvSlowHeal])
	}
	if counts[EvNoisyStart] != 1 || counts[EvNoisyStop] != 1 {
		t.Fatalf("noisy-neighbor window unpaired: %d/%d", counts[EvNoisyStart], counts[EvNoisyStop])
	}
	for _, ev := range a.Events {
		if ev.Kind == EvNoisyStart && ev.Tenant != aggressorTenant {
			t.Fatalf("noisy-start carries tenant %d, want %d", ev.Tenant, aggressorTenant)
		}
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatal("schedule not sorted by offset")
		}
	}

	// The Reconfig variant adds exactly one split (inside the first
	// partition window) and one drain (during the first leader failover)
	// WITHOUT perturbing the base schedule: stripping the two control-plane
	// events must give back the exact base event list.
	rcfg := cfg
	rcfg.Reconfig = true
	r := Generate(42, rcfg)
	var splits, drains int
	var stripped []Event
	for _, ev := range r.Events {
		switch ev.Kind {
		case EvSplitShard:
			splits++
		case EvDrainReplica:
			drains++
		default:
			stripped = append(stripped, ev)
		}
	}
	if splits != 1 || drains != 1 {
		t.Fatalf("reconfig schedule has %d splits / %d drains, want 1/1", splits, drains)
	}
	if !reflect.DeepEqual(stripped, a.Events) {
		t.Fatal("enabling Reconfig perturbed the base schedule")
	}
	for _, ev := range r.Events {
		if ev.Kind == EvSplitShard || ev.Kind == EvDrainReplica {
			if ev.At < 0 || ev.At > rcfg.Duration {
				t.Fatalf("reconfig event %s outside the run window", ev)
			}
		}
	}
}

// TestChaosSoakShort is the tier-1 smoke soak: a few seconds of seeded
// chaos on every run (including -short), checked by the histcheck oracle.
func TestChaosSoakShort(t *testing.T) {
	dur := 6 * time.Second
	if testing.Short() {
		dur = 3 * time.Second
	}
	runSoak(t, soakSeed(t), dur)
}

// TestChaosSoak is the full acceptance soak (≥30s), gated behind
// FLEXLOG_CHAOS_SOAK=1 so routine test runs stay fast:
//
//	FLEXLOG_CHAOS_SOAK=1 go test -race -run TestChaosSoak ./internal/chaos/
func TestChaosSoak(t *testing.T) {
	if os.Getenv("FLEXLOG_CHAOS_SOAK") == "" {
		t.Skip("set FLEXLOG_CHAOS_SOAK=1 to run the 30s chaos soak")
	}
	dur := 30 * time.Second
	// A numeric value > 1 is a duration in seconds (e.g. =60 for the
	// 60 s write-path acceptance soak).
	if secs, err := strconv.Atoi(os.Getenv("FLEXLOG_CHAOS_SOAK")); err == nil && secs > 1 {
		dur = time.Duration(secs) * time.Second
	}
	runSoak(t, soakSeed(t), dur)
}

func runSoak(t *testing.T, seed int64, dur time.Duration) {
	t.Helper()
	ccfg := core.TestClusterConfig()
	// Damp spurious failovers under the race scheduler: a new leader needs
	// SeqInit acks from ALL region replicas, so a false positive while a
	// replica is crashed stalls the region for the whole crash window.
	ccfg.Profile.FailureTimeout = 100 * time.Millisecond
	// TestClusterConfig runs the full parallel write path (write lane,
	// group commit, order coalescing), so lane parallelism, folded PM
	// windows and batched ordering all face the nemeses together.
	// Run the full tiered-storage lifecycle under chaos: segments small
	// enough that the workload actually fills them, a PM budget tight
	// enough to force background evictions, and frequent checkpoints so
	// the mid-spill/mid-ckpt nemeses land inside real activity.
	ccfg.Storage.SegmentSize = 32 << 10
	ccfg.Storage.PMBudget = 4 * ccfg.Storage.SegmentSize
	ccfg.Storage.CheckpointEvery = 64
	ccfg.Storage.LifecycleInterval = 5 * time.Millisecond
	// Multi-tenant QoS under chaos (DESIGN.md §13): the recorded victim
	// workload runs as the default tenant (never throttled); the
	// EvNoisyStart aggressor floods under a tenant with a tight rate cap,
	// so token-bucket admission, weighted-fair dispatch and the typed
	// backpressure path all face the nemeses while the oracle watches the
	// victim's history.
	ccfg.Tenants = []qos.TenantConfig{
		{ID: types.DefaultTenant, Weight: 4},
		{ID: aggressorTenant, Weight: 1, Rate: 200, Burst: 50},
	}
	cl, err := core.TreeCluster(ccfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	colors := []types.ColorID{1, 2}
	var replicas []types.NodeID
	for _, c := range colors {
		for _, sh := range cl.Topology().ShardsInRegion(c) {
			replicas = append(replicas, sh.Replicas...)
		}
	}

	sched := Generate(seed, GenConfig{Duration: dur, Replicas: replicas, Colors: colors, Aggressor: aggressorTenant, Reconfig: true})
	eng := NewEngine(cl, sched)
	// Arm the control-plane nemeses: the soak now splits a shard inside a
	// partition window and drains a replica during a leader failover, with
	// the same oracle judging the history.
	eng.SetController(ctrlplane.New(cl, ctrlplane.Config{
		PollInterval: 2 * time.Millisecond,
		DrainTimeout: 5 * time.Second,
	}))

	failCtx := func(format string, args ...any) {
		t.Helper()
		t.Logf("replay with FLEXLOG_CHAOS_SEED=%d", seed)
		t.Logf("%s", sched)
		t.Logf("applied nemeses:\n  %s", strings.Join(eng.Applied(), "\n  "))
		t.Fatalf(format, args...)
	}

	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	wl, err := StartWorkload(ctx, cl, WorkloadConfig{
		Seed:        seed,
		Colors:      colors,
		Writers:     2,
		Readers:     2,
		Trims:       true,
		Multi:       true,
		MultiBroker: types.MasterColor,
		OpTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(ctx)
	<-ctx.Done()
	wl.Wait()

	if err := eng.HealAndRecover(replicas, colors, 20*time.Second); err != nil {
		failCtx("%v", err)
	}
	// Let re-driven commits and trim barriers land before the final read.
	time.Sleep(10 * ccfg.Profile.ReplicaRetry)

	final, err := CollectFinal(cl, colors)
	if err != nil {
		failCtx("collecting final state: %v", err)
	}
	ops := wl.Recorder().Ops()
	violations := histcheck.Check(ops, final)
	if len(violations) > 0 {
		for _, v := range violations {
			t.Errorf("violation: %s", v)
		}
		failCtx("%d history violations across %d ops", len(violations), len(ops))
	}

	st := wl.Stats()
	if st.Appends == 0 {
		failCtx("workload acknowledged zero appends — no coverage")
	}
	if st.Reads == 0 {
		failCtx("workload completed zero reads — no coverage")
	}
	t.Logf("seed=%d dur=%s ops=%d %s", seed, dur, len(ops), st)
}
