package ctrlplane_test

import (
	"context"
	"testing"
	"time"

	"flexlog/internal/chaos"
	"flexlog/internal/core"
	"flexlog/internal/ctrlplane"
	"flexlog/internal/histcheck"
	"flexlog/internal/types"
)

// TestReconfigUnderLoad floods appends and reads across two colors while
// the control plane concurrently splits one color's shard, drains a
// replica from the other, and grows a third shard's membership — then
// gates the whole run on the linearizability oracle: every acknowledged
// append must be readable at its exact SN, no SN reuse, the final
// subscribe complete and duplicate-free. This is the PR's safety argument
// for epoch-fenced reconfiguration, run under -race in `make verify`.
func TestReconfigUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("reconfig stress skipped in -short mode")
	}
	ccfg := core.TestClusterConfig()
	cl, err := core.TreeCluster(ccfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	colors := []types.ColorID{1, 2}

	ctrl := ctrlplane.New(cl, ctrlplane.Config{
		PollInterval:   time.Millisecond,
		PromoteLag:     256,
		CatchupTimeout: 20 * time.Second,
		DrainTimeout:   10 * time.Second,
	})

	const dur = 1500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	wl, err := chaos.StartWorkload(ctx, cl, chaos.WorkloadConfig{
		Seed:      42,
		Colors:    colors,
		Writers:   3,
		Readers:   2,
		OpTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reconfigure under fire: split color 1, drain a replica of color 2's
	// shard, and widen the split target's sibling — all concurrent with the
	// workload and with each other.
	errs := make(chan error, 3)
	time.Sleep(dur / 4) // let history accumulate first
	go func() {
		_, err := ctrl.SplitShard(1)
		errs <- err
	}()
	go func() {
		sh := cl.Topology().ShardsInRegion(2)[0]
		_, err := ctrl.DrainReplica(sh.ID, 0)
		errs <- err
	}()
	go func() {
		sh := cl.Topology().ShardsInRegion(1)[0]
		_, err := ctrl.AddReplica(sh.ID)
		errs <- err
	}()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Errorf("reconfiguration under load: %v", err)
		}
	}

	<-ctx.Done()
	wl.Wait()
	// Let re-driven commits land before the final read.
	time.Sleep(10 * ccfg.Profile.ReplicaRetry)

	final, err := chaos.CollectFinal(cl, colors)
	if err != nil {
		t.Fatalf("collecting final state: %v", err)
	}
	ops := wl.Recorder().Ops()
	violations := histcheck.Check(ops, final)
	for _, v := range violations {
		t.Errorf("violation: %s", v)
	}
	if len(violations) > 0 {
		t.Fatalf("%d history violations across %d ops", len(violations), len(ops))
	}

	st := wl.Stats()
	if st.Appends == 0 || st.Reads == 0 {
		t.Fatalf("no coverage: %s", st)
	}

	// The topology must reflect all three plans.
	if got := len(cl.Topology().ShardsInRegion(1)); got != 2 {
		t.Errorf("color 1 has %d shards, want 2 after split", got)
	}
	sh2 := cl.Topology().ShardsInRegion(2)[0]
	if got := len(sh2.Replicas); got != ccfg.ReplicationFactor-1 {
		t.Errorf("color 2 shard has %d replicas, want %d after drain", got, ccfg.ReplicationFactor-1)
	}
	t.Logf("ops=%d %s", len(ops), st)
}
