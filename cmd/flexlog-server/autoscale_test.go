package main

import (
	"testing"

	"flexlog/internal/ctrlplane"
	"flexlog/internal/deploy"
	"flexlog/internal/obs"
)

// TestAdvisorAdvisesOncePerCooldown evaluates the server's advisory policy
// against a registry in which replica 1 of the example manifest publishes
// an order backlog of 2048: one advice to split its shard, naming the
// threshold, and none while the cooldown runs.
func TestAdvisorAdvisesOncePerCooldown(t *testing.T) {
	topo, err := deploy.Example().Topology()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.GaugeFunc("flexlog_replica_pending_orders", "test", obs.Labels{"node": "1"}, func() float64 { return 2048 })
	as := newAdvisor(ctrlplane.New(&ctrlplane.Static{Topo: topo}, ctrlplane.Config{}), reg)

	adv := as.Evaluate()
	if adv == nil {
		t.Fatal("no advice for a backlog of 2048")
	}
	if adv.Kind != ctrlplane.KindSplitShard || adv.Shard != 1 || adv.Executed || adv.Reason != "pending orders 2048 > 1024" {
		t.Fatalf("advice = %+v, want an unexecuted split of shard 1 for pending orders 2048 > 1024", adv)
	}
	for i := 0; i < 3; i++ {
		if adv := as.Evaluate(); adv != nil {
			t.Fatalf("advice within the cooldown: %+v", adv)
		}
	}
}
