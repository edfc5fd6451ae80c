package core

import (
	"testing"
	"time"

	"flexlog/internal/types"
)

// TestAppendCoversMemberAddedInFlight: an append resolves its shard's
// membership when it is sent, and a replica that enters the shard before
// the append completes is not in that barrier. The append must still not
// complete until the new member has acknowledged it — acknowledged by the
// old members alone it would be missing on the new one for good, and a
// read served there would return ⊥ for an acked SN. The client's retry
// interval is long, so no retry tick rebuilds the barrier before the old
// members are done: only the check made when the barrier empties can see
// the new member.
func TestAppendCoversMemberAddedInFlight(t *testing.T) {
	t.Run("plain", func(t *testing.T) { testAppendCoversNewMember(t, WithBatching(BatchConfig{MaxBatchRecords: 1})) })
	t.Run("batched", func(t *testing.T) { testAppendCoversNewMember(t) })
}

func testAppendCoversNewMember(t *testing.T, opts ...Option) {
	cl, _ := newSimpleNoFailover(t, 1)
	sh, err := cl.Topology().Shard(1)
	if err != nil {
		t.Fatal(err)
	}
	reps := cl.Replicas(sh.ID)
	slow, leader := reps[2], cl.LeaderOf(types.MasterColor)
	c, err := cl.NewClient(append(opts, retryEvery(600*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}

	// Hold one old member's commit: cut off from the sequencer it persists
	// the append but gets no SN, so it cannot acknowledge yet.
	cl.Network().Partition(slow.ID(), leader.ID())
	type result struct {
		sn  types.SN
		err error
	}
	done := make(chan result, 1)
	go func() {
		sn, err := c.Append([][]byte{[]byte("in-flight")}, types.MasterColor)
		done <- result{sn, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !reps[0].Store().MaxSN(types.MasterColor).Valid() || !reps[1].Store().MaxSN(types.MasterColor).Valid() {
		if time.Now().After(deadline) {
			t.Fatal("the connected members never committed the append")
		}
		time.Sleep(time.Millisecond)
	}

	// The shard grows while the append is in flight; then the held member
	// catches up (its order-request retry) and acknowledges.
	added, err := cl.SpawnReplica(sh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Topology().AddReplicaToShard(sh.ID, added); err != nil {
		t.Fatal(err)
	}
	cl.Network().Heal(slow.ID(), leader.ID())

	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("append: %v", res.err)
		}
		got, err := cl.Replica(added).Store().Get(types.MasterColor, res.sn)
		if err != nil || string(got) != "in-flight" {
			t.Fatalf("append acknowledged at %v, but the member added in flight holds %q, %v", res.sn, got, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append never completed")
	}
}

// TestReplayCoversMemberAddedInFlight: a broker replica replays a
// multi-append set into its target shard with the same barrier a client's
// append has, so a replica promoted into the target shard while the replay
// waits must acknowledge before the replay, and with it the multi-append,
// completes — and then holds the record. The promoted member is cut off
// from the sequencer until every old member has acknowledged, so only a
// barrier that covers it can tell.
func TestReplayCoversMemberAddedInFlight(t *testing.T) {
	cfg := TestClusterConfig()
	cfg.Profile.FailureTimeout = 30 * time.Second
	cl, err := TreeCluster(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	target := cl.Topology().ShardsInRegion(1)[0]
	reps := cl.Replicas(target.ID)
	slow, leader := reps[2], cl.LeaderOf(1).ID()

	cl.Network().Partition(slow.ID(), leader)
	done := make(chan error, 1)
	go func() { done <- c.MultiAppend([][][]byte{{[]byte("promoted")}}, []types.ColorID{1}, 2) }()
	eventually(t, "the connected members to commit the replay", func() bool {
		return reps[0].Store().MaxSN(1).Valid() && reps[1].Store().MaxSN(1).Valid()
	})
	added, err := cl.SpawnReplica(target.ID)
	if err != nil {
		t.Fatal(err)
	}
	cl.Network().Partition(added, leader)
	if err := cl.Topology().AddReplicaToShard(target.ID, added); err != nil {
		t.Fatal(err)
	}
	cl.Network().Heal(slow.ID(), leader)
	eventually(t, "the held old member to commit the replay", func() bool { return slow.Store().MaxSN(1).Valid() })
	select {
	case err := <-done:
		t.Fatalf("multi-append completed (%v) before the member promoted in flight acknowledged", err)
	case <-time.After(20 * cfg.Profile.ReplicaRetry):
	}

	cl.Network().Heal(added, leader)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("multi-append: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("multi-append never completed")
	}
	sn := reps[0].Store().MaxSN(1)
	if got, err := cl.Replica(added).Store().Get(1, sn); err != nil || string(got) != "promoted" {
		t.Fatalf("replay acknowledged at %v, but the member promoted in flight holds %q, %v", sn, got, err)
	}
}
