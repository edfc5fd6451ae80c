package seq

import (
	"testing"
	"time"

	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// failoverCluster builds a root sequencer group {100 leader, 101, 102
// backups} over region 0 with shard 1 = replicas {1,2,3}.
func failoverCluster(t *testing.T) (*transport.Network, map[types.NodeID]*Sequencer, []*fakeReplica) {
	t.Helper()
	net := transport.NewNetwork(transport.ZeroLink())
	topo := topology.New()
	if err := topo.AddRegion(0, 0, 100, []types.NodeID{101, 102}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddShard(1, 0, []types.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var reps []*fakeReplica
	for _, id := range []types.NodeID{1, 2, 3} {
		reps = append(reps, newFakeReplica(t, net, id))
	}
	group := make(map[types.NodeID]*Sequencer)
	for _, id := range []types.NodeID{100, 101, 102} {
		cfg := testConfig(id, 0, topo)
		cfg.StartAsLeader = id == 100
		s, err := New(cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		group[id] = s
		t.Cleanup(s.Stop)
	}
	return net, group, reps
}

func TestBackupsStayPassive(t *testing.T) {
	_, group, reps := failoverCluster(t)
	time.Sleep(30 * time.Millisecond) // several heartbeat rounds
	if group[100].Role() != RoleLeader || !group[100].Serving() {
		t.Fatal("initial leader lost leadership without failure")
	}
	if group[101].Role() != RoleBackup || group[102].Role() != RoleBackup {
		t.Fatal("backups left passive role without failure")
	}
	// Requests still served by the leader.
	reps[0].ep.Send(100, orderReq(1, 0, 1))
	r := reps[0]
	waitUntil(t, time.Second, func() bool { return len(r.responses()) == 1 }, "request served")
}

func TestFailoverElectsHighestBackup(t *testing.T) {
	net, group, reps := failoverCluster(t)
	// Kill the leader.
	group[100].Crash()
	net.Isolate(100)

	// The highest-id backup (102) must take over.
	waitUntil(t, 5*time.Second, func() bool {
		return group[102].Role() == RoleLeader && group[102].Serving()
	}, "backup 102 becomes serving leader")
	if group[101].Role() != RoleBackup {
		t.Fatalf("node 101 role = %v, want backup", group[101].Role())
	}
	if e := group[102].Epoch(); e < 2 {
		t.Fatalf("new leader epoch = %d, want >= 2", e)
	}
	// Replicas were initialized by the new leader.
	reps[0].mu.Lock()
	inits := len(reps[0].inits)
	reps[0].mu.Unlock()
	if inits == 0 {
		t.Fatal("replicas never received SeqInit")
	}

	// New SNs come from the new epoch and exceed all epoch-1 SNs.
	reps[0].ep.Send(102, orderReq(1, 0, 1))
	r := reps[0]
	waitUntil(t, time.Second, func() bool { return len(r.responses()) == 1 }, "post-failover request")
	sn := r.responses()[0].LastSN
	if sn.Epoch() < 2 {
		t.Fatalf("post-failover SN epoch = %d", sn.Epoch())
	}
	if sn <= types.MakeSN(1, ^uint32(0)) {
		t.Fatalf("post-failover SN %v not above every epoch-1 SN", sn)
	}
	// Topology routing updated.
	if l, _ := group[102].topo.Leader(0); l != 102 {
		t.Fatalf("topology leader = %v", l)
	}
}

func TestPartitionedLeaderStandsDown(t *testing.T) {
	net, group, _ := failoverCluster(t)
	// Let the leader see some acks first.
	time.Sleep(15 * time.Millisecond)
	// Partition the leader away from both backups (it can still reach the
	// replicas): it must stop serving to avoid split brain.
	net.Partition(100, 101)
	net.Partition(100, 102)
	waitUntil(t, 5*time.Second, func() bool {
		return group[100].Role() != RoleLeader || !group[100].Serving()
	}, "old leader stands down")
	// Backups elect a new leader among themselves.
	waitUntil(t, 5*time.Second, func() bool {
		return group[102].Role() == RoleLeader && group[102].Serving()
	}, "partition-side election")
	// Heal: the old leader rejoins as a backup and adopts the new epoch.
	net.HealAll()
	waitUntil(t, 5*time.Second, func() bool {
		return group[100].Role() == RoleBackup && group[100].Epoch() >= group[102].Epoch()
	}, "old leader rejoins as backup")
	if group[102].Role() != RoleLeader {
		t.Fatal("healing demoted the new leader")
	}
}

// TestStalledPartitionedLeaderStandsDownOnFirstTick: a leader cut off
// from its backups and descheduled for longer than FailureTimeout stands
// down on its first tick after resuming (§5.2: an old sequencer shuts
// down once it stops hearing from a majority), since a successor may
// already be running SeqInit. The stall is the tick's timestamp.
func TestStalledPartitionedLeaderStandsDownOnFirstTick(t *testing.T) {
	net, group, _ := failoverCluster(t)
	l := group[100]
	waitUntil(t, 5*time.Second, func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.serving && len(l.hbAcks) == 2
	}, "leader serving with acks from both backups")
	net.Partition(100, 101)
	net.Partition(100, 102)
	l.leaderTick(time.Now().Add(2*l.cfg.FailureTimeout), l.Epoch())
	if l.Role() != RoleBackup || l.Serving() {
		t.Fatalf("stalled partitioned leader still %v (serving %v) after its first tick", l.Role(), l.Serving())
	}
}

func TestEpochGrantedAtMostOnce(t *testing.T) {
	// Two concurrent claimants for the same epoch: only one can win it.
	net := transport.NewNetwork(transport.ZeroLink())
	topo := topology.New()
	topo.AddRegion(0, 0, 100, []types.NodeID{101, 102})
	cfgA := testConfig(101, 0, topo)
	cfgA.StartAsLeader = false
	cfgB := testConfig(102, 0, topo)
	cfgB.StartAsLeader = false
	// Node 100 never starts: the backups must sort leadership among
	// themselves (quorum of 2 within the 3-member group).
	a, _ := New(cfgA, net)
	b, _ := New(cfgB, net)
	t.Cleanup(func() { a.Stop(); b.Stop() })
	waitUntil(t, 5*time.Second, func() bool {
		ra, rb := a.Role() == RoleLeader && a.Serving(), b.Role() == RoleLeader && b.Serving()
		return (ra || rb) && !(ra && rb)
	}, "exactly one leader")
	// And they agree on the epoch eventually.
	waitUntil(t, 5*time.Second, func() bool {
		return a.Epoch() == b.Epoch() || a.Role() != RoleLeader || b.Role() != RoleLeader
	}, "epoch agreement")
}

func TestSecondFailover(t *testing.T) {
	net, group, reps := failoverCluster(t)
	group[100].Crash()
	net.Isolate(100)
	waitUntil(t, 5*time.Second, func() bool {
		return group[102].Role() == RoleLeader && group[102].Serving()
	}, "first failover")
	// Both backups may transiently claim successive epochs; wait until the
	// loser has stood down so exactly one leader remains.
	waitUntil(t, 5*time.Second, func() bool {
		return group[101].Role() == RoleBackup
	}, "roles settled after first failover")
	e1 := group[102].Epoch()

	group[102].Crash()
	net.Isolate(102)
	// 101 is the only backup left; group majority is 2 of 3, so 101 alone
	// cannot win — heal 100 back in (crash-recovery of the old leader as a
	// group member process).
	net.Rejoin(100)
	cfg := testConfig(100, 0, group[101].topo)
	cfg.StartAsLeader = false
	net.Deregister(100)
	restarted, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restarted.Stop)
	waitUntil(t, 5*time.Second, func() bool {
		return (group[101].Role() == RoleLeader && group[101].Serving()) ||
			(restarted.Role() == RoleLeader && restarted.Serving())
	}, "second failover")

	// SNs issued under the new leadership carry a higher epoch.
	leaderID := types.NodeID(101)
	leader := group[101]
	if restarted.Role() == RoleLeader {
		leaderID, leader = 100, restarted
	}
	if leader.Epoch() <= e1 {
		t.Fatalf("second failover epoch %d not above %d", leader.Epoch(), e1)
	}
	reps[1].ep.Send(leaderID, orderReq(7, 0, 1))
	r := reps[1]
	waitUntil(t, time.Second, func() bool { return len(r.responses()) >= 1 }, "request after second failover")
}
