package topology

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"flexlog/internal/types"
)

// buildTree creates the paper's Figure 2 layout:
//
//	color 0 (root, Seq#0)
//	├── color 1 (Seq#1) — shard 1, shard 2
//	└── color 2 (Seq#2) — shard 3
func buildTree(t *testing.T) *Topology {
	t.Helper()
	topo := New()
	if err := topo.AddRegion(0, 0, 100, []types.NodeID{101, 102}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddRegion(1, 0, 110, []types.NodeID{111, 112}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddRegion(2, 0, 120, []types.NodeID{121, 122}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddShard(1, 1, []types.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddShard(2, 1, []types.NodeID{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddShard(3, 2, []types.NodeID{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestAddRegionValidation(t *testing.T) {
	topo := New()
	if err := topo.AddRegion(0, 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddRegion(0, 0, 1, nil); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate region: %v", err)
	}
	if err := topo.AddRegion(5, 9, 1, nil); !errors.Is(err, ErrUnknownColor) {
		t.Errorf("unknown parent: %v", err)
	}
	if err := topo.AddRegion(5, 5, 1, nil); err == nil {
		t.Error("self-parent should be rejected")
	}
}

func TestAddShardValidation(t *testing.T) {
	topo := buildTree(t)
	if err := topo.AddShard(1, 1, nil); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate shard: %v", err)
	}
	if err := topo.AddShard(9, 42, nil); !errors.Is(err, ErrUnknownColor) {
		t.Errorf("unknown leaf: %v", err)
	}
}

func TestSequencerAndLeader(t *testing.T) {
	topo := buildTree(t)
	si, err := topo.Sequencer(1)
	if err != nil || si.Leader != 110 || len(si.Backups) != 2 {
		t.Fatalf("sequencer(1) = %+v, %v", si, err)
	}
	if _, err := topo.Sequencer(42); !errors.Is(err, ErrUnknownColor) {
		t.Fatalf("unknown sequencer: %v", err)
	}
	if err := topo.SetLeader(1, 111); err != nil {
		t.Fatal(err)
	}
	if l, _ := topo.Leader(1); l != 111 {
		t.Fatalf("leader after SetLeader = %v", l)
	}
	if err := topo.SetLeader(42, 1); err == nil {
		t.Fatal("SetLeader on unknown color should fail")
	}
	if _, err := topo.Leader(42); err == nil {
		t.Fatal("Leader of unknown color should fail")
	}
}

func TestParentAndRoot(t *testing.T) {
	topo := buildTree(t)
	p, has, err := topo.Parent(1)
	if err != nil || !has || p != 0 {
		t.Fatalf("parent(1) = %v, %v, %v", p, has, err)
	}
	_, has, err = topo.Parent(0)
	if err != nil || has {
		t.Fatalf("root should have no parent: %v, %v", has, err)
	}
	if _, _, err := topo.Parent(42); err == nil {
		t.Fatal("unknown color parent should fail")
	}
}

func TestInRegion(t *testing.T) {
	topo := buildTree(t)
	cases := []struct {
		region, c types.ColorID
		want      bool
	}{
		{0, 0, true}, {0, 1, true}, {0, 2, true},
		{1, 1, true}, {1, 2, false}, {2, 1, false},
		{1, 0, false}, // parent is not inside the child region
	}
	for _, tc := range cases {
		if got := topo.InRegion(tc.region, tc.c); got != tc.want {
			t.Errorf("InRegion(%v, %v) = %v, want %v", tc.region, tc.c, got, tc.want)
		}
	}
}

func TestShardsInRegion(t *testing.T) {
	topo := buildTree(t)
	if got := topo.ShardsInRegion(0); len(got) != 3 {
		t.Fatalf("root region shards = %d", len(got))
	}
	got := topo.ShardsInRegion(1)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("region 1 shards = %v", got)
	}
	if got := topo.ShardsInRegion(2); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("region 2 shards = %v", got)
	}
}

func TestRandomShardCoversAll(t *testing.T) {
	topo := buildTree(t)
	rng := rand.New(rand.NewSource(1))
	seen := map[types.ShardID]bool{}
	for i := 0; i < 200; i++ {
		sh, err := topo.RandomShard(0, rng)
		if err != nil {
			t.Fatal(err)
		}
		seen[sh.ID] = true
	}
	if len(seen) != 3 {
		t.Fatalf("random shard only hit %v", seen)
	}
	topo2 := New()
	topo2.AddRegion(0, 0, 1, nil)
	if _, err := topo2.RandomShard(0, rng); err == nil {
		t.Fatal("no shards should error")
	}
}

// TestRandomShardReplaysSeeds: RandomShard picks from the region's shards
// sorted by id, as it did when it built and sorted that list per call, so
// a seed picks the same shards before and after each layout change — and
// it allocates nothing.
func TestRandomShardReplaysSeeds(t *testing.T) {
	topo := buildTree(t)
	// reference is the list the per-call build produced.
	reference := func(color types.ColorID) []ShardInfo {
		var out []ShardInfo
		for _, sh := range topo.Snapshot().Shards {
			if topo.InRegion(color, sh.Leaf) {
				out = append(out, sh)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	check := func(step string) {
		t.Helper()
		for _, color := range []types.ColorID{0, 1, 2} {
			got, want := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			shards := reference(color)
			for i := 0; i < 100; i++ {
				sh, err := topo.RandomShard(color, got)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				w := shards[want.Intn(len(shards))]
				if sh.ID != w.ID || len(sh.Replicas) != len(w.Replicas) {
					t.Fatalf("%s: color %v pick %d = %+v, want %+v", step, color, i, sh, w)
				}
			}
		}
	}
	check("initial")
	if err := topo.AddShard(4, 1, []types.NodeID{10, 11}); err != nil {
		t.Fatal(err)
	}
	check("add shard")
	if err := topo.AddReplicaToShard(4, 12); err != nil {
		t.Fatal(err)
	}
	check("add replica")
	if err := topo.RemoveShard(1); err != nil {
		t.Fatal(err)
	}
	check("remove shard")
	snap := buildTree(t).Snapshot()
	snap.Version = topo.Version() + 1
	topo.Apply(snap)
	check("apply")

	rng := rand.New(rand.NewSource(1))
	if n := testing.AllocsPerRun(1000, func() { _, _ = topo.RandomShard(0, rng) }); n != 0 {
		t.Fatalf("RandomShard allocates %v times per pick", n)
	}
}

func TestShardLookups(t *testing.T) {
	topo := buildTree(t)
	sh, err := topo.Shard(2)
	if err != nil || sh.Leaf != 1 {
		t.Fatalf("shard(2) = %+v, %v", sh, err)
	}
	if _, err := topo.Shard(99); err == nil {
		t.Fatal("unknown shard should fail")
	}
	sh, ok := topo.ShardOfReplica(5)
	if !ok || sh.ID != 2 {
		t.Fatalf("shardOfReplica(5) = %+v, %v", sh, ok)
	}
	if _, ok := topo.ShardOfReplica(999); ok {
		t.Fatal("unknown replica should report !ok")
	}
}

func TestReplicasInRegion(t *testing.T) {
	topo := buildTree(t)
	all := topo.ReplicasInRegion(0)
	if len(all) != 9 {
		t.Fatalf("root replicas = %v", all)
	}
	r1 := topo.ReplicasInRegion(1)
	if len(r1) != 6 || r1[0] != 1 || r1[5] != 6 {
		t.Fatalf("region 1 replicas = %v", r1)
	}
}

func TestLeavesAndColors(t *testing.T) {
	topo := buildTree(t)
	leaves := topo.Leaves()
	if len(leaves) != 2 || leaves[0] != 1 || leaves[1] != 2 {
		t.Fatalf("leaves = %v", leaves)
	}
	colors := topo.Colors()
	if len(colors) != 3 || colors[0] != 0 {
		t.Fatalf("colors = %v", colors)
	}
	if !topo.HasColor(2) || topo.HasColor(9) {
		t.Fatal("HasColor wrong")
	}
}

func TestPathToOwner(t *testing.T) {
	topo := buildTree(t)
	path, err := topo.PathToOwner(1, 0)
	if err != nil || len(path) != 1 || path[0] != 0 {
		t.Fatalf("path 1→0 = %v, %v", path, err)
	}
	path, err = topo.PathToOwner(1, 1)
	if err != nil || len(path) != 0 {
		t.Fatalf("path 1→1 = %v, %v", path, err)
	}
	if _, err := topo.PathToOwner(1, 2); err == nil {
		t.Fatal("path to non-ancestor should fail")
	}
}

func TestReplicaMembershipMutators(t *testing.T) {
	topo := buildTree(t)
	v0 := topo.Version()
	if err := topo.AddReplicaToShard(1, 42); err != nil {
		t.Fatal(err)
	}
	sh, _ := topo.Shard(1)
	if len(sh.Replicas) != 4 || sh.Replicas[3] != 42 {
		t.Fatalf("after add, replicas = %v", sh.Replicas)
	}
	if topo.Version() != v0+1 {
		t.Fatalf("version after add = %d, want %d", topo.Version(), v0+1)
	}
	if err := topo.AddReplicaToShard(1, 42); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate add: %v", err)
	}
	if err := topo.AddReplicaToShard(99, 1); err == nil {
		t.Fatal("add to unknown shard should fail")
	}
	if err := topo.RemoveReplicaFromShard(1, 42); err != nil {
		t.Fatal(err)
	}
	sh, _ = topo.Shard(1)
	if len(sh.Replicas) != 3 {
		t.Fatalf("after remove, replicas = %v", sh.Replicas)
	}
	if err := topo.RemoveReplicaFromShard(1, 42); err == nil {
		t.Fatal("removing a non-member should fail")
	}
	if err := topo.RemoveReplicaFromShard(99, 1); err == nil {
		t.Fatal("remove from unknown shard should fail")
	}
	topo.AddShard(9, 1, []types.NodeID{77})
	if err := topo.RemoveReplicaFromShard(9, 77); !errors.Is(err, ErrLastReplica) {
		t.Fatalf("last-replica removal: %v", err)
	}
}

func TestRemoveShard(t *testing.T) {
	topo := buildTree(t)
	v0 := topo.Version()
	if err := topo.RemoveShard(2); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Shard(2); err == nil {
		t.Fatal("removed shard still resolvable")
	}
	if got := topo.ShardsInRegion(1); len(got) != 1 {
		t.Fatalf("region 1 shards after remove = %v", got)
	}
	if topo.Version() != v0+1 {
		t.Fatalf("version = %d, want %d", topo.Version(), v0+1)
	}
	if err := topo.RemoveShard(2); err == nil {
		t.Fatal("double remove should fail")
	}
}

func TestSnapshotApplyFencing(t *testing.T) {
	topo := buildTree(t)
	snap := topo.Snapshot()
	if snap.Version != topo.Version() || len(snap.Regions) != 3 || len(snap.Shards) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// A fresh topology accepts the snapshot wholesale.
	other := New()
	if !other.Apply(snap) {
		t.Fatal("fresh topology rejected snapshot")
	}
	if other.Version() != snap.Version {
		t.Fatalf("applied version = %d, want %d", other.Version(), snap.Version)
	}
	if sh, err := other.Shard(3); err != nil || sh.Leaf != 2 || len(sh.Replicas) != 3 {
		t.Fatalf("applied shard 3 = %+v, %v", sh, err)
	}
	if l, err := other.Leader(1); err != nil || l != 110 {
		t.Fatalf("applied leader(1) = %v, %v", l, err)
	}

	// Stale and duplicate snapshots are fenced out.
	if other.Apply(snap) {
		t.Fatal("duplicate snapshot should be rejected")
	}
	if err := other.AddReplicaToShard(1, 42); err != nil {
		t.Fatal(err)
	}
	if other.Apply(snap) {
		t.Fatal("stale snapshot should be rejected after local mutation")
	}
	if sh, _ := other.Shard(1); len(sh.Replicas) != 4 {
		t.Fatalf("stale apply clobbered local state: %v", sh.Replicas)
	}

	// Snapshots are deep copies: mutating the source must not leak.
	snap2 := topo.Snapshot()
	snap2.Shards[0].Replicas[0] = 999
	if sh, _ := topo.Shard(snap2.Shards[0].ID); sh.Replicas[0] == 999 {
		t.Fatal("snapshot aliases live replica slice")
	}
}

func TestDeepTree(t *testing.T) {
	topo := New()
	topo.AddRegion(0, 0, 1, nil)
	// Chain of 10 nested regions.
	for c := types.ColorID(1); c <= 10; c++ {
		if err := topo.AddRegion(c, c-1, types.NodeID(c), nil); err != nil {
			t.Fatal(err)
		}
	}
	topo.AddShard(1, 10, []types.NodeID{50})
	if !topo.InRegion(0, 10) {
		t.Fatal("deep descendant not in root region")
	}
	path, err := topo.PathToOwner(10, 0)
	if err != nil || len(path) != 10 {
		t.Fatalf("deep path = %v, %v", path, err)
	}
	if got := topo.ShardsInRegion(5); len(got) != 1 {
		t.Fatalf("mid-region shards = %v", got)
	}
}
