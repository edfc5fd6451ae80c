package kv

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"flexlog/internal/core"
	"flexlog/internal/types"
)

func newStoreCluster(t *testing.T) *core.Cluster {
	t.Helper()
	cl, err := core.SimpleCluster(core.TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

func mkStore(t *testing.T, cl *core.Cluster) *Store {
	t.Helper()
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(c, 50, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPutGetDelete(t *testing.T) {
	cl := newStoreCluster(t)
	st := mkStore(t, cl)
	if err := st.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("k")
	if err != nil || got != "v1" {
		t.Fatalf("get = %q, %v", got, err)
	}
	st.Put("k", "v2") // overwrite
	got, _ = st.Get("k")
	if got != "v2" {
		t.Fatalf("get after overwrite = %q", got)
	}
	st.Delete("k")
	if _, err := st.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
}

func TestTwoHandlesShareState(t *testing.T) {
	cl := newStoreCluster(t)
	a := mkStore(t, cl)
	b := mkStore(t, cl)
	a.Put("shared", "from-a")
	got, err := b.Get("shared")
	if err != nil || got != "from-a" {
		t.Fatalf("b sees %q, %v", got, err)
	}
	b.Put("shared", "from-b")
	got, _ = a.Get("shared")
	if got != "from-b" {
		t.Fatalf("a sees %q", got)
	}
}

func TestFreshHandleReplaysHistory(t *testing.T) {
	cl := newStoreCluster(t)
	a := mkStore(t, cl)
	for i := 0; i < 10; i++ {
		a.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	a.Delete("k3")
	// A brand-new handle must converge to the same state.
	b := mkStore(t, cl)
	state, err := b.Snapshot()
	if err != nil || len(state) != 9 {
		t.Fatalf("len = %d, %v", len(state), err)
	}
	if _, err := b.Get("k3"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key visible: %v", err)
	}
	got, _ := b.Get("k7")
	if got != "v7" {
		t.Fatalf("k7 = %q", got)
	}
}

func TestFreshAppendBeforeSyncDoesNotSkipHistory(t *testing.T) {
	cl := newStoreCluster(t)
	a := mkStore(t, cl)
	a.Put("old", "1")
	// b appends before ever reading: its first fold must not jump past
	// the history.
	b := mkStore(t, cl)
	b.Put("new", "2")
	if got, err := b.Get("old"); err != nil || got != "1" {
		t.Fatalf("history skipped: %q, %v", got, err)
	}
}

func TestCheckpointCompactsAndPreserves(t *testing.T) {
	cl := newStoreCluster(t)
	st := mkStore(t, cl)
	for i := 0; i < 20; i++ {
		st.Put(fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i))
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Fresh handle after compaction: replay is snapshot + tail only.
	b := mkStore(t, cl)
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d keys", len(snap))
	}
	for i := 0; i < 5; i++ {
		want := fmt.Sprintf("v%d", 15+i)
		if snap[fmt.Sprintf("k%d", i)] != want {
			t.Fatalf("k%d = %q, want %q", i, snap[fmt.Sprintf("k%d", i)], want)
		}
	}
	// Writes continue after the checkpoint.
	st.Put("post", "yes")
	if got, _ := b.Get("post"); got != "yes" {
		t.Fatalf("post-checkpoint write invisible: %q", got)
	}
}

func TestWriteInterleavedWithCheckpointSurvives(t *testing.T) {
	cl := newStoreCluster(t)
	a := mkStore(t, cl)
	b := mkStore(t, cl)
	a.Put("base", "1")
	// b writes concurrently with a's checkpoint. Regardless of whether
	// b's write lands before or after the snapshot record, it must
	// survive replay.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a.Checkpoint() }()
	go func() { defer wg.Done(); b.Put("racer", "alive") }()
	wg.Wait()
	fresh := mkStore(t, cl)
	got, err := fresh.Get("racer")
	if err != nil || got != "alive" {
		t.Fatalf("interleaved write lost: %q, %v", got, err)
	}
	if got, err := fresh.Get("base"); err != nil || got != "1" {
		t.Fatalf("base lost: %q, %v", got, err)
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	cl := newStoreCluster(t)
	const writers, per = 4, 10
	var wg sync.WaitGroup
	stores := make([]*Store, writers)
	for w := 0; w < writers; w++ {
		stores[w] = mkStore(t, cl)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				stores[w].Put(fmt.Sprintf("w%d-%d", w, i), "x")
			}
		}(w)
	}
	wg.Wait()
	// All handles converge to the same 40-key state.
	want, err := stores[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != writers*per {
		t.Fatalf("state has %d keys, want %d", len(want), writers*per)
	}
	for w := 1; w < writers; w++ {
		got, err := stores[w].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("handle %d diverged: %d keys", w, len(got))
		}
	}
}

func TestStoreSurvivesReplicaCrash(t *testing.T) {
	cl := newStoreCluster(t)
	st := mkStore(t, cl)
	st.Put("durable", "yes")
	// Crash + recover a replica of the store's shard.
	shards := cl.Topology().ShardsInRegion(50)
	r := cl.Replica(shards[0].Replicas[0])
	r.Crash()
	cl.Network().Isolate(r.ID())
	cl.Network().Rejoin(r.ID())
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("durable")
	if err != nil || got != "yes" {
		t.Fatalf("state lost across crash: %q, %v", got, err)
	}
}
