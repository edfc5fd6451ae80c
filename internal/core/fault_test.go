package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/types"
)

// newSimpleNoFailover builds a cluster whose sequencers effectively never
// suspect their leader: tests that crash REPLICAS for extended windows use
// it, because per §5.2 a new sequencer cannot serve until every region
// replica acks its SeqInit — so a host-scheduling-induced spurious
// failover while a replica is down stalls the region until that replica
// recovers, deadlocking tests that only want to exercise replica recovery.
func newSimpleNoFailover(t *testing.T, shards int, opts ...Option) (*Cluster, *Client) {
	t.Helper()
	cfg := TestClusterConfig()
	cfg.Profile.FailureTimeout = 30 * time.Second
	cl, err := SimpleCluster(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := cl.NewClient(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cl, c
}

// syncLoad is how a sync test appends: plain (one record per append, the
// paper's Alg. 1 call) or batched (three records per append). The
// sync-phase moves append batches between replicas, and a batch of one
// record hides every way of getting that wrong.
type syncLoad struct {
	per int
}

// bothLoads runs a sync test under each load.
func bothLoads(t *testing.T, test func(t *testing.T, load syncLoad)) {
	t.Run("plain", func(t *testing.T) { test(t, syncLoad{per: 1}) })
	t.Run("batched", func(t *testing.T) {
		test(t, syncLoad{per: 3})
	})
}

// records builds one append's payloads; the last one is name itself, so a
// read at the SN the append returned finds name under either load.
func (l syncLoad) records(name string) [][]byte {
	out := make([][]byte, l.per)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%s.%d", name, i))
	}
	out[l.per-1] = []byte(name)
	return out
}

// shardConverged waits until every replica of the shard holds the same
// committed log, record for record (appends the test abandoned may still
// be committing when it starts looking).
func shardConverged(t *testing.T, cl *Cluster, shard types.ShardID) {
	t.Helper()
	reps := cl.Replicas(shard)
	differ := func() string {
		want, err := reps[0].Store().Scan(types.MasterColor)
		if err != nil {
			return err.Error()
		}
		for _, r := range reps[1:] {
			got, err := r.Store().Scan(types.MasterColor)
			if err != nil {
				return err.Error()
			}
			if len(got) != len(want) {
				return fmt.Sprintf("replica %d holds %d records, replica %d holds %d", r.ID(), len(got), reps[0].ID(), len(want))
			}
			for i := range want {
				if got[i].SN != want[i].SN || got[i].Token != want[i].Token || !bytes.Equal(got[i].Data, want[i].Data) {
					return fmt.Sprintf("replica %d record %d = %v %q, replica %d has %v %q",
						r.ID(), i, got[i].SN, got[i].Data, reps[0].ID(), want[i].SN, want[i].Data)
				}
			}
		}
		return ""
	}
	deadline := time.Now().Add(2 * time.Second)
	for d := differ(); d != ""; d = differ() {
		if time.Now().After(deadline) {
			t.Fatalf("shard %d did not converge: %s", shard, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaCrashRecoverySyncsState is the §6.3 replica-recovery scenario:
// a replica crashes, the shard keeps committing (it can't — appends to that
// shard block, so we use another shard), the replica recovers, the
// sync-phase converges the shard, and appends flow again.
func TestReplicaCrashRecoverySyncsState(t *testing.T) { bothLoads(t, testReplicaCrashRecovery) }

func testReplicaCrashRecovery(t *testing.T, load syncLoad) {
	cl, c := newSimpleNoFailover(t, 1)
	sh, err := cl.Topology().Shard(1)
	if err != nil {
		t.Fatal(err)
	}

	// Seed some records.
	var sns []types.SN
	for i := 0; i < 5; i++ {
		sn, err := c.Append(load.records(fmt.Sprintf("pre%d", i)), types.MasterColor)
		if err != nil {
			t.Fatal(err)
		}
		sns = append(sns, sn)
	}

	victim := cl.Replica(sh.Replicas[0])
	victim.Crash()
	cl.Network().Isolate(victim.ID())
	if victim.Mode() != replica.ModeCrashed {
		t.Fatalf("victim mode = %v", victim.Mode())
	}

	// Appends to this (only) shard block while a replica is down — §4:
	// "upon replicas' failures we choose to sacrifice availability". The
	// live replicas still persist and commit the batch, so the victim has
	// it to fetch in its sync-phase.
	quick, _ := cl.NewClient()
	quick.cfg.Timeout = 200 * time.Millisecond
	if _, err := quick.Append(load.records("blocked"), types.MasterColor); err == nil {
		t.Fatal("append should block while a replica is down")
	}

	// Recover: rejoin the network and run the sync-phase.
	cl.Network().Rejoin(victim.ID())
	if err := victim.Recover(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for victim.Mode() != replica.ModeOperational {
		if time.Now().After(deadline) {
			t.Fatalf("victim stuck in %v", victim.Mode())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// All pre-crash records still readable; new appends work.
	for i, sn := range sns {
		got, err := c.Read(sn, types.MasterColor)
		if err != nil || string(got) != fmt.Sprintf("pre%d", i) {
			t.Fatalf("pre-crash record %d: %q, %v", i, got, err)
		}
	}
	sn, err := c.Append(load.records("post"), types.MasterColor)
	if err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	got, err := c.Read(sn, types.MasterColor)
	if err != nil || string(got) != "post" {
		t.Fatalf("post-recovery read: %q, %v", got, err)
	}
	// The recovered replica's own store converged to the full log.
	if victim.Store().MaxSN(types.MasterColor) < sn {
		t.Fatal("victim store did not converge")
	}
	shardConverged(t, cl, sh.ID)
}

// TestLaggingReplicaCatchesUpViaSync verifies the §6.3 fetch path: a
// replica that missed commits (crashed before they happened) fetches them
// from the most up-to-date peer during its sync-phase.
func TestLaggingReplicaCatchesUpViaSync(t *testing.T) { bothLoads(t, testLaggingReplica) }

func testLaggingReplica(t *testing.T, load syncLoad) {
	// Two shards so appends continue while one shard's replica is down.
	cl, c := newSimpleNoFailover(t, 2)
	sh, _ := cl.Topology().Shard(1)
	victim := cl.Replica(sh.Replicas[1])

	// A few records into shard 1 specifically (bypass random choice by
	// appending until shard 1's replicas hold something).
	seed := func(n int) []types.SN {
		var out []types.SN
		for len(out) < n {
			sn, err := c.Append(load.records(fmt.Sprintf("s%d", len(out))), types.MasterColor)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sn)
		}
		return out
	}
	seed(10)
	before := victim.Store().MaxSN(types.MasterColor)

	victim.Crash()
	cl.Network().Isolate(victim.ID())
	// Keep appending: the other shard still accepts (random shard choice
	// retries may hit the broken shard and stall; use a dedicated client
	// with its own rng until enough new records landed on shard 2).
	w, _ := cl.NewClient()
	w.cfg.Timeout = 300 * time.Millisecond
	extra := 0
	for extra < 10 {
		if _, err := w.Append(load.records(fmt.Sprintf("x%d", extra)), types.MasterColor); err == nil {
			extra++
		}
	}

	cl.Network().Rejoin(victim.ID())
	if err := victim.Recover(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for victim.Mode() != replica.ModeOperational {
		if time.Now().After(deadline) {
			t.Fatalf("victim stuck in %v", victim.Mode())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The victim's peers in shard 1 never saw the new records (they went
	// to shard 2), so its frontier only needs to match its own shard; but
	// everything it had before the crash must survive.
	if victim.Store().MaxSN(types.MasterColor) < before {
		t.Fatalf("victim lost records: %v < %v", victim.Store().MaxSN(types.MasterColor), before)
	}
	// End-to-end: the full log is still consistent for readers.
	recs, err := c.Subscribe(types.MasterColor, types.InvalidSN)
	if err != nil {
		t.Fatal(err)
	}
	// At least the 10 seeds and 10 acknowledged extras must be present;
	// timed-out appends that still committed on live replicas are legal
	// extras (an incomplete operation may or may not take effect).
	if len(recs) < 20*load.per {
		t.Fatalf("subscribe found %d records, want >= %d", len(recs), 20*load.per)
	}
	// The appends that hit shard 1 while the victim was down timed out, but
	// its live replicas committed them: the victim fetched those.
	shardConverged(t, cl, sh.ID)
}

// TestShardDivergenceHealsOnSync creates real divergence inside one shard
// (one replica misses a commit) and verifies the sync-phase fetch repairs
// it.
func TestShardDivergenceHealsOnSync(t *testing.T) { bothLoads(t, testShardDivergence) }

func testShardDivergence(t *testing.T, load syncLoad) {
	cl, c := newSimpleNoFailover(t, 1)
	sh, _ := cl.Topology().Shard(1)
	lagger := cl.Replica(sh.Replicas[2])

	// Volume of records, then crash the lagger and let it miss nothing —
	// instead simulate divergence by crashing DURING load: run appends in
	// the background and crash mid-way.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			c.Append(load.records(fmt.Sprintf("d%02d", i)), types.MasterColor)
		}
	}()
	<-done

	// Crash + recover; sync-phase must converge the shard so that all
	// three replicas have identical committed frontiers.
	lagger.Crash()
	cl.Network().Isolate(lagger.ID())
	time.Sleep(10 * time.Millisecond)
	cl.Network().Rejoin(lagger.ID())
	if err := lagger.Recover(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for lagger.Mode() != replica.ModeOperational {
		if time.Now().After(deadline) {
			t.Fatalf("lagger stuck in %v", lagger.Mode())
		}
		time.Sleep(2 * time.Millisecond)
	}
	frontier := lagger.Store().MaxSN(types.MasterColor)
	for _, id := range sh.Replicas {
		if got := cl.Replica(id).Store().MaxSN(types.MasterColor); got != frontier {
			t.Fatalf("replica %v frontier %v != %v", id, got, frontier)
		}
	}
	shardConverged(t, cl, sh.ID)
	// And the shard serves appends again.
	if _, err := c.Append(load.records("after"), types.MasterColor); err != nil {
		t.Fatal(err)
	}
}

// TestSequencerFailoverEndToEnd kills the leaf/root sequencer under load
// and verifies appends resume under the new epoch with larger SNs.
func TestSequencerFailoverEndToEnd(t *testing.T) {
	cl, c := newSimple(t, 1)
	before, err := c.Append([][]byte{[]byte("before")}, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}

	leader := cl.LeaderOf(types.MasterColor)
	leader.Crash()
	cl.Network().Isolate(leader.ID())

	// A new leader must be elected, initialize the replicas, and serve.
	deadline := time.Now().Add(10 * time.Second)
	var newLeader *seq.Sequencer
	for newLeader == nil {
		if time.Now().After(deadline) {
			t.Fatal("no new sequencer leader")
		}
		for _, s := range cl.SequencersOf(types.MasterColor) {
			if s != leader && s.Serving() {
				newLeader = s
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if newLeader.Epoch() < 2 {
		t.Fatalf("new epoch = %d", newLeader.Epoch())
	}

	// Appends flow again and land strictly above every old SN.
	after, err := c.Append([][]byte{[]byte("after")}, types.MasterColor)
	if err != nil {
		t.Fatalf("append after failover: %v", err)
	}
	if after <= before {
		t.Fatalf("post-failover SN %v not above %v", after, before)
	}
	if after.Epoch() < 2 {
		t.Fatalf("post-failover SN epoch = %d", after.Epoch())
	}
	// Old records still readable.
	got, err := c.Read(before, types.MasterColor)
	if err != nil || string(got) != "before" {
		t.Fatalf("pre-failover record: %q, %v", got, err)
	}
	got, err = c.Read(after, types.MasterColor)
	if err != nil || string(got) != "after" {
		t.Fatalf("post-failover record: %q, %v", got, err)
	}
}

// TestAppendsBlockedDuringFailoverEventuallyComplete starts an append
// while the sequencer is down; the append must complete once the new
// leader serves (replica OReq retry path).
func TestAppendsBlockedDuringFailoverEventuallyComplete(t *testing.T) {
	if raceEnabled {
		t.Skip("failover-timing test skipped under the race detector")
	}
	cl, c := newSimple(t, 1)
	leader := cl.LeaderOf(types.MasterColor)
	leader.Crash()
	cl.Network().Isolate(leader.ID())

	type result struct {
		sn  types.SN
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		sn, err := c.Append([][]byte{[]byte("during")}, types.MasterColor)
		resCh <- result{sn, err}
	}()
	select {
	case res := <-resCh:
		if res.err != nil {
			t.Fatalf("append during failover failed: %v", res.err)
		}
		got, err := c.Read(res.sn, types.MasterColor)
		if err != nil || !bytes.Equal(got, []byte("during")) {
			t.Fatalf("read after failover append: %q, %v", got, err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("append never completed across failover")
	}
}

// TestHoleReadsReturnBottom verifies §6.3 hole management: SNs that were
// never assigned a record answer ⊥ while later SNs answer values.
func TestHoleReadsReturnBottom(t *testing.T) {
	cl, c := newSimple(t, 1)
	// Force an epoch bump mid-stream to create a hole between the last
	// epoch-1 SN and the first epoch-2 SN.
	sn1, err := c.Append([][]byte{[]byte("one")}, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	leader := cl.LeaderOf(types.MasterColor)
	leader.Crash()
	cl.Network().Isolate(leader.ID())
	sn2, err := c.Append([][]byte{[]byte("two")}, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	if sn2.Epoch() == sn1.Epoch() {
		t.Skip("failover did not interleave; no hole to test")
	}
	// Every SN strictly between sn1 and sn2 is a hole: reads return ⊥
	// but do not violate linearizability (r(i)=⊥, r(j)≠⊥ with i<j is
	// allowed, §6.3).
	hole := sn1 + 1
	if _, err := c.Read(hole, types.MasterColor); err == nil {
		t.Fatal("hole read returned a value")
	}
	got, err := c.Read(sn2, types.MasterColor)
	if err != nil || string(got) != "two" {
		t.Fatalf("read above hole: %q, %v", got, err)
	}
}

// TestConcurrentReplicaRecoveries exercises the multi-run sync-phase: two
// replicas of the same shard crash together and recover simultaneously,
// each coordinating its own sync run; all runs must complete, the shard
// converge, and appends resume.
func TestConcurrentReplicaRecoveries(t *testing.T) {
	cl, c := newSimpleNoFailover(t, 1)
	sh, _ := cl.Topology().Shard(1)
	for i := 0; i < 5; i++ {
		if _, err := c.Append([][]byte{fmt.Appendf(nil, "seed-%d", i)}, types.MasterColor); err != nil {
			t.Fatal(err)
		}
	}
	v1 := cl.Replica(sh.Replicas[0])
	v2 := cl.Replica(sh.Replicas[1])
	for _, v := range []*replica.Replica{v1, v2} {
		v.Crash()
		cl.Network().Isolate(v.ID())
	}
	time.Sleep(10 * time.Millisecond)
	for _, v := range []*replica.Replica{v1, v2} {
		cl.Network().Rejoin(v.ID())
	}
	// Recover both at the same time: their sync runs overlap.
	errs := make(chan error, 2)
	go func() { errs <- v1.Recover() }()
	go func() { errs <- v2.Recover() }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, v := range []*replica.Replica{v1, v2} {
		for v.Mode() != replica.ModeOperational {
			if time.Now().After(deadline) {
				t.Fatalf("replica %v stuck in %v after concurrent recovery", v.ID(), v.Mode())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// The shard converged and serves.
	sn, err := c.Append([][]byte{[]byte("post-concurrent")}, types.MasterColor)
	if err != nil {
		t.Fatalf("append after concurrent recovery: %v", err)
	}
	got, err := c.Read(sn, types.MasterColor)
	if err != nil || string(got) != "post-concurrent" {
		t.Fatalf("read = %q, %v", got, err)
	}
	frontier := v1.Store().MaxSN(types.MasterColor)
	for _, id := range sh.Replicas {
		if got := cl.Replica(id).Store().MaxSN(types.MasterColor); got != frontier {
			t.Fatalf("replica %v frontier %v != %v", id, got, frontier)
		}
	}
}
