package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"flexlog/internal/types"
)

// multiCluster builds a deployment with two target colors and a dedicated
// broker shard on the master region.
func multiCluster(t *testing.T) (*Cluster, *Client) {
	t.Helper()
	cl, err := TreeCluster(TestClusterConfig(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	if _, err := cl.AddShard(types.MasterColor); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return cl, c
}

func countIn(t *testing.T, c *Client, color types.ColorID, want string) int {
	t.Helper()
	recs, err := c.Subscribe(color, types.InvalidSN)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs {
		if string(r.Data) == want {
			n++
		}
	}
	return n
}

// TestMultiAppendExactlyOnceAcrossRetries: client-side retries of the end
// marker and concurrent broker replays must not duplicate records in the
// target colors (§7: "append operations are idempotent; the client's
// tokens uniquely identify the records").
func TestMultiAppendExactlyOnceAcrossRetries(t *testing.T) {
	_, c := multiCluster(t)
	for round := 0; round < 5; round++ {
		a := fmt.Sprintf("a-%d", round)
		b := fmt.Sprintf("b-%d", round)
		err := c.MultiAppend(
			[][][]byte{{[]byte(a)}, {[]byte(b)}},
			[]types.ColorID{1, 2}, types.MasterColor)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Replays from the other broker replicas may still be in flight; wait
	// for stability then check exactly-once.
	time.Sleep(100 * time.Millisecond)
	for round := 0; round < 5; round++ {
		if n := countIn(t, c, 1, fmt.Sprintf("a-%d", round)); n != 1 {
			t.Fatalf("color 1 has %d copies of a-%d", n, round)
		}
		if n := countIn(t, c, 2, fmt.Sprintf("b-%d", round)); n != 1 {
			t.Fatalf("color 2 has %d copies of b-%d", n, round)
		}
	}
}

// TestMultiAppendClientStopsBeforeEnd: a client that stages records but
// never sends the end marker publishes nothing to the target colors
// (§7: "Since the replicas never receive the special end message, none of
// the records are appended to any color").
func TestMultiAppendClientStopsBeforeEnd(t *testing.T) {
	cl, c := multiCluster(t)
	// Stage manually: append the staged payloads to the broker color but
	// never broadcast MultiAppendEnd — exactly what a client crash between
	// Alg. 2 line 4 and line 5 leaves behind.
	staged := stagedPayload(t, 1, c.FID(), "orphan-a")
	if _, err := c.Append([][]byte{staged}, types.MasterColor); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := countIn(t, c, 1, "orphan-a"); n != 0 {
		t.Fatalf("staged-only record leaked into color 1 (%d copies)", n)
	}
	_ = cl
}

// TestMultiAppendSurvivesBrokerReplicaCrash: if one broker replica crashes
// after the end marker, the remaining replicas' replays still deliver all
// sets (f=1 of 3 tolerated, §7).
func TestMultiAppendSurvivesBrokerReplicaCrash(t *testing.T) {
	cl, c := multiCluster(t)
	// Find the broker shard (the master-region shard added last).
	shards := cl.Topology().ShardsInRegion(types.MasterColor)
	var broker types.ShardID
	for _, sh := range shards {
		if sh.Leaf == types.MasterColor {
			broker = sh.ID
		}
	}
	if broker == 0 {
		t.Fatal("no broker shard")
	}
	brokerReplicas := cl.Replicas(broker)

	done := make(chan error, 1)
	go func() {
		done <- c.MultiAppend(
			[][][]byte{{[]byte("crash-a")}, {[]byte("crash-b")}},
			[]types.ColorID{1, 2}, types.MasterColor)
	}()
	// Crash one broker replica while the multi-append runs. The staging
	// appends need all three replicas, so crash only after a short delay
	// gives a mix of outcomes across runs — both must preserve atomicity.
	time.Sleep(2 * time.Millisecond)
	victim := brokerReplicas[2]
	victim.Crash()
	cl.Network().Isolate(victim.ID())

	select {
	case err := <-done:
		if err != nil {
			// The crash landed during staging: the operation could not
			// complete (appends block on replica failure). Nothing may
			// have leaked into the targets.
			time.Sleep(50 * time.Millisecond)
			na, nb := countIn(t, c, 1, "crash-a"), countIn(t, c, 2, "crash-b")
			if na != 0 || nb != 0 {
				// Partial-visibility check: either both or neither.
				if na == 0 || nb == 0 {
					t.Fatalf("atomicity violated after failed multi-append: a=%d b=%d", na, nb)
				}
			}
			return
		}
	case <-time.After(30 * time.Second):
		t.Fatal("multi-append hung")
	}
	// Acked: both targets must (eventually) contain their records.
	deadline := time.Now().Add(5 * time.Second)
	for {
		na, nb := countIn(t, c, 1, "crash-a"), countIn(t, c, 2, "crash-b")
		if na >= 1 && nb >= 1 {
			if na != 1 || nb != 1 {
				t.Fatalf("duplicates after broker crash: a=%d b=%d", na, nb)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("acked multi-append incomplete: a=%d b=%d", na, nb)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailedReplayReleasesItsGoroutines: a broker replica replays a staged
// set once per token, and every retried end marker that finds the replay
// in flight waits for it. A replay that cannot complete (a target replica
// unreachable) must release those waiters when it gives up or the replica
// stops — none may outlive Stop.
func TestFailedReplayReleasesItsGoroutines(t *testing.T) {
	cl, err := TreeCluster(TestClusterConfig(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			cl.Stop()
		}
	}()
	if _, err := cl.AddShard(types.MasterColor); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	cl.Network().Isolate(cl.Topology().ShardsInRegion(1)[0].Replicas[0])
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	// Brokered by color 2, whose shard is whole: staging succeeds, the end
	// marker is retried until the deadline, every retry reaches the brokers.
	if err := c.MultiAppendCtx(ctx, [][][]byte{{[]byte("never")}}, []types.ColorID{1}, 2); err == nil {
		t.Fatal("multi-append into a shard with an isolated replica succeeded")
	}
	inReplay := func() int {
		buf := make([]byte, 1<<20)
		return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("replayOne"))
	}
	if inReplay() == 0 {
		t.Fatal("no replay in flight: the scenario does not exercise replayOne")
	}
	cl.Stop()
	stopped = true
	eventually(t, "every replayOne goroutine to return", func() bool { return inReplay() == 0 })
}

// TestReplayDropsDrainedMember: a replay in flight re-resolves its target
// shard on every retry tick, so a replica drained out of the shard stops
// being waited for — the multi-append completes a tick or two after the
// drain instead of wedging the brokers' replay for 50 retry intervals.
func TestReplayDropsDrainedMember(t *testing.T) {
	cfg := TestClusterConfig()
	cfg.Profile.ReplicaRetry = 100 * time.Millisecond // the wedge would last 5 s
	cfg.Profile.SequencerRetry = cfg.Profile.ReplicaRetry
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
	gone := target.Replicas[0]
	cl.Network().Isolate(gone)
	done := make(chan error, 1)
	go func() { done <- c.MultiAppend([][][]byte{{[]byte("drained")}}, []types.ColorID{1}, 2) }()
	eventually(t, "the end marker to be in flight", func() bool { return inFlight(c, false) })
	if err := cl.Topology().RemoveReplicaFromShard(target.ID, gone); err != nil {
		t.Fatal(err)
	}
	drainedAt := time.Now()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("multi-append never completed")
	}
	if d := time.Since(drainedAt); d > 25*cfg.Profile.ReplicaRetry {
		t.Fatalf("multi-append completed %v after the drain: the replay waited out a departed member", d)
	}
	if n := countIn(t, c, 1, "drained"); n != 1 {
		t.Fatalf("color 1 has %d copies of the record", n)
	}
}

// stagedPayload builds the broker-color payload for one record set (test
// mirror of the client's staging encoder).
func stagedPayload(t *testing.T, target types.ColorID, fid uint32, data string) []byte {
	t.Helper()
	// Reuse the replica package's public encoder through the client path:
	// core imports replica, so encode directly.
	return encodeStagedForTest(target, fid, [][]byte{[]byte(data)})
}
