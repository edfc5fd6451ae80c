package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// batchedClient creates a client on cl (every client batches; opts tune it).
// retryEvery sets how often an unanswered request is re-broadcast.
func retryEvery(d time.Duration) Option {
	return func(c *ClientConfig) { c.RetryInterval = d }
}

func batchedClient(t *testing.T, cl *Cluster, opts ...Option) *Client {
	t.Helper()
	c, err := cl.NewClient(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBatchedAppendLinearizable drives many concurrent AppendCtx calls
// through the batching layer and checks the core guarantees survive the
// coalescing: every caller gets a distinct SN, and every SN reads back the
// exact payload that was appended (i.e. the per-caller demux from the
// batch's last SN is correct). Run under -race this also exercises the
// batcher's synchronization.
func TestBatchedAppendLinearizable(t *testing.T) {
	cl, err := SimpleCluster(TestClusterConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c := batchedClient(t, cl, WithBatching(BatchConfig{
		MaxBatchBytes: 64, // at most 16 of these 4–5 byte records
		MaxBatchDelay: 200 * time.Microsecond,
		MaxInFlight:   4,
	}))

	const (
		goroutines = 8
		perG       = 30
	)
	type res struct {
		sn   types.SN
		data []byte
	}
	results := make(chan res, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				data := fmt.Appendf(nil, "g%d-%d", g, i)
				sn, err := c.AppendCtx(context.Background(), [][]byte{data}, types.MasterColor)
				if err != nil {
					t.Errorf("append g%d-%d: %v", g, i, err)
					return
				}
				results <- res{sn, data}
			}
		}(g)
	}
	wg.Wait()
	close(results)

	seen := make(map[types.SN][]byte)
	for r := range results {
		if prev, dup := seen[r.sn]; dup {
			t.Fatalf("SN %v assigned to both %q and %q", r.sn, prev, r.data)
		}
		seen[r.sn] = r.data
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("got %d distinct SNs, want %d", len(seen), goroutines*perG)
	}
	for sn, want := range seen {
		got, err := c.Read(sn, types.MasterColor)
		if err != nil {
			t.Fatalf("read %v: %v", sn, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %v = %q, appended %q", sn, got, want)
		}
	}
	if got := c.Metrics().BatchedAppends.Count(); got != goroutines*perG {
		t.Errorf("BatchedAppends = %d, want %d", got, goroutines*perG)
	}
}

// never is a MaxBatchDelay no test outlives: a batch that leaves under it
// left because the policy released it, not because a timer fired.
const never = time.Hour

// eventually polls cond until it holds; the deadline only turns a hang
// into a failure, no assertion depends on how long anything took.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// queuedAppends counts the record sets waiting in c's batchers.
func queuedAppends(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, b := range c.batchers {
		b.mu.Lock()
		n += len(b.queue)
		b.mu.Unlock()
	}
	return n
}

// heldBatch is one batch kept in flight: a replica of the (only) shard is
// cut off, so the batch cannot collect every ack until release rejoins it
// and the client's re-broadcast gets through.
type heldBatch struct {
	fut     *AppendFuture
	release func()
}

func holdBatch(t *testing.T, cl *Cluster, c *Client) heldBatch {
	t.Helper()
	shards := cl.Topology().ShardsInRegion(types.MasterColor)
	if len(shards) != 1 {
		t.Fatalf("want 1 shard, have %d", len(shards))
	}
	cut := shards[0].Replicas[0]
	cl.Network().Isolate(cut)
	before := c.Metrics().Batches.Count()
	fut := c.AsyncAppend([][]byte{[]byte("held")}, types.MasterColor)
	eventually(t, "the first batch to be broadcast", func() bool { return c.Metrics().Batches.Count() == before+1 })
	return heldBatch{fut: fut, release: func() { cl.Network().Rejoin(cut) }}
}

func waitSN(t *testing.T, f *AppendFuture) types.SN {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sn, err := f.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// TestBatchIdleSendsAtOnce checks the idle half of the policy: with no
// batch unacknowledged a lone append is broadcast on its own, whatever
// MaxBatchDelay says — no timer is involved.
func TestBatchIdleSendsAtOnce(t *testing.T) {
	cl, err := SimpleCluster(TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c := batchedClient(t, cl, WithBatching(BatchConfig{
		MaxBatchBytes: 1 << 30,
		MaxBatchDelay: never,
		MaxInFlight:   1,
	}))
	for i := 1; i <= 3; i++ {
		if sn := waitSN(t, c.AsyncAppend([][]byte{[]byte("lonely")}, types.MasterColor)); !sn.Valid() {
			t.Fatalf("invalid SN %v", sn)
		}
		if got := c.Metrics().Batches.Count(); got != uint64(i) {
			t.Errorf("Batches = %d after %d lone appends", got, i)
		}
	}
	if got := uint64(c.Metrics().BatchRecords.Percentile(100)); got != 1 {
		t.Errorf("a batch carried %d records, want 1", got)
	}
}

// TestBatchCombinesBehindUnackedBatch checks the busy half: appends that
// arrive behind an unacknowledged batch are held (MaxBatchDelay never
// expires here) and leave as ONE batch when it is acknowledged.
func TestBatchCombinesBehindUnackedBatch(t *testing.T) {
	cl, err := SimpleCluster(TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c := batchedClient(t, cl, retryEvery(2*time.Millisecond), WithBatching(BatchConfig{
		MaxBatchBytes: 1 << 30,
		MaxBatchDelay: never,
		MaxInFlight:   4,
	}))
	held := holdBatch(t, cl, c)
	var futs []*AppendFuture
	for i := 0; i < 3; i++ {
		futs = append(futs, c.AsyncAppend([][]byte{fmt.Appendf(nil, "behind-%d", i)}, types.MasterColor))
	}
	if got := c.Metrics().Batches.Count(); got != 1 {
		t.Fatalf("Batches = %d with the first batch unacknowledged, want 1", got)
	}
	held.release()
	first := waitSN(t, held.fut)
	for i, f := range futs {
		if sn := waitSN(t, f); sn != first+types.SN(i+1) {
			t.Errorf("append %d behind the held batch got %v, want %v", i, sn, first+types.SN(i+1))
		}
	}
	m := c.Metrics()
	if m.Batches.Count() != 2 || uint64(m.BatchRecords.Percentile(100)) != 3 || m.BatchedAppends.Count() != 4 {
		t.Errorf("batches = %d, largest = %d records, appends = %d; want 2, 3, 4",
			m.Batches.Count(), uint64(m.BatchRecords.Percentile(100)), m.BatchedAppends.Count())
	}
}

// TestBatchDelayCapsTheHold checks that MaxBatchDelay is a cap: appends
// held behind a batch that is never acknowledged leave anyway once the
// oldest has waited that long.
func TestBatchDelayCapsTheHold(t *testing.T) {
	cl, err := SimpleCluster(TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c := batchedClient(t, cl, retryEvery(2*time.Millisecond), WithBatching(BatchConfig{
		MaxBatchDelay: time.Millisecond,
		MaxInFlight:   4,
	}))
	held := holdBatch(t, cl, c)
	fut := c.AsyncAppend([][]byte{[]byte("capped")}, types.MasterColor)
	eventually(t, "the held append to leave at the cap", func() bool { return c.Metrics().Batches.Count() == 2 })
	select {
	case <-held.fut.done:
		t.Fatal("the first batch completed with a replica cut off")
	default:
	}
	held.release()
	waitSN(t, held.fut)
	waitSN(t, fut)
}

// TestBatchSizeCutoff checks the size bound: behind an unacknowledged
// batch a queue that fills a batch leaves at once (MaxBatchDelay never
// expires here), and the bound keeps any one batch under MaxBatchBytes
// when the queued sets allow a split. The records are 1 and 2 bytes, so
// a 4-byte bound holds a batch to at most 4 records.
func TestBatchSizeCutoff(t *testing.T) {
	cl, err := SimpleCluster(TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	const maxBytes = 4
	c := batchedClient(t, cl, retryEvery(2*time.Millisecond), WithBatching(BatchConfig{
		MaxBatchBytes: maxBytes,
		MaxBatchDelay: never,
		MaxInFlight:   4,
	}))
	held := holdBatch(t, cl, c)

	// 4 one-byte records fill the batch.
	full := c.AsyncAppend([][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}, types.MasterColor)
	eventually(t, "the full batch to leave unacknowledged", func() bool { return c.Metrics().Batches.Count() == 2 })

	// Byte cutoff: one oversized set is a full batch too (it is never
	// split), and the size histogram records it.
	big := c.AsyncAppend([][]byte{bytes.Repeat([]byte("x"), maxBytes+1)}, types.MasterColor)
	eventually(t, "the oversized batch to leave unacknowledged", func() bool { return c.Metrics().Batches.Count() == 3 })
	if got := uint64(c.Metrics().BatchBytes.Percentile(100)); got < maxBytes {
		t.Errorf("BatchBytes max = %d, want >= %d", got, maxBytes)
	}
	held.release()
	for _, f := range []*AppendFuture{held.fut, full, big} {
		waitSN(t, f)
	}

	// Concurrent small sets must split into multiple batches rather than
	// exceed the bound: 8 callers x 2 two-byte records with a 4-byte bound
	// need at least 4 batches.
	before := c.Metrics().Batches.Count()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := fmt.Appendf(nil, "s%d", g)
			if _, err := c.AppendCtx(context.Background(), [][]byte{data, data}, types.MasterColor); err != nil {
				t.Errorf("append %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if got := c.Metrics().Batches.Count() - before; got < 4 {
		t.Errorf("16 records in %d batches, a bound of 4 records requires >= 4", got)
	}
	if got := uint64(c.Metrics().BatchRecords.Percentile(100)); got > 4+1 { // +1: one oversized single set is legal
		// Only multi-set batches are bounded; the earlier oversized set was
		// a single record, so any max above the bound means a bad cut.
		t.Errorf("a batch carried %d records, bound is 4", got)
	}
}

// TestBatchedAppendCtxCancel checks that cancellation releases exactly
// the caller that cancelled, with the context error wrapped in *OpError,
// while its record set stays queued: a neighbour queued in the same batch
// is unaffected, and both records commit once the batch leaves.
func TestBatchedAppendCtxCancel(t *testing.T) {
	cl, err := SimpleCluster(TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c := batchedClient(t, cl, retryEvery(2*time.Millisecond), WithBatching(BatchConfig{
		MaxBatchDelay: never,
		MaxInFlight:   4,
	}))
	held := holdBatch(t, cl, c)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.AppendCtx(ctx, [][]byte{[]byte("doomed")}, types.MasterColor)
		errCh <- err
	}()
	eventually(t, "the doomed append to queue", func() bool { return queuedAppends(c) == 1 })
	neighbour := c.AsyncAppend([][]byte{[]byte("neighbour")}, types.MasterColor)
	cancel()
	err = <-errCh
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Op != "append" {
		t.Fatalf("err = %#v, want *OpError{Op: append}", err)
	}
	select {
	case <-neighbour.done:
		t.Fatal("a neighbour's future resolved on someone else's cancellation")
	default:
	}

	// Cancellation abandons the wait, not the append.
	held.release()
	first := waitSN(t, held.fut)
	if sn := waitSN(t, neighbour); sn != first+2 {
		t.Errorf("neighbour got %v, want %v (behind the cancelled caller's record)", sn, first+2)
	}
	if got, err := c.Read(first+1, types.MasterColor); err != nil || string(got) != "doomed" {
		t.Errorf("cancelled caller's record: %q, %v; want it committed", got, err)
	}
}

// TestAsyncAppendFutures submits a burst of AsyncAppends and collects the
// futures: all must resolve with distinct SNs and the records must read
// back. Also covers the immediate-failure future for empty appends.
func TestAsyncAppendFutures(t *testing.T) {
	cl, err := SimpleCluster(TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c := batchedClient(t, cl)

	const n = 20
	futs := make([]*AppendFuture, n)
	payload := func(i int) []byte { return fmt.Appendf(nil, "async-%d", i) }
	for i := range futs {
		futs[i] = c.AsyncAppend([][]byte{payload(i)}, types.MasterColor)
	}
	seen := make(map[types.SN]bool)
	for i, f := range futs {
		sn, err := f.Wait(context.Background())
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if seen[sn] {
			t.Fatalf("future %d: duplicate SN %v", i, sn)
		}
		seen[sn] = true
		got, err := c.Read(sn, types.MasterColor)
		if err != nil {
			t.Fatalf("read %v: %v", sn, err)
		}
		if !bytes.Equal(got, payload(i)) {
			t.Fatalf("future %d: read %q, appended %q", i, got, payload(i))
		}
	}

	f := c.AsyncAppend(nil, types.MasterColor)
	select {
	case <-f.done:
	default:
		t.Fatal("empty AsyncAppend future not immediately resolved")
	}
	if _, err := f.Wait(context.Background()); err == nil {
		t.Fatal("empty AsyncAppend succeeded")
	}
}

// TestBatchShardCrashFailsEveryCaller is the chaos case: a shard crashes
// mid-batch and every coalesced caller must receive its own error — a
// typed *OpError wrapping ErrTimeout — rather than hanging or getting a
// neighbor's result.
func TestBatchShardCrashFailsEveryCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	cl, err := SimpleCluster(TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c := batchedClient(t, cl,
		WithTimeout(300*time.Millisecond),
		WithBatching(BatchConfig{
			MaxBatchDelay: 5 * time.Millisecond,
			MaxInFlight:   2,
		}))

	// Warm up: prove the path works before the fault.
	if _, err := c.AppendCtx(context.Background(), [][]byte{[]byte("warmup")}, types.MasterColor); err != nil {
		t.Fatalf("warmup append: %v", err)
	}

	// Take the whole shard down: crash and isolate every replica so no
	// batch can commit or be acked.
	shards := cl.Topology().ShardsInRegion(types.MasterColor)
	if len(shards) != 1 {
		t.Fatalf("want 1 shard, have %d", len(shards))
	}
	for _, r := range cl.Replicas(shards[0].ID) {
		r.Crash()
		cl.Network().Isolate(r.ID())
	}

	const callers = 8
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := fmt.Appendf(nil, "doomed-%d", g)
			_, err := c.AppendCtx(context.Background(), [][]byte{data}, types.MasterColor)
			errs <- err
		}(g)
	}
	wg.Wait()
	close(errs)

	got := 0
	for err := range errs {
		got++
		if err == nil {
			t.Fatal("append against a fully crashed shard succeeded")
		}
		var oe *OpError
		if !errors.As(err, &oe) {
			t.Fatalf("err %v is not a *OpError", err)
		}
		if oe.Op != "append" || oe.Color != types.MasterColor {
			t.Fatalf("OpError = %+v, want Op=append Color=%v", oe, types.MasterColor)
		}
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err %v does not wrap ErrTimeout", err)
		}
	}
	if got != callers {
		t.Fatalf("%d callers reported, want %d", got, callers)
	}
}

// TestBatchedClientClose checks shutdown: the batch in flight and every
// append queued behind it fail with ErrClosed, each caller individually,
// instead of hanging.
func TestBatchedClientClose(t *testing.T) {
	cl, err := SimpleCluster(TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c := batchedClient(t, cl, WithBatching(BatchConfig{
		MaxBatchDelay: never,
		MaxInFlight:   4,
	}))
	futs := []*AppendFuture{holdBatch(t, cl, c).fut}
	for i := 0; i < 3; i++ {
		futs = append(futs, c.AsyncAppend([][]byte{[]byte("stranded")}, types.MasterColor))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		waitCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := f.Wait(waitCtx)
		cancel()
		var oe *OpError
		if !errors.Is(err, ErrClosed) || !errors.As(err, &oe) {
			t.Fatalf("caller %d: err = %v, want *OpError wrapping ErrClosed", i, err)
		}
	}
	if _, err := c.AppendCtx(context.Background(), [][]byte{[]byte("late")}, types.MasterColor); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}
}

// TestOpErrorShape pins down the typed-error contract beyond the batcher:
// ErrNotFound from Read and context cancellation from TrimCtx both surface
// as *OpError.
func TestOpErrorShape(t *testing.T) {
	cl, err := SimpleCluster(TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}

	_, err = c.Read(types.MakeSN(1, 999), types.MasterColor)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("read of absent SN: %v, want ErrNotFound", err)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Op != "read" {
		t.Fatalf("read error %#v, want *OpError{Op: read}", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.AppendCtx(ctx, [][]byte{[]byte("x")}, types.MasterColor); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled append: %v, want context.Canceled", err)
	}
	if _, _, err := c.TrimCtx(ctx, types.MakeSN(1, 1), types.MasterColor); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled trim: %v, want context.Canceled", err)
	}
	if err := c.MultiAppendCtx(ctx, [][][]byte{{[]byte("x")}}, []types.ColorID{types.MasterColor}, types.MasterColor); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled multi-append: %v, want context.Canceled", err)
	}
}

// TestDefaultClientBatches: a client built without WithBatching batches.
// While the first batch of a (color, shard) is unacknowledged, N
// concurrent AsyncAppends to it must reach the replicas in fewer than N
// AppendBatchReq frames, and no AppendReq is sent. The stub replicas hold
// every ack until all N are submitted; the retry interval is longer than
// the test, so every frame is a first send.
func TestDefaultClientBatches(t *testing.T) {
	const n = 32
	topo := topology.New()
	if err := topo.AddRegion(types.MasterColor, types.MasterColor, 900, nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddShard(1, types.MasterColor, []types.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(transport.ZeroLink())
	t.Cleanup(net.Shutdown)
	var (
		mu       sync.Mutex
		batches  int
		singles  int
		held     []func()
		released bool
	)
	first := make(chan struct{}, 2)
	for _, id := range []types.NodeID{1, 2} {
		var ep transport.Endpoint
		var last uint32 // this replica's SN counter
		ep, err := net.Register(id, func(from types.NodeID, msg transport.Message) {
			mu.Lock()
			defer mu.Unlock()
			var token types.Token
			switch m := msg.(type) {
			case proto.AppendReq:
				singles++
				token, last = m.Token, last+uint32(len(m.Records))
			case proto.AppendBatchReq:
				batches++
				token, last = m.Token, last+uint32(m.NRecords())
			default:
				return
			}
			ack := proto.AppendAck{Token: token, SN: types.MakeSN(1, last)}
			send := func() { ep.Send(from, ack) }
			if released {
				send()
			} else {
				held = append(held, send)
			}
			select {
			case first <- struct{}{}:
			default:
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewClient(ClientConfig{FID: 1, ID: 500, Topo: topo, RetryInterval: time.Minute, Timeout: 10 * time.Second}, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	futs := []*AppendFuture{c.AsyncAppend([][]byte{[]byte("first")}, types.MasterColor)}
	<-first
	<-first // both replicas hold the first batch unacknowledged
	for i := 0; i < n; i++ {
		futs = append(futs, c.AsyncAppend([][]byte{fmt.Appendf(nil, "r%d", i)}, types.MasterColor))
	}
	mu.Lock()
	released = true
	for _, send := range held {
		send()
	}
	mu.Unlock()
	for _, f := range futs {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if singles != 0 {
		t.Errorf("%d AppendReq frames, want none", singles)
	}
	// Each replica sees every frame once: the first batch, then the N.
	t.Logf("%d appends behind an unacknowledged batch: %d AppendBatchReq frames per replica", n, batches/2-1)
	if per := batches/2 - 1; per >= n {
		t.Errorf("%d concurrent appends behind an unacknowledged batch took %d AppendBatchReq frames, want fewer", n, per)
	}
}
