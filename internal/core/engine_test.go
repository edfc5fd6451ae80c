package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"flexlog/internal/qos"
	"flexlog/internal/types"
)

// These tests pin what the request engine (call.go) makes the same for
// every operation: Close ends it with ErrClosed, its context ends it, and
// a failure while a replica was rejecting carries the typed cause and the
// server's hint.

// stuckCluster builds two leaf colors of one single-replica shard each and
// cuts color 1's replica off, so every operation on color 1 — and a
// multi-append brokered by color 2 into color 1 — re-sends or re-rounds
// until something ends it.
func stuckCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := TestClusterConfig()
	cfg.ReplicationFactor = 1
	cfg.ClientTimeout = 3 * time.Second
	cl, err := TreeCluster(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	cl.Network().Isolate(cl.Topology().ShardsInRegion(1)[0].Replicas[0])
	return cl
}

// inFlight reports whether c has a call registered whose key is of the
// given kind.
func inFlight(c *Client, isToken bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.calls {
		if k.isToken == isToken {
			return true
		}
	}
	return false
}

func TestCloseUnblocksEveryOperation(t *testing.T) {
	cl := stuckCluster(t)
	rec := [][]byte{[]byte("x")}
	rows := []struct {
		name    string
		opts    []Option
		isToken bool // the kind of call the operation is parked on
		op      func(c *Client) error
	}{
		{"append", []Option{WithBatching(BatchConfig{MaxBatchBytes: 1})}, true, func(c *Client) error { _, err := c.Append(rec, 1); return err }},
		{"batched append", nil, true, func(c *Client) error { _, err := c.Append(rec, 1); return err }},
		{"read", nil, false, func(c *Client) error { _, err := c.Read(types.MakeSN(1, 1), 1); return err }},
		{"subscribe", nil, false, func(c *Client) error { _, err := c.Subscribe(1, types.InvalidSN); return err }},
		{"trim", nil, false, func(c *Client) error { _, _, err := c.Trim(types.MakeSN(1, 1), 1); return err }},
		// Brokered by the healthy color 2, so staging succeeds and the
		// operation is parked on the end marker (a request-id call).
		{"multi-append", nil, false, func(c *Client) error { return c.MultiAppend([][][]byte{rec}, []types.ColorID{1}, 2) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c, err := cl.NewClient(row.opts...)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- row.op(c) }()
			eventually(t, "the operation to be in flight", func() bool { return inFlight(c, row.isToken) })
			closedAt := time.Now()
			c.Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("err = %v, want ErrClosed", err)
				}
				var oe *OpError
				if !errors.As(err, &oe) {
					t.Fatalf("err = %#v, want an *OpError", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("operation still blocked 10 s after Close")
			}
			// Close is an event the loops select on, not something the next
			// retry tick notices: half the Timeout is a generous bound.
			if d := time.Since(closedAt); d > c.cfg.Timeout/2 {
				t.Fatalf("returned %v after Close, Timeout is %v", d, c.cfg.Timeout)
			}
		})
	}
}

// TestBackoffRetryAfterSurfaces drives a throttled append to its deadline:
// the failure must name the deadline and the typed rejection, and carry
// the server's retry-after hint — in a default batch or a one-record one —
// and a hint longer than the Timeout must not hold the append past it.
func TestBackoffRetryAfterSurfaces(t *testing.T) {
	const tenant = types.TenantID(7)
	const timeout = 300 * time.Millisecond
	cfg := TestClusterConfig()
	cfg.ClientTimeout = timeout
	cfg.Tenants = []qos.TenantConfig{{ID: tenant, Rate: 1, Burst: 1}}
	for _, row := range []struct {
		name string
		opts []Option
	}{
		{"one-record", []Option{WithBatching(BatchConfig{MaxBatchBytes: 1})}},
		{"batched", nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			cl, err := SimpleCluster(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Stop)
			c, err := cl.NewClient(append(row.opts, WithTenant(tenant))...)
			if err != nil {
				t.Fatal(err)
			}
			// An append larger than the bucket is admitted against the full
			// bucket and leaves it six records in debt: at one record a
			// second, nothing more is admitted for the rest of the test.
			if _, err := c.Append(make([][]byte, 6), types.MasterColor); err != nil {
				t.Fatalf("oversize append: %v", err)
			}
			start := time.Now()
			_, err = c.Append([][]byte{[]byte("throttled")}, types.MasterColor)
			if !errors.Is(err, ErrThrottled) || !errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout and ErrThrottled", err)
			}
			var ra *RetryAfterError
			if !errors.As(err, &ra) || ra.After <= 0 {
				t.Fatalf("err = %#v, want a *RetryAfterError with the server's hint", err)
			}
			if d := time.Since(start); d > 4*timeout {
				t.Fatalf("append held %v by a %v hint, Timeout is %v", d, ra.After, timeout)
			}
		})
	}
}

// TestBackoffRetryAfterAtDeadline: an append whose context ends while the
// replicas throttle its batch fails with the typed cause and the server's
// hint beside the deadline, not with a bare context error — the batch's
// retry loop runs under no caller's context, so the future must ask it.
func TestBackoffRetryAfterAtDeadline(t *testing.T) {
	const tenant = types.TenantID(7)
	cfg := TestClusterConfig()
	cfg.Tenants = []qos.TenantConfig{{ID: tenant, Rate: 1}}
	cl, err := SimpleCluster(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := cl.NewClient(WithTenant(tenant))
	if err != nil {
		t.Fatal(err)
	}
	// The first record empties the one-record bucket; at one record a
	// second, nothing more is admitted within the deadline.
	if _, err := c.Append([][]byte{[]byte("admitted")}, types.MasterColor); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err = c.AppendCtx(ctx, [][]byte{[]byte("throttled")}, types.MasterColor)
	if !errors.Is(err, ErrThrottled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline and ErrThrottled", err)
	}
	var ra *RetryAfterError
	if !errors.As(err, &ra) || ra.After <= 0 {
		t.Fatalf("err = %#v, want a *RetryAfterError with the server's hint", err)
	}
}

// TestSubscribeHonoursContext: cancelling SubscribeChan's context ends the
// Subscribe round in flight instead of waiting out the Timeout, and a
// Subscribe failure is an *OpError like every other operation's.
func TestSubscribeHonoursContext(t *testing.T) {
	cl := stuckCluster(t)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := c.SubscribeChan(ctx, 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "a subscribe round to be in flight", func() bool { return inFlight(c, false) })
	cancelledAt := time.Now()
	cancel()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("record from an isolated shard")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream still open 10 s after cancel")
	}
	if d := time.Since(cancelledAt); d > c.cfg.Timeout/2 {
		t.Fatalf("stream closed %v after cancel, Timeout is %v", d, c.cfg.Timeout)
	}

	short, err := cl.NewClient(WithTimeout(50 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = short.Subscribe(1, types.InvalidSN)
	var oe *OpError
	if !errors.Is(err, ErrTimeout) || !errors.As(err, &oe) || oe.Op != "subscribe" {
		t.Fatalf("err = %#v, want *OpError{Op: subscribe} wrapping ErrTimeout", err)
	}
}

// TestTokenAndRequestIDKeySpaces: a FID 0 client's tokens are the
// small integers its request ids are, and the registry must keep the two
// apart — an answer to the request with id n is not an ack of token n.
func TestTokenAndRequestIDKeySpaces(t *testing.T) {
	cl, err := SimpleCluster(TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := cl.NewClient(func(c *ClientConfig) { c.FID = 0 })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sn, err := c.Append([][]byte{{byte(i)}}, types.MasterColor)
		if err != nil {
			t.Fatal(err)
		}
		// A read through the full protocol (no placement hint) and a
		// subscribe, so request ids advance beside the token counter.
		c.mu.Lock()
		c.place = placeCache{}
		c.mu.Unlock()
		if data, err := c.Read(sn, types.MasterColor); err != nil || data[0] != byte(i) {
			t.Fatalf("read %v = %v, %v", sn, data, err)
		}
		if recs, err := c.Subscribe(types.MasterColor, types.InvalidSN); err != nil || len(recs) != i+1 {
			t.Fatalf("subscribe after %d appends: %d records, %v", i+1, len(recs), err)
		}
	}
}
