package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/metrics"
	"flexlog/internal/proto"
	"flexlog/internal/types"
)

// This file implements the client-side append batching & pipelining layer:
// a per-(color, shard) batcher goroutine coalesces concurrent Append calls
// into a single ordering request + data RPC (proto.AppendBatchReq), bounded
// by MaxBatchBytes, with MaxInFlight batches pipelined per shard. It
// batches because the shard is busy, never because a timer says so
// (Nagle's rule with MaxInFlight as the window): with nothing
// unacknowledged the queue leaves at once; behind unacknowledged batches
// it is held until they are all acknowledged, it fills a batch, or its
// oldest record has waited MaxBatchDelay. Because a batch is persisted and
// ordered as one unit, its records occupy one consecutive SN range in
// enqueue order, so per-caller completion is demultiplexed from the last
// SN alone — no per-record acks on the wire.

// AppendFuture is the handle returned by AsyncAppend: the eventual SN of
// the caller's last record, or the per-record error if the batch failed.
type AppendFuture struct {
	color types.ColorID
	done  chan struct{}
	sn    types.SN
	err   error
	// batch is the append call carrying the caller's records, once sent:
	// a wait that ends on its context reports why replicas were refusing
	// it.
	batch atomic.Pointer[appendCall]
}

func newAppendFuture(color types.ColorID) *AppendFuture {
	return &AppendFuture{color: color, done: make(chan struct{})}
}

// complete resolves the future. Called exactly once, by the batcher (or by
// the constructor for immediate validation failures).
func (f *AppendFuture) complete(sn types.SN, err error) {
	f.sn, f.err = sn, err
	close(f.done)
}

// failedFuture returns an already-resolved future (validation errors).
func failedFuture(color types.ColorID, err error) *AppendFuture {
	f := newAppendFuture(color)
	f.complete(types.InvalidSN, opError("append", color, types.InvalidSN, err))
	return f
}

// Wait blocks for completion or context cancellation and returns the SN of
// the caller's last record. Cancellation abandons the wait, not the
// append: the records may still commit. If replicas were rejecting the
// sent batch when the context ended, the error carries the typed cause
// and the retry-after hint, as every other operation's does (call.go).
func (f *AppendFuture) Wait(ctx context.Context) (types.SN, error) {
	select {
	case <-f.done:
		return f.sn, f.err
	case <-ctx.Done():
		err := ctx.Err()
		if a := f.batch.Load(); a != nil {
			err = a.c.failure(&a.call, err)
		}
		return types.InvalidSN, opError("append", f.color, types.InvalidSN, err)
	}
}

// ClientMetrics exposes the client's per-client instrumentation: the
// batching layer's and the appends that ended in ErrSNConflict.
type ClientMetrics struct {
	// BatchRecords/BatchBytes are value histograms of flushed batch sizes.
	BatchRecords *metrics.Histogram
	BatchBytes   *metrics.Histogram
	// QueueDelay is the time the oldest record of each batch spent queued
	// before its flush.
	QueueDelay *metrics.Histogram
	// Batches and BatchedAppends count flushed batches and the records
	// they carried.
	Batches        *metrics.Counter
	BatchedAppends *metrics.Counter
	// SNConflicts counts appends (batches and multi-append staging sets)
	// that failed with ErrSNConflict.
	SNConflicts *metrics.Counter
}

func newClientMetrics() *ClientMetrics {
	return &ClientMetrics{
		BatchRecords:   metrics.NewHistogram(),
		BatchBytes:     metrics.NewHistogram(),
		QueueDelay:     metrics.NewHistogram(),
		Batches:        metrics.NewCounter(),
		BatchedAppends: metrics.NewCounter(),
		SNConflicts:    metrics.NewCounter(),
	}
}

// Metrics returns the client's batching instrumentation.
func (c *Client) Metrics() *ClientMetrics { return c.met }

// pendingAppend is one caller's enqueued record set.
type pendingAppend struct {
	records  [][]byte
	bytes    int
	fut      *AppendFuture
	enqueued time.Time
}

// batcherKey routes appends to their per-(color, shard) batcher.
type batcherKey struct {
	color types.ColorID
	shard types.ShardID
}

// shardBatcher coalesces appends bound for one (color, shard) pair.
type shardBatcher struct {
	c     *Client
	color types.ColorID
	shard types.ShardID // the membership is resolved per batch, never cached
	cfg   BatchConfig

	mu          sync.Mutex
	queue       []*pendingAppend
	queuedBytes int
	inFlight    int // unacknowledged batches, at most MaxInFlight

	// wake is signalled (non-blocking) when the answer of releaseLocked may
	// have changed: on enqueue, and when a batch leaves flight.
	wake chan struct{}
}

func newShardBatcher(c *Client, color types.ColorID, shard types.ShardID, cfg BatchConfig) *shardBatcher {
	return &shardBatcher{
		c:     c,
		color: color,
		shard: shard,
		cfg:   cfg,
		wake:  make(chan struct{}, 1),
	}
}

// enqueueAppend hands a record set to the batcher for its color and a
// randomly chosen shard, creating the batcher on first use.
func (c *Client) enqueueAppend(records [][]byte, color types.ColorID) (*AppendFuture, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	shard, err := c.topo.RandomShard(color, c.rng)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	key := batcherKey{color, shard.ID}
	b := c.batchers[key]
	if b == nil {
		b = newShardBatcher(c, color, shard.ID, c.cfg.Batch)
		c.batchers[key] = b
		go b.run()
	}
	c.mu.Unlock()
	return b.enqueue(records), nil
}

func (b *shardBatcher) enqueue(records [][]byte) *AppendFuture {
	n := 0
	for _, r := range records {
		n += len(r)
	}
	fut := newAppendFuture(b.color)
	b.mu.Lock()
	b.queue = append(b.queue, &pendingAppend{records: records, bytes: n, fut: fut, enqueued: time.Now()})
	b.queuedBytes += n
	b.mu.Unlock()
	b.signal()
	return fut
}

func (b *shardBatcher) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// run is the batcher goroutine, the only sender: it cuts and broadcasts
// every batch the policy releases and otherwise sleeps until an append, an
// acknowledgement or the oldest record's MaxBatchDelay changes the answer.
// The first broadcast happens inline so batches reach the replicas in
// flush order (FIFO links then keep the sequencer's SN ranges in that
// order on the happy path). Appends enqueued while it wakes up or sends
// ride in the next cut, so a burst leaves as one batch without any linger.
func (b *shardBatcher) run() {
	held := time.NewTimer(time.Hour) // the MaxBatchDelay cap on a held queue
	defer held.Stop()
	for {
		b.mu.Lock()
		send, wait := b.releaseLocked()
		var items []*pendingAppend
		var recs, bytes int
		if send {
			items, recs, bytes = b.cutLocked()
			b.inFlight++
		}
		b.mu.Unlock()
		if send {
			b.flush(items, recs, bytes)
			continue
		}
		var capC <-chan time.Time // a stale tick only costs one more pass
		if wait > 0 {
			held.Reset(wait)
			capC = held.C
		}
		select {
		case <-b.wake:
		case <-capC:
		case <-b.c.closedCh:
			b.drain()
			return
		}
	}
}

// releaseLocked applies the batching policy to the queue. send reports
// that a batch may leave now; otherwise wait, when positive, is how long
// until the oldest record's MaxBatchDelay releases it (zero: only an
// append or an acknowledgement can).
func (b *shardBatcher) releaseLocked() (send bool, wait time.Duration) {
	switch {
	case len(b.queue) == 0 || b.inFlight >= b.cfg.MaxInFlight:
		return false, 0
	case b.inFlight == 0 || b.cfg.MaxBatchDelay <= 0:
		return true, 0
	case b.queuedBytes >= b.cfg.MaxBatchBytes:
		return true, 0
	}
	wait = time.Until(b.queue[0].enqueued.Add(b.cfg.MaxBatchDelay))
	return wait <= 0, wait
}

// cutLocked takes whole record sets off the queue head until the next set would
// carry the batch past MaxBatchBytes. A single oversized set forms its own batch —
// a caller's records are never split across ordering requests (they must
// receive one consecutive SN range).
func (b *shardBatcher) cutLocked() (items []*pendingAppend, recs, bytes int) {
	i := 0
	for ; i < len(b.queue); i++ {
		it := b.queue[i]
		if i > 0 && bytes+it.bytes > b.cfg.MaxBatchBytes {
			break
		}
		recs += len(it.records)
		bytes += it.bytes
	}
	items = b.queue[:i:i]
	b.queue = b.queue[i:]
	b.queuedBytes -= bytes
	return items, recs, bytes
}

// flush sends one coalesced batch: start its append inline (flush order
// is broadcast order), then hand retries and completion to a goroutine so
// the next batch can pipeline behind this one. The batcher outlives
// reconfigurations of its shard and startAppend resolves the membership
// per batch: a replica added since the batcher was created must persist and
// acknowledge the batch too.
func (b *shardBatcher) flush(items []*pendingAppend, recs, bytes int) {
	c := b.c
	sets := make([][][]byte, len(items))
	for i, it := range items {
		sets[i] = it.records
	}
	queued := time.Since(items[0].enqueued)
	token := c.nextToken()
	a, err := c.startAppend(b.shard, token, proto.AppendBatchReq{Color: b.color, Token: token, Sets: sets, Client: c.cfg.ID, Tenant: c.cfg.Tenant})
	if err != nil {
		b.landed()
		b.fail(items, err)
		return
	}
	c.met.BatchRecords.RecordValue(uint64(recs))
	c.met.BatchBytes.RecordValue(uint64(bytes))
	c.met.QueueDelay.Record(queued)
	c.met.Batches.Add(1)
	for _, it := range items {
		it.fut.batch.Store(a)
	}
	go func() {
		defer b.landed()
		defer a.retire()
		// The batch belongs to no single caller: only Close abandons it.
		if err := c.await(context.Background(), &a.call, a.resend); err != nil {
			b.fail(items, err)
			return
		}
		b.complete(items, recs, a.sn)
	}()
}

// landed takes one batch out of flight and, if appends queued behind it,
// tells the batcher goroutine, which releases them once nothing else is in
// flight (or already may: the window just reopened).
func (b *shardBatcher) landed() {
	b.mu.Lock()
	b.inFlight--
	held := len(b.queue) > 0
	b.mu.Unlock()
	if held {
		b.signal()
	}
}

// complete demultiplexes the batch's last SN into per-caller SNs: the sets
// occupy [last-recs+1, last] in enqueue order, so caller i's last record
// sits at last - (records after set i).
func (b *shardBatcher) complete(items []*pendingAppend, recs int, last types.SN) {
	if !last.Valid() {
		b.fail(items, fmt.Errorf("flexlog: batch committed without an SN"))
		return
	}
	b.c.rememberPlacement(b.color, last, recs, b.shard)
	b.c.met.BatchedAppends.Add(uint64(recs))
	cum := 0
	for _, it := range items {
		cum += len(it.records)
		it.fut.complete(last-types.SN(recs-cum), nil)
	}
}

// fail delivers err to every caller of the batch, individually wrapped.
func (b *shardBatcher) fail(items []*pendingAppend, err error) {
	for _, it := range items {
		it.fut.complete(types.InvalidSN, opError("append", b.color, types.InvalidSN, err))
	}
}

// drain fails everything still queued (shutdown path).
func (b *shardBatcher) drain() {
	b.mu.Lock()
	items := b.queue
	b.queue = nil
	b.queuedBytes = 0
	b.mu.Unlock()
	b.fail(items, ErrClosed)
}
