// Package core is FlexLog's public API: the client handle implementing the
// operations of Table 2 (Append, Read, Subscribe, Trim, AddColor) plus the
// atomic multi-color append of §6.4, and the Cluster harness that deploys a
// complete FlexLog — sequencer tree, shards, replicas — either in-process
// (with the calibrated latency models) or over TCP.
//
// # The v2 client API
//
// The hot-path operations have context-first variants — AppendCtx, ReadCtx,
// TrimCtx, MultiAppendCtx — that honor cancellation and deadlines; the
// legacy Table-2 methods are thin wrappers over them with a background
// context. AsyncAppend returns an AppendFuture for fire-and-collect
// pipelining. Errors are typed: every operation returns a *OpError wrapping
// the sentinel causes (ErrNotFound, ErrTimeout, ErrClosed, context errors),
// so callers use errors.Is / errors.As.
//
// Clients are built with functional options (see Connect and
// Cluster.NewClient). The defaults are: RetryInterval 50ms, Timeout 10s,
// shard-selection seed derived from the FID, and batching disabled. With
// WithBatching, concurrent appends to one color are coalesced per shard
// into single ordering requests + data RPCs, bounded by
// BatchConfig.{MaxBatchRecords,MaxBatchBytes,MaxBatchDelay}, with
// MaxInFlight batches pipelined per shard (see batcher.go).
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/proto"
	"flexlog/internal/replica"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

var (
	// ErrNotFound is the ⊥ result: no record with that SN exists (§6.1).
	ErrNotFound = errors.New("flexlog: record not found")
	// ErrTimeout is returned when an operation exceeds its deadline.
	ErrTimeout = errors.New("flexlog: operation timed out")
	// ErrClosed is returned after the client is closed.
	ErrClosed = errors.New("flexlog: client closed")
	// ErrEvicted qualifies a read failure: every answering replica had the
	// record evicted to its cold storage tier and could not serve it there
	// (a transient condition, e.g. mid-recovery). Reads retry it
	// internally; when it survives to the caller it wraps ErrTimeout.
	ErrEvicted = errors.New("flexlog: record evicted and cold tier unavailable")
	// ErrCheckpointTruncated qualifies ErrNotFound: the SN lies below the
	// replicas' checkpoint recovery floor — trimmed and truncated from
	// the recoverable log. Terminal; retrying cannot succeed.
	ErrCheckpointTruncated = errors.New("flexlog: record below checkpoint recovery floor")
	// ErrOverloaded is QoS backpressure: a replica's service lane shed the
	// request from a full per-tenant queue. Transient — the client retries
	// internally, honoring the server's retry-after hint; it surfaces only
	// when the overload outlasts the operation's deadline.
	ErrOverloaded = errors.New("flexlog: server overloaded")
	// ErrThrottled is admission control: the tenant exceeded its configured
	// append rate and the replica rejected the request before processing
	// it. Like ErrOverloaded it is retried internally with the server's
	// retry-after hint and surfaces only past the deadline.
	ErrThrottled = errors.New("flexlog: tenant rate limit exceeded")
	// ErrReconfiguring is the control plane's typed rejection: the target
	// replica is draining (or its whole shard is being merged away) and no
	// longer accepts appends. Retryable — the client re-resolves the
	// topology on every retry tick, so an append normally completes against
	// the post-reconfiguration membership; the error surfaces only when the
	// shard disappears mid-operation or the reconfiguration outlasts the
	// deadline. Callers retry with a fresh append (the usual §6.3
	// re-execution), which lands on the surviving shards.
	ErrReconfiguring = errors.New("flexlog: shard reconfiguring")
)

// ClientConfig parameterizes a client handle.
type ClientConfig struct {
	FID  uint32 // distinct function id (Alg. 1: token = (FID<<32)+counter)
	ID   types.NodeID
	Topo *topology.Topology

	// RetryInterval re-broadcasts an unanswered request (idempotent).
	RetryInterval time.Duration
	// Timeout bounds every blocking operation.
	Timeout time.Duration
	// Batch configures client-side append batching & pipelining; the zero
	// value disables it (see WithBatching).
	Batch BatchConfig
	// Tenant is the identity carried in this client's append and read
	// requests; replicas map it onto QoS weight, rate and accounting.
	// The zero value is the default tenant (never throttled).
	Tenant types.TenantID
	// Hedge configures read hedging; the zero value disables it (see
	// WithHedging).
	Hedge HedgeConfig
}

// Client is a FlexLog handle used by one serverless function. It is safe
// for concurrent use.
type Client struct {
	cfg   ClientConfig
	topo  *topology.Topology
	ep    transport.Endpoint
	adder ColorAdder

	counter atomic.Uint32 // token counter (Alg. 1 line 3)
	reqSeq  atomic.Uint64 // correlation ids for read/subscribe/trim/multi

	met      *ClientMetrics
	closedCh chan struct{} // closed by Close; unblocks batchers and waiters

	// Read hedging state (see hedge.go).
	readLat    latencyTracker
	hedges     atomic.Uint64 // read rounds that sent backup requests
	readRounds atomic.Uint64 // all read rounds (the hedge budget's base)

	mu       sync.Mutex
	rng      *rand.Rand
	appends  map[types.Token]*appendWait
	reads    map[uint64]*readWait
	subs     map[uint64]*subWait
	trims    map[uint64]*trimWaitC
	multis   map[uint64]*multiWait
	batchers map[batcherKey]*shardBatcher
	closed   bool

	// place is the client-side placement cache: SNs this client appended
	// (or read) mapped to the shard storing them. A hit lets Read query a
	// single replica of one shard instead of one replica of every shard;
	// a stale hint degrades gracefully to the full protocol.
	place map[placeKey]types.ShardID
}

type placeKey struct {
	color types.ColorID
	sn    types.SN
}

// placeCacheLimit bounds the placement cache.
const placeCacheLimit = 8192

// ColorAdder provisions new colored regions (Table 2 AddColor). The
// in-process Cluster implements it; TCP deployments provision statically.
type ColorAdder interface {
	AddColor(color, parent types.ColorID) error
}

type appendWait struct {
	shard  types.ShardID
	needed map[types.NodeID]bool
	acked  map[types.NodeID]bool // responders so far, kept across membership changes
	sn     types.SN
	rej    error         // last QoS rejection cause (ErrThrottled/ErrOverloaded/ErrReconfiguring)
	hint   time.Duration // server retry-after hint; consumed by the retry loop
	done   chan struct{}
	closed bool
}

type readWait struct {
	waiting  int                   // shards that have not answered
	seen     map[types.NodeID]bool // responders counted (dup-delivery safe)
	shardOf  map[types.NodeID]int  // replica → shard slot (primaries + hedges)
	answered []bool                // per-shard: first response landed
	data     []byte
	found    bool
	status   uint8         // highest proto.ReadStatus* across ⊥ responses
	rej      error         // QoS rejection cause, if any replica shed the read
	hint     time.Duration // server retry-after hint
	done     chan struct{}
	closed   bool
}

type subWait struct {
	waiting int
	seen    map[types.NodeID]bool
	records []proto.WireRecord
	done    chan struct{}
	closed  bool
}

type trimWaitC struct {
	waiting int
	seen    map[types.NodeID]bool
	head    types.SN
	tail    types.SN
	done    chan struct{}
	closed  bool
}

type multiWait struct {
	done   chan struct{}
	closed bool
}

// NewClient attaches a client to the in-process network. Options, if any,
// are applied on top of cfg.
func NewClient(cfg ClientConfig, net *transport.Network, opts ...Option) (*Client, error) {
	c := newClient(cfg, opts)
	ep, err := net.Register(c.cfg.ID, c.handle)
	if err != nil {
		return nil, err
	}
	c.ep = ep
	return c, nil
}

// NewClientWithEndpoint attaches a client over a custom endpoint (TCP).
func NewClientWithEndpoint(cfg ClientConfig, attach func(h transport.Handler) (transport.Endpoint, error), opts ...Option) (*Client, error) {
	c := newClient(cfg, opts)
	ep, err := attach(c.handle)
	if err != nil {
		return nil, err
	}
	c.ep = ep
	return c, nil
}

func newClient(cfg ClientConfig, opts []Option) *Client {
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 50 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Batch.enabled() {
		cfg.Batch = cfg.Batch.withDefaults()
	}
	return &Client{
		cfg:      cfg,
		topo:     cfg.Topo,
		met:      newClientMetrics(),
		closedCh: make(chan struct{}),
		rng:      rand.New(rand.NewSource(int64(cfg.FID)*2654435761 + 1)), // shard selection
		appends:  make(map[types.Token]*appendWait),
		reads:    make(map[uint64]*readWait),
		subs:     make(map[uint64]*subWait),
		trims:    make(map[uint64]*trimWaitC),
		multis:   make(map[uint64]*multiWait),
		batchers: make(map[batcherKey]*shardBatcher),
		place:    make(map[placeKey]types.ShardID),
	}
}

// rememberPlacement records which shard stores the SN range ending at last.
func (c *Client) rememberPlacement(color types.ColorID, last types.SN, n int, shard types.ShardID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		if len(c.place) >= placeCacheLimit {
			for k := range c.place { // drop an arbitrary entry
				delete(c.place, k)
				break
			}
		}
		c.place[placeKey{color, last - types.SN(i)}] = shard
	}
}

// placement looks a cached SN location up.
func (c *Client) placement(color types.ColorID, sn types.SN) (types.ShardID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, ok := c.place[placeKey{color, sn}]
	return sh, ok
}

// FID returns the client's function id.
func (c *Client) FID() uint32 { return c.cfg.FID }

// ID returns the client's node id on the network.
func (c *Client) ID() types.NodeID { return c.cfg.ID }

// SetColorAdder wires the provisioning backend used by AddColor.
func (c *Client) SetColorAdder(a ColorAdder) { c.adder = a }

// Close detaches the client. Queued and in-flight batched appends fail
// with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if !already {
		close(c.closedCh)
	}
	return c.ep.Close()
}

func (c *Client) nextToken() types.Token {
	return types.MakeToken(c.cfg.FID, c.counter.Add(1))
}

// handle dispatches responses to their waiters.
func (c *Client) handle(from types.NodeID, msg transport.Message) {
	switch m := msg.(type) {
	case proto.AppendAck:
		c.mu.Lock()
		w := c.appends[m.Token]
		// The closed guard covers every mutation, not just the close: a
		// duplicated ack (lossy-link DupProb) arriving after completion
		// must not touch w.sn while the waiter is reading it.
		if w != nil && !w.closed {
			delete(w.needed, from)
			w.acked[from] = true
			if m.SN.Valid() {
				w.sn = m.SN
			}
			if len(w.needed) == 0 && c.everyMemberAcked(w) {
				w.closed = true
				close(w.done)
			}
		}
		c.mu.Unlock()
	case proto.ReadResp:
		c.mu.Lock()
		w := c.reads[m.ID]
		// Count each responder once: a duplicated response must not
		// double-decrement waiting, or an all-⊥ round could complete with
		// a shard still unanswered and report a spurious ⊥. Accounting is
		// per shard, not per replica: with hedging two replicas of one
		// shard may both answer, and only the first counts.
		if w != nil && !w.closed && !w.seen[from] {
			w.seen[from] = true
			if si, ok := w.shardOf[from]; ok && !w.answered[si] {
				w.answered[si] = true
				w.waiting--
			}
			if m.Found {
				w.data, w.found = m.Data, true
			} else if m.Status > w.status {
				// ⊥ qualifiers merge by precedence (evicted > checkpoint-
				// truncated > trimmed > none), see proto.ReadStatus*.
				w.status = m.Status
			}
			// First hit wins; all-⊥ completes when every shard answered.
			if w.found || w.waiting <= 0 {
				w.closed = true
				close(w.done)
			}
		}
		c.mu.Unlock()
	case proto.Reject:
		// Typed QoS backpressure: a replica refused the request — admission
		// control (throttled, with a refill-derived retry-after) or a full
		// lane queue (overloaded). The waiter records the cause and hint;
		// the retry loops wait max(hint, backoff) before re-driving and
		// surface the cause if the deadline passes first.
		cause := ErrOverloaded
		switch m.Code {
		case proto.RejectThrottled:
			cause = ErrThrottled
		case proto.RejectReconfiguring:
			cause = ErrReconfiguring
		}
		c.mu.Lock()
		if !m.IsRead {
			if w := c.appends[m.Token]; w != nil && !w.closed {
				w.rej, w.hint = cause, m.RetryAfter()
			}
		} else if w := c.reads[m.ID]; w != nil && !w.closed && !w.seen[from] {
			// A shed read counts as the shard's (non-authoritative) answer:
			// the round completes without it and the caller retries.
			w.seen[from] = true
			w.rej, w.hint = cause, m.RetryAfter()
			if si, ok := w.shardOf[from]; ok && !w.answered[si] {
				w.answered[si] = true
				w.waiting--
			}
			if w.waiting <= 0 {
				w.closed = true
				close(w.done)
			}
		}
		c.mu.Unlock()
	case proto.SubscribeResp:
		c.mu.Lock()
		w := c.subs[m.ID]
		if w != nil && !w.closed && !w.seen[from] {
			w.seen[from] = true
			w.waiting--
			w.records = append(w.records, m.Records...)
			if w.waiting <= 0 {
				w.closed = true
				close(w.done)
			}
		}
		c.mu.Unlock()
	case proto.TrimAck:
		c.mu.Lock()
		w := c.trims[m.ID]
		if w != nil && !w.closed && !w.seen[from] {
			w.seen[from] = true
			w.waiting--
			// Replicas report their local bounds; the color's global head
			// is the smallest surviving SN, the tail the largest.
			if m.Head.Valid() && (!w.head.Valid() || m.Head < w.head) {
				w.head = m.Head
			}
			if m.Tail > w.tail {
				w.tail = m.Tail
			}
			if w.waiting <= 0 {
				w.closed = true
				close(w.done)
			}
		}
		c.mu.Unlock()
	case proto.MultiAppendAck:
		c.mu.Lock()
		w := c.multis[m.ID]
		if w != nil && !w.closed {
			// Alg. 2 line 6: "wait(ack) from any replica in shard".
			w.closed = true
			close(w.done)
		}
		c.mu.Unlock()
	}
}

// everyMemberAcked closes the window between resolving an append's shard
// membership and completing it: a replica promoted into the shard in
// between is not in the barrier the append was sent with, and an append
// the old members alone acknowledged after the promotion's sync-phase is
// missing on the new one for good. So the membership is resolved once more
// when the barrier empties, and a member that has not acked goes back into
// it — the waiter's next retry tick sends it the request. Caller holds c.mu.
func (c *Client) everyMemberAcked(w *appendWait) bool {
	cur, err := c.topo.Shard(w.shard)
	if err != nil {
		return true // shard removed: its records migrated with the members that acked
	}
	return w.covers(cur.Replicas)
}

// covers puts every given member that has not acked into the barrier and
// reports whether the barrier is empty. Caller holds the client's mu.
func (w *appendWait) covers(members []types.NodeID) bool {
	for _, id := range members {
		if !w.acked[id] {
			w.needed[id] = true
		}
	}
	return len(w.needed) == 0
}

// Append appends records to the log of color c and returns the SN of the
// last record (Table 2; Alg. 1 client role). The call completes only after
// every replica of the chosen shard committed and acknowledged the batch.
// Legacy wrapper over AppendCtx.
func (c *Client) Append(records [][]byte, color types.ColorID) (types.SN, error) {
	return c.AppendCtx(context.Background(), records, color)
}

// AppendCtx is the context-first append: it honors cancellation and
// deadlines on top of the client's configured Timeout. With batching
// enabled the call is coalesced with concurrent appends to the same color
// (see batcher.go); cancellation then abandons the wait, not the batch —
// the records may still commit.
func (c *Client) AppendCtx(ctx context.Context, records [][]byte, color types.ColorID) (types.SN, error) {
	if len(records) == 0 {
		return types.InvalidSN, opError("append", color, types.InvalidSN, fmt.Errorf("empty append"))
	}
	tr := obs.FromContext(ctx) // nil-safe span recording
	if c.cfg.Batch.enabled() {
		fut, err := c.enqueueAppend(records, color)
		if err != nil {
			return types.InvalidSN, opError("append", color, types.InvalidSN, err)
		}
		endWait := tr.StartSpan("batch_wait")
		sn, err := fut.Wait(ctx)
		endWait()
		return sn, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return types.InvalidSN, opError("append", color, types.InvalidSN, ErrClosed)
	}
	shard, err := c.topo.RandomShard(color, c.rng)
	c.mu.Unlock()
	if err != nil {
		return types.InvalidSN, opError("append", color, types.InvalidSN, err)
	}
	endRTT := tr.StartSpan("append_rtt")
	sn, _, err := c.appendToShard(ctx, records, color, shard)
	endRTT()
	if err != nil {
		return types.InvalidSN, opError("append", color, types.InvalidSN, err)
	}
	if sn.Valid() {
		c.rememberPlacement(color, sn, len(records), shard.ID)
	}
	return sn, nil
}

// AsyncAppend submits an append and returns immediately with a future for
// its SN. With batching enabled the future resolves when the record's
// batch commits; without, a goroutine drives a plain append. Futures of
// failed validation resolve immediately.
func (c *Client) AsyncAppend(records [][]byte, color types.ColorID) *AppendFuture {
	if len(records) == 0 {
		return failedFuture(color, fmt.Errorf("empty append"))
	}
	if c.cfg.Batch.enabled() {
		fut, err := c.enqueueAppend(records, color)
		if err != nil {
			return failedFuture(color, err)
		}
		return fut
	}
	fut := newAppendFuture(color)
	go func() {
		sn, err := c.AppendCtx(context.Background(), records, color)
		fut.complete(sn, err)
	}()
	return fut
}

// appendToShard runs the append protocol against a specific shard and
// returns the assigned SN together with the token used.
func (c *Client) appendToShard(ctx context.Context, records [][]byte, color types.ColorID, shard topology.ShardInfo) (types.SN, types.Token, error) {
	token := c.nextToken()
	w := &appendWait{
		shard:  shard.ID,
		needed: make(map[types.NodeID]bool, len(shard.Replicas)),
		acked:  make(map[types.NodeID]bool, len(shard.Replicas)),
		done:   make(chan struct{}),
	}
	for _, id := range shard.Replicas {
		w.needed[id] = true
	}
	c.mu.Lock()
	c.appends[token] = w
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.appends, token)
		c.mu.Unlock()
	}()

	req := proto.AppendReq{Color: color, Token: token, Records: records, Client: c.cfg.ID, Tenant: c.cfg.Tenant}
	deadline := time.Now().Add(c.cfg.Timeout)
	bo := c.newBackoff()
	for {
		c.ep.Broadcast(shard.Replicas, req)
		select {
		case <-w.done:
			return w.sn, token, nil
		case <-ctx.Done():
			c.mu.Lock()
			rej, hint := w.rej, w.hint
			c.mu.Unlock()
			if rej != nil {
				// The caller's deadline passed while the server was
				// rejecting: overload is never silent, so the error carries
				// both the context sentinel and the typed QoS cause (plus
				// the server's hint, for callers driving their own retries).
				return types.InvalidSN, token, &RetryAfterError{
					Err:   fmt.Errorf("%w: %w: append %v to %v", ctx.Err(), rej, token, color),
					After: hint,
				}
			}
			return types.InvalidSN, token, ctx.Err()
		case <-time.After(bo.nextAfter(c.takeAppendHint(w))):
			if time.Now().After(deadline) {
				c.mu.Lock()
				rej, hint := w.rej, w.hint
				c.mu.Unlock()
				if rej != nil {
					// The deadline passed while the server was rejecting:
					// surface the typed QoS cause, not a bare timeout.
					return types.InvalidSN, token, &RetryAfterError{
						Err:   fmt.Errorf("%w: append %v to %v", rej, token, color),
						After: hint,
					}
				}
				return types.InvalidSN, token, fmt.Errorf("%w: append %v to %v", ErrTimeout, token, color)
			}
			// Epoch fencing: the shard's membership may have changed under
			// this append (replica drained out, or a caught-up replica
			// promoted in). Re-resolve before re-broadcasting and rebuild
			// the ack barrier as the CURRENT members minus those that
			// already acked — a departed replica can no longer wedge the
			// wait, a newly promoted one must ack before completion. A
			// shard removed outright (merge cutover) surfaces the typed
			// retryable rejection.
			cur, err := c.topo.Shard(shard.ID)
			if err != nil {
				c.mu.Lock()
				hint := w.hint
				c.mu.Unlock()
				return types.InvalidSN, token, &RetryAfterError{
					Err:   fmt.Errorf("%w: shard %v removed during append %v to %v", ErrReconfiguring, shard.ID, token, color),
					After: hint,
				}
			}
			shard = cur
			c.mu.Lock()
			if !w.closed {
				clear(w.needed)
				if w.covers(cur.Replicas) {
					w.closed = true
					close(w.done)
				}
			}
			c.mu.Unlock()
			select {
			case <-w.done:
				return w.sn, token, nil
			default:
			}
		}
	}
}

// takeAppendHint consumes the wait's pending retry-after hint (one-shot:
// each rejection stretches exactly one retry interval).
func (c *Client) takeAppendHint(w *appendWait) time.Duration {
	c.mu.Lock()
	hint := w.hint
	w.hint = 0
	c.mu.Unlock()
	return hint
}

// Read returns the record with the given SN from the c-colored log, or
// ErrNotFound for ⊥ (Table 2; §6.1). One replica of every shard of the
// color is consulted; only the shard storing the record answers non-⊥.
// Legacy wrapper over ReadCtx.
func (c *Client) Read(sn types.SN, color types.ColorID) ([]byte, error) {
	return c.ReadCtx(context.Background(), sn, color)
}

// ReadCtx is the context-first read: it honors cancellation and deadlines
// between (and within) retry rounds.
func (c *Client) ReadCtx(ctx context.Context, sn types.SN, color types.ColorID) ([]byte, error) {
	defer obs.FromContext(ctx).StartSpan("read_rtt")()
	shards := c.topo.ShardsInRegion(color)
	if len(shards) == 0 {
		return nil, opError("read", color, sn, fmt.Errorf("no shards"))
	}
	// Placement fast path: if the client knows which shard stores the SN
	// (it appended it), ask a single replica of that shard only. A miss
	// (stale hint, trimmed record) falls back to the full protocol.
	if shardID, ok := c.placement(color, sn); ok {
		if sh, err := c.topo.Shard(shardID); err == nil {
			if data, err := c.readOnce(ctx, sn, color, []topology.ShardInfo{sh}, c.cfg.RetryInterval); err == nil {
				return data, nil
			}
		}
	}
	deadline := time.Now().Add(c.cfg.Timeout)
	bo := c.newBackoff()
	var hint time.Duration
	for {
		// The round window doubles as the retry pacing; a server retry-after
		// hint from the previous round stretches it (max of hint and the
		// jittered backoff), so a throttled client never hammers.
		data, err := c.readOnce(ctx, sn, color, shards, bo.nextAfter(hint))
		if err == nil {
			return data, nil
		}
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrClosed) || ctx.Err() != nil {
			return nil, opError("read", color, sn, err)
		}
		if time.Now().After(deadline) {
			// Keep the last round's cause matchable (e.g. ErrEvicted when
			// every retry found the cold tier unavailable).
			return nil, opError("read", color, sn, fmt.Errorf("%w: read %v of %v: %w", ErrTimeout, sn, color, err))
		}
		hint = retryAfterHint(err)
		// Retry against (probably) different replicas — the paper's §6.3
		// "forces the FaaS application to re-execute the read" — and
		// against the CURRENT shard set: a shard split mid-read must be
		// consulted in the next round (the record may land there), a
		// merged-away shard must not wedge it (epoch fencing).
		if cur := c.topo.ShardsInRegion(color); len(cur) > 0 {
			shards = cur
		}
	}
}

// readOnce runs one round of the read protocol against one replica of each
// given shard. It returns ErrNotFound when every shard answered ⊥ and
// ErrTimeout when some shard did not answer within the given window.
func (c *Client) readOnce(ctx context.Context, sn types.SN, color types.ColorID, shards []topology.ShardInfo, window time.Duration) ([]byte, error) {
	id := c.reqSeq.Add(1)
	start := time.Now()
	c.readRounds.Add(1)
	w := &readWait{
		waiting:  len(shards),
		seen:     make(map[types.NodeID]bool, len(shards)),
		shardOf:  make(map[types.NodeID]int, len(shards)),
		answered: make([]bool, len(shards)),
		done:     make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.reads[id] = w
	targets := make([]types.NodeID, len(shards))
	for i, sh := range shards {
		targets[i] = sh.Replicas[c.rng.Intn(len(sh.Replicas))]
		w.shardOf[targets[i]] = i
	}
	c.mu.Unlock()

	req := proto.ReadReq{ID: id, Color: color, SN: sn, Client: c.cfg.ID, Tenant: c.cfg.Tenant}
	for _, t := range targets {
		c.ep.Send(t, req)
	}
	var timedOut bool
	var ctxErr error
	remaining := window
	// Hedging leg: when the round outlives the straggler threshold (and the
	// hedge budget allows), clone the request to a backup replica per shard
	// and keep waiting — first response per shard wins.
	if hd := c.hedgeDelay(); hd > 0 && hd < window && c.hedgeAllowed() {
		select {
		case <-w.done:
		case <-ctx.Done():
			ctxErr = ctx.Err()
		case <-time.After(hd):
			c.sendHedges(w, req, shards, targets)
			remaining = window - hd
		}
	}
	roundOver := ctxErr != nil
	if !roundOver {
		select {
		case <-w.done:
			roundOver = true
		default:
		}
	}
	if !roundOver {
		select {
		case <-w.done:
		case <-ctx.Done():
			ctxErr = ctx.Err()
		case <-time.After(remaining):
			timedOut = true
		}
	}
	c.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.done)
	}
	delete(c.reads, id)
	found, data, status := w.found, w.data, w.status
	rej, hint := w.rej, w.hint
	c.mu.Unlock()
	if found {
		c.readLat.record(time.Since(start))
		return data, nil
	}
	if ctxErr != nil {
		if rej != nil {
			// As on the append path: a caller deadline must not mask an
			// active QoS rejection.
			return nil, &RetryAfterError{Err: fmt.Errorf("%w: %w: read round", ctxErr, rej), After: hint}
		}
		return nil, ctxErr
	}
	if timedOut {
		return nil, fmt.Errorf("%w: read round", ErrTimeout)
	}
	if rej != nil {
		// Some replica shed or throttled the read, so the all-⊥ answer is
		// not authoritative: retryable, carrying the server's hint.
		return nil, &RetryAfterError{Err: rej, After: hint}
	}
	switch status {
	case proto.ReadStatusEvicted:
		// Transient cold-tier failure: not ErrNotFound, so ReadCtx keeps
		// retrying (likely against a recovered replica) until its deadline.
		return nil, fmt.Errorf("%w (sn %v)", ErrEvicted, sn)
	case proto.ReadStatusCkptTruncated:
		// Terminal ⊥ with a cause the caller can distinguish.
		return nil, fmt.Errorf("%w: %w", ErrNotFound, ErrCheckpointTruncated)
	}
	return nil, ErrNotFound
}

// Subscribe returns every committed record of the c-colored log, merged
// across shards and sorted by SN (Table 2; §6.2). From is exclusive; use
// types.InvalidSN for the full log.
func (c *Client) Subscribe(color types.ColorID, from types.SN) ([]types.Record, error) {
	shards := c.topo.ShardsInRegion(color)
	if len(shards) == 0 {
		return nil, fmt.Errorf("flexlog: no shards for %v", color)
	}
	deadline := time.Now().Add(c.cfg.Timeout)
	bo := c.newBackoff()
	for {
		// Re-resolve the shard set every round: a split adds a shard whose
		// records the merge must include; a merged-away shard must not be
		// waited on (epoch fencing).
		if cur := c.topo.ShardsInRegion(color); len(cur) > 0 {
			shards = cur
		}
		id := c.reqSeq.Add(1)
		w := &subWait{waiting: len(shards), seen: make(map[types.NodeID]bool, len(shards)), done: make(chan struct{})}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		c.subs[id] = w
		targets := make([]types.NodeID, len(shards))
		for i, sh := range shards {
			targets[i] = sh.Replicas[c.rng.Intn(len(sh.Replicas))]
		}
		c.mu.Unlock()

		req := proto.SubscribeReq{ID: id, Color: color, From: from, Client: c.cfg.ID}
		for _, t := range targets {
			c.ep.Send(t, req)
		}
		var ok bool
		select {
		case <-w.done:
			ok = true
		case <-time.After(bo.next()):
		}
		c.mu.Lock()
		if !w.closed {
			w.closed = true
			close(w.done)
		}
		delete(c.subs, id)
		records := w.records
		c.mu.Unlock()
		if ok {
			out := make([]types.Record, len(records))
			for i, rec := range records {
				out[i] = types.Record{Token: rec.Token, SN: rec.SN, Color: color, Data: rec.Data}
			}
			sort.Slice(out, func(i, j int) bool { return out[i].SN < out[j].SN })
			return out, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: subscribe %v", ErrTimeout, color)
		}
	}
}

// SubscribeChan returns a live stream of the c-colored log: all current
// records followed by new ones as they commit, in SN order — the channel
// form Listing 1 iterates (`for idx, record := <-log`). The stream is
// implemented by polling Subscribe with the given interval and ends when
// ctx is done (the channel is then closed).
func (c *Client) SubscribeChan(ctx context.Context, color types.ColorID, poll time.Duration) (<-chan types.Record, error) {
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	// Validate the color up front so misuse fails fast.
	if len(c.topo.ShardsInRegion(color)) == 0 {
		return nil, fmt.Errorf("flexlog: no shards for %v", color)
	}
	out := make(chan types.Record, 64)
	go func() {
		defer close(out)
		var cursor types.SN
		for {
			records, err := c.Subscribe(color, cursor)
			if err == nil {
				for _, r := range records {
					select {
					case out <- r:
						if r.SN > cursor {
							cursor = r.SN
						}
					case <-ctx.Done():
						return
					}
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(poll):
			}
		}
	}()
	return out, nil
}

// Trim garbage-collects the log of color c up to and including sn and
// returns the remaining [head, tail] bounds (Table 2; §6.2). Legacy
// wrapper over TrimCtx.
func (c *Client) Trim(sn types.SN, color types.ColorID) (head, tail types.SN, err error) {
	return c.TrimCtx(context.Background(), sn, color)
}

// TrimCtx is the context-first trim: it honors cancellation and deadlines
// while waiting for the region's replicas to acknowledge.
func (c *Client) TrimCtx(ctx context.Context, sn types.SN, color types.ColorID) (head, tail types.SN, err error) {
	replicas := c.topo.ReplicasInRegion(color)
	if len(replicas) == 0 {
		return 0, 0, opError("trim", color, sn, fmt.Errorf("no replicas"))
	}
	id := c.reqSeq.Add(1)
	w := &trimWaitC{waiting: len(replicas), seen: make(map[types.NodeID]bool, len(replicas)), done: make(chan struct{})}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, 0, opError("trim", color, sn, ErrClosed)
	}
	c.trims[id] = w
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.trims, id)
		c.mu.Unlock()
	}()

	req := proto.TrimReq{ID: id, Color: color, SN: sn, Client: c.cfg.ID}
	deadline := time.Now().Add(c.cfg.Timeout)
	bo := c.newBackoff()
	for {
		c.ep.Broadcast(replicas, req)
		select {
		case <-w.done:
			return w.head, w.tail, nil
		case <-ctx.Done():
			return 0, 0, opError("trim", color, sn, ctx.Err())
		case <-time.After(bo.next()):
			if time.Now().After(deadline) {
				return 0, 0, opError("trim", color, sn, fmt.Errorf("%w: trim %v of %v", ErrTimeout, sn, color))
			}
			// Epoch fencing: a replica drained out of the region can no
			// longer acknowledge — shrink the barrier to the surviving
			// intersection so the trim completes. (Replicas promoted after
			// the trim started adopt the frontier via their sync-phase; the
			// barrier only ever shrinks.)
			curSet := make(map[types.NodeID]bool)
			for _, id := range c.topo.ReplicasInRegion(color) {
				curSet[id] = true
			}
			survivors := replicas[:0:0]
			for _, rid := range replicas {
				if curSet[rid] {
					survivors = append(survivors, rid)
				}
			}
			if len(survivors) == len(replicas) {
				continue
			}
			c.mu.Lock()
			if !w.closed {
				for _, rid := range replicas {
					if !curSet[rid] && !w.seen[rid] {
						w.seen[rid] = true
						w.waiting--
					}
				}
				if w.waiting <= 0 {
					w.closed = true
					close(w.done)
				}
			}
			c.mu.Unlock()
			replicas = survivors
			select {
			case <-w.done:
				return w.head, w.tail, nil
			default:
			}
			if len(replicas) == 0 {
				return 0, 0, opError("trim", color, sn, fmt.Errorf("%w: region %v replicas all reconfigured away", ErrReconfiguring, color))
			}
		}
	}
}

// AddColor creates a new c-colored log with parent as its parent region
// (Table 2). Requires a provisioning backend (the in-process Cluster).
func (c *Client) AddColor(color, parent types.ColorID) error {
	if c.adder == nil {
		return fmt.Errorf("flexlog: no color provisioning backend configured")
	}
	return c.adder.AddColor(color, parent)
}

// MultiAppend atomically appends each record set to its corresponding
// color (Alg. 2, §6.4): all sets become visible or none does. The broker
// ("special") color must be known to all participants a priori; the master
// region works by default. Legacy wrapper over MultiAppendCtx.
func (c *Client) MultiAppend(sets [][][]byte, colors []types.ColorID, special types.ColorID) error {
	return c.MultiAppendCtx(context.Background(), sets, colors, special)
}

// MultiAppendCtx is the context-first atomic multi-color append: it honors
// cancellation and deadlines across both the staging and end-marker phases.
func (c *Client) MultiAppendCtx(ctx context.Context, sets [][][]byte, colors []types.ColorID, special types.ColorID) error {
	if len(sets) != len(colors) || len(sets) == 0 {
		return opError("multi-append", special, types.InvalidSN,
			fmt.Errorf("%d record sets vs %d colors", len(sets), len(colors)))
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return opError("multi-append", special, types.InvalidSN, ErrClosed)
	}
	shard, err := c.topo.RandomShard(special, c.rng)
	c.mu.Unlock()
	if err != nil {
		return opError("multi-append", special, types.InvalidSN, err)
	}
	// Phase 1: stage every set on the broker shard (Alg. 2 lines 3–4).
	tokens := make([]types.Token, len(sets))
	for i, records := range sets {
		staged := replica.EncodeStaged(colors[i], c.cfg.FID, records)
		_, token, err := c.appendToShard(ctx, [][]byte{staged}, special, shard)
		if err != nil {
			return opError("multi-append", special, types.InvalidSN,
				fmt.Errorf("staging set %d: %w", i, err))
		}
		tokens[i] = token
	}
	// Phase 2: broadcast the end marker and wait for any broker ack
	// (Alg. 2 lines 5–6).
	id := c.reqSeq.Add(1)
	w := &multiWait{done: make(chan struct{})}
	c.mu.Lock()
	c.multis[id] = w
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.multis, id)
		c.mu.Unlock()
	}()

	endMsg := proto.MultiAppendEnd{ID: id, FID: c.cfg.FID, Tokens: tokens, Client: c.cfg.ID}
	deadline := time.Now().Add(c.cfg.Timeout)
	bo := c.newBackoff()
	for {
		c.ep.Broadcast(shard.Replicas, endMsg)
		select {
		case <-w.done:
			return nil
		case <-ctx.Done():
			return opError("multi-append", special, types.InvalidSN, ctx.Err())
		case <-time.After(bo.next()):
			if time.Now().After(deadline) {
				return opError("multi-append", special, types.InvalidSN, fmt.Errorf("%w: multi-append", ErrTimeout))
			}
			// Epoch fencing: re-resolve the broker shard so the end marker
			// reaches its current membership (any broker replica may ack).
			if cur, err := c.topo.Shard(shard.ID); err == nil {
				shard = cur
			}
		}
	}
}
