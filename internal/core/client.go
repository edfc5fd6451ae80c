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
	"maps"
	"math/rand"
	"slices"
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
	closedCh chan struct{} // closed by Close; ends batchers and every in-flight call

	// Read hedging state (see hedge.go).
	readLat    latencyTracker
	hedges     atomic.Uint64 // read rounds that sent backup requests
	readRounds atomic.Uint64 // all read rounds (the hedge budget's base)

	mu       sync.Mutex
	rng      *rand.Rand
	calls    map[callKey]*call // every in-flight request (see call.go)
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
		calls:    make(map[callKey]*call),
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

// Close detaches the client. Every queued or in-flight operation returns
// ErrClosed.
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
	shard, err := c.randomShard(color)
	if err != nil {
		return types.InvalidSN, opError("append", color, types.InvalidSN, err)
	}
	endRTT := tr.StartSpan("append_rtt")
	sn, _, err := c.appendTo(ctx, shard.ID, color, records)
	endRTT()
	if err != nil {
		return types.InvalidSN, opError("append", color, types.InvalidSN, err)
	}
	if sn.Valid() {
		c.rememberPlacement(color, sn, len(records), shard.ID)
	}
	return sn, nil
}

// randomShard picks the shard an operation on color goes to (Alg. 1: "a
// (random) shard of c").
func (c *Client) randomShard(color types.ColorID) (topology.ShardInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.topo.RandomShard(color, c.rng)
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

// appendCall drives one append token through Alg. 1's client role: register
// the ack barrier from the shard's current members, broadcast, rebuild the
// barrier from the live membership on every retry tick and once more when
// it empties. AppendCtx, the multi-append staging phase and the batcher are
// its callers; they differ only in the request they build (AppendReq vs
// AppendBatchReq) and in what they do with the SN.
type appendCall struct {
	call
	c      *Client
	token  types.Token
	shard  types.ShardID
	req    transport.Message
	needed map[types.NodeID]bool // the ack barrier: members that have not acked
	acked  map[types.NodeID]bool // responders so far, kept across membership changes
	sn     types.SN
}

// startAppend registers the append of req under token and broadcasts it
// to the shard's members. It runs inline in its caller so the batcher's
// batches reach the replicas in flush order; the caller then drives it with
// await(ctx, &a.call, a.resend), reads a.sn and retires it. (There is no
// wait method wrapping those three: a batch's goroutine runs them on a
// fresh stack, see await.)
func (c *Client) startAppend(shard types.ShardID, token types.Token, req transport.Message) (*appendCall, error) {
	cur, err := c.topo.Shard(shard)
	if err != nil {
		return nil, fmt.Errorf("%w: shard %v removed", ErrReconfiguring, shard)
	}
	a := &appendCall{
		c:      c,
		token:  token,
		shard:  shard,
		req:    req,
		needed: make(map[types.NodeID]bool, len(cur.Replicas)),
		acked:  make(map[types.NodeID]bool, len(cur.Replicas)),
	}
	a.call = call{fold: a.fold, done: make(chan struct{})}
	a.covers(cur.Replicas)
	if err := c.register(tokenKey(token), &a.call); err != nil {
		return nil, err
	}
	c.ep.Broadcast(cur.Replicas, req)
	return a, nil
}

// fold is the one place an AppendAck lands. A member that rejects has not
// acked: it stays in the barrier and the next tick asks it again.
func (a *appendCall) fold(from types.NodeID, msg transport.Message) bool {
	m, ok := msg.(proto.AppendAck)
	if !ok {
		return false
	}
	delete(a.needed, from)
	a.acked[from] = true
	if m.SN.Valid() {
		a.sn = m.SN
	}
	return len(a.needed) == 0 && a.everyMemberAcked()
}

// everyMemberAcked closes the window between resolving an append's shard
// membership and completing it: a replica promoted into the shard in
// between is not in the barrier the append was sent with, and an append
// the old members alone acknowledged after the promotion's sync-phase is
// missing on the new one for good. So the membership is resolved once more
// when the barrier empties, and a member that has not acked goes back into
// it — the next retry tick sends it the request. Caller holds c.mu.
func (a *appendCall) everyMemberAcked() bool {
	cur, err := a.c.topo.Shard(a.shard)
	if err != nil {
		return true // shard removed: its records migrated with the members that acked
	}
	return a.covers(cur.Replicas)
}

// covers puts every given member that has not acked into the barrier and
// reports whether the barrier is empty. Caller holds c.mu.
func (a *appendCall) covers(members []types.NodeID) bool {
	for _, id := range members {
		if !a.acked[id] {
			a.needed[id] = true
		}
	}
	return len(a.needed) == 0
}

// resend is the append's retry tick. Epoch fencing: the shard's membership
// may have changed under the append (replica drained out, or a caught-up
// replica promoted in), so the barrier is rebuilt as the CURRENT members
// minus those that already acked — a departed replica can no longer wedge
// the wait, a newly promoted one must ack before completion. A shard
// removed outright (merge cutover) surfaces the typed retryable rejection.
func (a *appendCall) resend() error {
	c := a.c
	cur, err := c.topo.Shard(a.shard)
	if err != nil {
		return c.failure(&a.call, fmt.Errorf("%w: shard %v removed", ErrReconfiguring, a.shard))
	}
	c.mu.Lock()
	if !a.closed {
		clear(a.needed)
		a.completeLocked(a.covers(cur.Replicas))
	}
	done := a.closed
	c.mu.Unlock()
	if !done {
		c.ep.Broadcast(cur.Replicas, a.req)
	}
	return nil
}

// retire unregisters the append. Its caller does that after it has passed
// the SN on, so that taking the client's lock once more is not on the path
// to whoever waits for the SN.
func (a *appendCall) retire() { a.c.unregister(tokenKey(a.token), &a.call) }

// appendTo runs one unbatched append against a shard and returns the
// assigned SN together with the token used.
func (c *Client) appendTo(ctx context.Context, shard types.ShardID, color types.ColorID, records [][]byte) (types.SN, types.Token, error) {
	token := c.nextToken()
	a, err := c.startAppend(shard, token, proto.AppendReq{Color: color, Token: token, Records: records, Client: c.cfg.ID, Tenant: c.cfg.Tenant})
	if err != nil {
		return types.InvalidSN, token, err
	}
	defer a.retire()
	if err := c.await(ctx, &a.call, a.resend); err != nil {
		return types.InvalidSN, token, err
	}
	return a.sn, token, nil
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
	var data []byte
	err := c.rounds(ctx, color, func(shards []topology.ShardInfo, window time.Duration) (err error) {
		data, err = c.readOnce(ctx, sn, color, shards, window)
		return err
	})
	if err != nil {
		return nil, opError("read", color, sn, err)
	}
	return data, nil
}

// readRound is the fold state of one read round.
type readRound struct {
	shardOf  map[types.NodeID]int // replica → shard slot (primaries + hedges)
	answered []bool               // per-shard: first response landed
	waiting  int                  // shards that have not answered
	data     []byte
	found    bool
	status   uint8 // highest proto.ReadStatus* across ⊥ responses
}

// fold counts one replica's answer. Accounting is per shard, not per
// replica: with hedging two replicas of one shard may both answer, and
// only the first counts. A shed read (Reject) counts as its shard's
// non-authoritative answer: the round completes without it and the
// operation retries.
func (r *readRound) fold(from types.NodeID, msg transport.Message) bool {
	if si, ok := r.shardOf[from]; ok && !r.answered[si] {
		r.answered[si] = true
		r.waiting--
	}
	if m, ok := msg.(proto.ReadResp); ok {
		if m.Found {
			r.data, r.found = m.Data, true
		} else if m.Status > r.status {
			// ⊥ qualifiers merge by precedence (evicted > checkpoint-
			// truncated > trimmed > none), see proto.ReadStatus*.
			r.status = m.Status
		}
	}
	// First hit wins; all-⊥ completes when every shard answered.
	return r.found || r.waiting <= 0
}

// readOnce runs one round of the read protocol against one replica of each
// given shard. It returns ErrNotFound when every shard answered ⊥ and
// errRoundUnanswered when some shard gave no authoritative answer within
// the given window.
func (c *Client) readOnce(ctx context.Context, sn types.SN, color types.ColorID, shards []topology.ShardInfo, window time.Duration) ([]byte, error) {
	start := time.Now()
	c.readRounds.Add(1)
	id, targets := c.pick(shards)
	r := &readRound{
		shardOf:  make(map[types.NodeID]int, len(shards)),
		answered: make([]bool, len(shards)),
		waiting:  len(shards),
	}
	for i, t := range targets {
		r.shardOf[t] = i
	}
	w := newCall(r.fold)
	req := proto.ReadReq{ID: id, Color: color, SN: sn, Client: c.cfg.ID, Tenant: c.cfg.Tenant}
	// Hedging leg: when the round outlives the straggler threshold (and the
	// hedge budget allows), clone the request to a backup replica per shard
	// and keep waiting — first response per shard wins.
	var hedgeAfter time.Duration
	if hd := c.hedgeDelay(); hd > 0 && hd < window && c.hedgeAllowed() {
		hedgeAfter = hd
	}
	err := c.round(ctx, id, w, targets, req, window, hedgeAfter, func() { c.sendHedges(w, r, req, shards, targets) })
	switch {
	case r.found:
		c.readLat.record(time.Since(start))
		return r.data, nil
	case err != nil:
		return nil, err
	case w.rej != nil:
		// Some replica shed or throttled the read, so the all-⊥ answer is
		// not authoritative: retryable, carrying the server's hint.
		return nil, c.failure(w, errRoundUnanswered)
	case r.status == proto.ReadStatusEvicted:
		// Transient cold-tier failure: not ErrNotFound, so ReadCtx keeps
		// retrying (likely against a recovered replica) until its deadline.
		return nil, fmt.Errorf("%w (sn %v)", ErrEvicted, sn)
	case r.status == proto.ReadStatusCkptTruncated:
		// Terminal ⊥ with a cause the caller can distinguish.
		return nil, fmt.Errorf("%w: %w", ErrNotFound, ErrCheckpointTruncated)
	}
	return nil, ErrNotFound
}

// Subscribe returns every committed record of the c-colored log, merged
// across shards and sorted by SN (Table 2; §6.2). From is exclusive; use
// types.InvalidSN for the full log.
func (c *Client) Subscribe(color types.ColorID, from types.SN) ([]types.Record, error) {
	return c.subscribe(context.Background(), color, from)
}

func (c *Client) subscribe(ctx context.Context, color types.ColorID, from types.SN) ([]types.Record, error) {
	var records []proto.WireRecord
	err := c.rounds(ctx, color, func(shards []topology.ShardInfo, window time.Duration) error {
		id, targets := c.pick(shards)
		records = nil
		waiting := len(targets)
		w := newCall(func(_ types.NodeID, msg transport.Message) bool {
			if m, ok := msg.(proto.SubscribeResp); ok {
				records = append(records, m.Records...)
				waiting--
			}
			return waiting <= 0
		})
		return c.round(ctx, id, w, targets, proto.SubscribeReq{ID: id, Color: color, From: from, Client: c.cfg.ID}, window, 0, nil)
	})
	if err != nil {
		return nil, opError("subscribe", color, from, err)
	}
	out := make([]types.Record, len(records))
	for i, rec := range records {
		out[i] = types.Record{Token: rec.Token, SN: rec.SN, Color: color, Data: rec.Data}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SN < out[j].SN })
	return out, nil
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
			records, err := c.subscribe(ctx, color, cursor)
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
func (c *Client) TrimCtx(ctx context.Context, sn types.SN, color types.ColorID) (types.SN, types.SN, error) {
	replicas := c.topo.ReplicasInRegion(color)
	if len(replicas) == 0 {
		return 0, 0, opError("trim", color, sn, fmt.Errorf("no replicas"))
	}
	needed := make(map[types.NodeID]bool, len(replicas))
	for _, id := range replicas {
		needed[id] = true
	}
	var head, tail types.SN
	w := newCall(func(from types.NodeID, msg transport.Message) bool {
		// Replicas report their local bounds; the color's global head is
		// the smallest surviving SN, the tail the largest.
		if m, ok := msg.(proto.TrimAck); ok {
			if m.Head.Valid() && (!head.Valid() || m.Head < head) {
				head = m.Head
			}
			if m.Tail > tail {
				tail = m.Tail
			}
			delete(needed, from)
		}
		return len(needed) == 0
	})
	key := idKey(c.reqSeq.Add(1))
	if err := c.register(key, w); err != nil {
		return 0, 0, opError("trim", color, sn, err)
	}
	defer c.unregister(key, w)
	req := proto.TrimReq{ID: key.id, Color: color, SN: sn, Client: c.cfg.ID}
	c.ep.Broadcast(replicas, req)
	err := c.await(ctx, w, func() error {
		// Epoch fencing: a replica drained out of the region can no longer
		// acknowledge — shrink the barrier to the surviving intersection so
		// the trim completes. (Replicas promoted after the trim started
		// adopt the frontier via their sync-phase; the barrier only ever
		// shrinks.) The survivors that already answered are asked again:
		// that is what makes them re-send the peer acks of the replicas'
		// all-to-all round to one that missed them.
		live := make(map[types.NodeID]bool)
		for _, id := range c.topo.ReplicasInRegion(color) {
			live[id] = true
		}
		replicas = slices.DeleteFunc(replicas, func(id types.NodeID) bool { return !live[id] })
		c.mu.Lock()
		maps.DeleteFunc(needed, func(id types.NodeID, _ bool) bool { return !live[id] })
		done := w.completeLocked(len(needed) == 0)
		c.mu.Unlock()
		if !done {
			c.ep.Broadcast(replicas, req)
		}
		return nil
	})
	if err != nil {
		return 0, 0, opError("trim", color, sn, err)
	}
	return head, tail, nil
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
	shard, err := c.randomShard(special)
	if err != nil {
		return opError("multi-append", special, types.InvalidSN, err)
	}
	// Phase 1: stage every set on the broker shard (Alg. 2 lines 3–4).
	tokens := make([]types.Token, len(sets))
	for i, records := range sets {
		staged := replica.EncodeStaged(colors[i], c.cfg.FID, records)
		_, token, err := c.appendTo(ctx, shard.ID, special, [][]byte{staged})
		if err != nil {
			return opError("multi-append", special, types.InvalidSN,
				fmt.Errorf("staging set %d: %w", i, err))
		}
		tokens[i] = token
	}
	// Phase 2: broadcast the end marker and wait for any broker ack
	// (Alg. 2 lines 5–6: "wait(ack) from any replica in shard").
	w := newCall(func(_ types.NodeID, msg transport.Message) bool {
		_, ok := msg.(proto.MultiAppendAck)
		return ok
	})
	key := idKey(c.reqSeq.Add(1))
	if err := c.register(key, w); err != nil {
		return opError("multi-append", special, types.InvalidSN, err)
	}
	defer c.unregister(key, w)
	endMsg := proto.MultiAppendEnd{ID: key.id, FID: c.cfg.FID, Tokens: tokens, Client: c.cfg.ID}
	c.ep.Broadcast(shard.Replicas, endMsg)
	return opError("multi-append", special, types.InvalidSN, c.await(ctx, w, func() error {
		// Epoch fencing: re-resolve the broker shard so the end marker
		// reaches its current membership (any broker replica may ack).
		if cur, err := c.topo.Shard(shard.ID); err == nil {
			shard = cur
		}
		c.ep.Broadcast(shard.Replicas, endMsg)
		return nil
	}))
}
