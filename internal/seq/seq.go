// Package seq implements FlexLog's ordering layer (§5.2): an n-ary tree of
// sequencer nodes that assign 64-bit sequence numbers of the form
// (epoch<<32)|counter to order requests.
//
// Each sequencer owns one region (color). An order request for color c
// enters the tree at the leaf sequencer of the issuing shard and climbs
// toward the root sequencer of region c, which assigns the SN range; the
// response descends the same path. Sequencers below the owner act as
// aggregators: order requests for the same color that arrive within the
// batching interval are merged into a single upward request for the sum of
// their record counts (§5.2 "To improve throughput…").
//
// The ordering hot path is lock-free (DESIGN.md §14): SN assignment is one
// atomic fetch-add on a packed (epoch<<32)|counter word, token dedup and
// owner-side batch dedup live in striped maps, pending aggregation uses
// per-color MPSC queues, and all accounting is atomic. The global mutex
// survives only on the election/failover slow path (failover.go), which
// swaps the packed word when epochs change. With OrderWorkers > 0 the
// transport delivers order traffic on a keyed write lane (per-color FIFO,
// colors parallel) so concurrent colors never serialize on one goroutine.
//
// Fault tolerance follows §5.2 "Sequencer replication": each sequencer has
// 2f stateless backups replicating only the epoch number. Failure is
// detected by heartbeat silence; the new leader is the backup with the
// highest (epoch, node-id), elected via at-most-once epoch grants; it first
// secures its epoch on a majority of the group, then initializes every
// replica of its region (SeqInit) and only then serves. An old leader that
// cannot reach a majority of backups shuts itself down (split-brain
// avoidance).
package seq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Role is a sequencer node's current role.
type Role int

// Sequencer roles.
const (
	RoleBackup Role = iota
	RoleLeader
	RoleStopped
)

func (r Role) String() string {
	switch r {
	case RoleBackup:
		return "backup"
	case RoleLeader:
		return "leader"
	default:
		return "stopped"
	}
}

// Config parameterizes one sequencer node.
type Config struct {
	ID     types.NodeID
	Region types.ColorID
	Topo   *topology.Topology

	// BatchInterval is the aggregation window for upward order requests
	// (1 µs in the paper's evaluation). Zero still batches whatever is
	// pending when the flusher runs, i.e. it effectively disables the
	// deliberate wait.
	BatchInterval time.Duration
	// HeartbeatInterval is the leader→backup heartbeat period.
	HeartbeatInterval time.Duration
	// FailureTimeout is the silence span after which a failure is assumed
	// (the Δ bound of §4).
	FailureTimeout time.Duration
	// RetryTimeout is how long an aggregated upward request may stay
	// unanswered before it is re-sent (parent failover re-drive).
	RetryTimeout time.Duration
	// TokenCacheSize bounds the token-deduplication map (Alg. 1 line 31).
	TokenCacheSize int
	// StartAsLeader makes this node the initial leader of its group.
	StartAsLeader bool
	// InitialEpoch overrides the starting epoch (default 1). Deployments
	// that restart a whole sequencer group cold must resume above every
	// epoch ever used, or the new leader would re-issue old SNs —
	// cmd/flexlog-server persists the epoch and passes lastEpoch+1 here.
	InitialEpoch types.Epoch
	// TenantOf attributes ordering work to tenants by the color an order
	// request names (qos.ColorMap of the deployment's tenant declarations).
	// Nil disables per-tenant sequencer accounting.
	TenantOf map[types.ColorID]types.TenantID

	// OrderWorkers sizes the keyed write lane order traffic is delivered
	// on: messages for different colors run on different workers while one
	// color stays FIFO on one worker. 0 keeps the single delivery loop.
	OrderWorkers int
}

// defaultFlushThreshold is the pending-record count at which a color's
// queue triggers an urgent flush, skipping the rest of the BatchInterval
// linger.
const defaultFlushThreshold = 256

// DefaultConfig fills the timing knobs with test-friendly values.
func DefaultConfig() Config {
	return Config{
		BatchInterval:     time.Microsecond,
		HeartbeatInterval: 5 * time.Millisecond,
		FailureTimeout:    25 * time.Millisecond,
		RetryTimeout:      50 * time.Millisecond,
		TokenCacheSize:    1 << 20,
	}
}

// member is one constituent of a pending/in-flight aggregated batch.
type member struct {
	// Exactly one of req / child is set.
	req   *proto.OrderReq // direct request from a replica (entry point)
	child *childBatch     // merged batch from a child sequencer
	n     uint32
}

type childBatch struct {
	batchID uint64
	from    types.NodeID
}

// inflight tracks an aggregated request sent to the parent. It is stamped
// with the serving epoch it was flushed under; a new local leadership
// clears the inflight table, and the resend loop discards stragglers whose
// epoch no longer matches.
type inflight struct {
	color   types.ColorID
	epoch   types.Epoch
	total   uint32
	members []member
	sentAt  atomic.Int64 // unix nanos of the last (re)send
}

// Stats counts ordering-layer activity.
type Stats struct {
	Assigned     uint64 // SNs issued by this node as region owner
	DirectReqs   uint64 // order requests received from replicas (incl. batch items)
	ReqBatches   uint64 // coalesced OrderReqBatch messages received
	ChildReqs    uint64 // aggregated requests received from children (incl. batch items)
	BatchesSent  uint64 // aggregated requests sent to the parent
	Resends      uint64
	Elections    uint64 // leaderships won by this node
	EpochGrants  uint64
	DupTokens    uint64
	DroppedStale uint64

	FlushRounds      uint64 // flusher passes over the pending queues
	UrgentFlushes    uint64 // rounds triggered early (a queue crossed defaultFlushThreshold)
	PipelinedBatches uint64 // upward batches sent while a prior round for the same color was unanswered
}

// Sequencer is one ordering-layer node.
type Sequencer struct {
	cfg  Config
	topo *topology.Topology
	ep   transport.Endpoint

	// ready gates message handling on endpoint publication: delivery
	// starts at Register, before the constructor stores s.ep.
	ready atomic.Bool

	// ---- Lock-free hot path (hotpath.go) ----

	snWord      atomic.Uint64 // packed (servingEpoch<<32)|counter; 0 = not serving
	epochMirror atomic.Uint32 // wait-free mirror of epoch for Epoch()/obs
	c           counters

	tokens   [dedupStripes]tokenStripe // entry-side token dedup
	tokenCap int                       // per-stripe FIFO capacity, of tokens and aggSeen alike

	pendQ    sync.Map // types.ColorID → *colorQueue
	pendMu   sync.Mutex
	pendList atomic.Pointer[[]*colorQueue]

	aggSeen [dedupStripes]aggStripe // owner-side dedup of child batches

	batchSeq atomic.Uint64
	inflight sync.Map // batchID uint64 → *inflight

	urgent atomic.Bool // a queue crossed defaultFlushThreshold; skip the linger

	// Per-tenant accounting: built once at construction, read-only after.
	tenantTotals  map[types.TenantID]*atomic.Uint64
	tenantByColor map[types.ColorID]*atomic.Uint64

	// ---- Cold path: election/failover state (failover.go) ----

	mu      sync.Mutex
	role    Role
	epoch   types.Epoch
	serving bool // leader finished initialization and serves requests

	grantedEpoch types.Epoch
	grantedTo    types.NodeID
	// lastLeaderHB is the candidacy-suppression clock: reset by leader
	// heartbeats but ALSO by grants and abandoned claims so elections
	// back off. lastLeaderBeat is reset only by an actual current-epoch
	// heartbeat; the stickiness check in onEpochClaim uses it so that a
	// recent grant/abandon is never mistaken for a live leader.
	lastLeaderHB   time.Time
	lastLeaderBeat time.Time
	hbAcks         map[types.NodeID]time.Time
	initAcks       map[types.NodeID]bool
	initEpoch      types.Epoch
	claimStart     time.Time

	stopCh  chan struct{}
	stopped sync.WaitGroup
	kick    chan struct{} // wakes the flusher

	// lanes is the sequencer's message dispatcher: order traffic on the
	// keyed lane, the rest inline. Built once, attached to whichever
	// fabric carries the sequencer's messages, closed by Stop.
	lanes *transport.Lanes
}

type childKey struct {
	from    types.NodeID
	batchID uint64
}

// seqWriteClass keys order traffic onto the write lane: per-color frames
// hash by color (one color stays FIFO on one worker; colors run in
// parallel), multi-color batch frames hash by their sender so a child's
// combined rounds stay ordered. Election and heartbeat traffic stays on
// the inline delivery path.
func seqWriteClass(msg transport.Message) (uint64, bool) {
	switch m := msg.(type) {
	case proto.OrderReq:
		return uint64(m.Color), true
	case proto.OrderReqBatch:
		return uint64(m.Color), true
	case proto.AggOrderReq:
		return uint64(m.Color), true
	case proto.AggOrderResp:
		return uint64(m.Color), true
	case proto.AggOrderReqBatch:
		return uint64(m.From), true
	case proto.AggOrderRespBatch:
		return uint64(m.From), true
	}
	return 0, false
}

// New creates the sequencer and registers it on the in-process network.
func New(cfg Config, net *transport.Network) (*Sequencer, error) {
	return build(cfg, func(l *transport.Lanes) (transport.Endpoint, error) {
		return net.RegisterWithLanes(cfg.ID, l)
	})
}

// NewWithEndpoint creates the sequencer over an existing endpoint
// constructor (used for TCP deployments). attach must register the given
// handler as the message handler and return the endpoint.
func NewWithEndpoint(cfg Config, attach func(h transport.Handler) (transport.Endpoint, error)) (*Sequencer, error) {
	return build(cfg, func(l *transport.Lanes) (transport.Endpoint, error) {
		return attach(l.Handler())
	})
}

// build is the one constructor: only how the sequencer's lanes meet the
// fabric differs between the in-process network and a custom endpoint.
func build(cfg Config, attach func(*transport.Lanes) (transport.Endpoint, error)) (*Sequencer, error) {
	s := newSequencer(cfg)
	ep, err := attach(s.lanes)
	if err != nil {
		s.lanes.Close()
		return nil, err
	}
	s.ep = ep
	s.ready.Store(true)
	s.start()
	return s, nil
}

func newSequencer(cfg Config) *Sequencer {
	if cfg.TokenCacheSize <= 0 {
		cfg.TokenCacheSize = 1 << 20
	}
	s := &Sequencer{
		cfg:    cfg,
		topo:   cfg.Topo,
		hbAcks: make(map[types.NodeID]time.Time),
		stopCh: make(chan struct{}),
		kick:   make(chan struct{}, 1),
	}
	s.tokenCap = cfg.TokenCacheSize / dedupStripes
	if s.tokenCap < 1 {
		s.tokenCap = 1
	}
	for i := range s.tokens {
		s.tokens[i].m = make(map[types.Token]tokenEntry)
	}
	for i := range s.aggSeen {
		s.aggSeen[i].m = make(map[childKey]types.SN)
	}
	s.buildTenantCounters()
	epoch := types.Epoch(1)
	if cfg.InitialEpoch > 0 {
		epoch = cfg.InitialEpoch
	}
	if cfg.StartAsLeader {
		s.role = RoleLeader
		s.setEpochLocked(epoch)
		s.beginServingLocked()
	} else {
		s.role = RoleBackup
		s.setEpochLocked(epoch)
		s.lastLeaderHB = time.Now()
	}
	s.lanes = transport.NewLanes(s.handle, transport.LaneConfig{},
		transport.LaneConfig{Workers: cfg.OrderWorkers, Key: seqWriteClass})
	return s
}

func (s *Sequencer) start() {
	s.stopped.Add(2)
	go s.flusherLoop()
	go s.timerLoop()
}

// ID returns this node's id.
func (s *Sequencer) ID() types.NodeID { return s.cfg.ID }

// Region returns the color this sequencer group owns.
func (s *Sequencer) Region() types.ColorID { return s.cfg.Region }

// Role returns the node's current role.
func (s *Sequencer) Role() Role {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role
}

// Epoch returns the node's current epoch (wait-free).
func (s *Sequencer) Epoch() types.Epoch {
	return types.Epoch(s.epochMirror.Load())
}

// Serving reports whether the node is an initialized, active leader
// (wait-free: the packed SN word's epoch half is nonzero exactly while
// the node serves).
func (s *Sequencer) Serving() bool {
	return s.servingEpoch() != 0
}

// Stats returns a snapshot of the counters (wait-free: plain atomic
// loads, so /metrics scrapes can never stall the ordering path).
func (s *Sequencer) Stats() Stats {
	return s.c.snapshot()
}

// TenantOrdered snapshots the per-tenant ordered-record counters (nil
// when per-tenant accounting is off). Wait-free: the tenant table is
// immutable after construction and each counter is one atomic load.
func (s *Sequencer) TenantOrdered() map[types.TenantID]uint64 {
	if s.tenantTotals == nil {
		return nil
	}
	out := make(map[types.TenantID]uint64, len(s.tenantTotals))
	for t, c := range s.tenantTotals {
		if v := c.Load(); v > 0 {
			out[t] = v
		}
	}
	return out
}

// Stop terminates the node's background loops (graceful shutdown).
func (s *Sequencer) Stop() {
	s.mu.Lock()
	if s.role == RoleStopped {
		s.mu.Unlock()
		return
	}
	s.role = RoleStopped
	s.stopServingLocked()
	close(s.stopCh)
	s.mu.Unlock()
	s.stopped.Wait()
	s.lanes.Close()
}

// Crash simulates a crash failure: the node stops processing and emitting
// all messages. Unlike Stop it is meant to be paired with network
// isolation in tests.
func (s *Sequencer) Crash() { s.Stop() }

// handle dispatches one inbound message. Messages racing the constructor
// (delivery starts at Register, before the endpoint is published) are
// dropped; every protocol above re-drives lost messages anyway.
func (s *Sequencer) handle(from types.NodeID, msg transport.Message) {
	if !s.ready.Load() {
		return
	}
	switch m := msg.(type) {
	case proto.OrderReq:
		s.onOrderReq(from, m)
	case proto.OrderReqBatch:
		s.onOrderReqBatch(from, m)
	case proto.AggOrderReq:
		s.onAggOrderReq(m)
	case proto.AggOrderReqBatch:
		s.onAggOrderReqBatch(m)
	case proto.AggOrderResp:
		s.onAggOrderResp(m)
	case proto.AggOrderRespBatch:
		s.onAggOrderRespBatch(m)
	case proto.SeqHeartbeat:
		s.onHeartbeat(m)
	case proto.SeqHeartbeatAck:
		s.onHeartbeatAck(m)
	case proto.EpochClaim:
		s.onEpochClaim(m)
	case proto.EpochGrant:
		s.onEpochGrant(m)
	case proto.EpochReject:
		s.onEpochReject(m)
	case proto.SeqInitAck:
		s.onSeqInitAck(m)
	}
}

// ---- Order request path (lock-free) ----

// onOrderReq handles a replica's single order request: a batch of one.
func (s *Sequencer) onOrderReq(from types.NodeID, req proto.OrderReq) {
	s.orderItems(from, req.Color, req.Shard, req.Replicas, []proto.OrderItem{{Token: req.Token, NRecords: req.NRecords}})
}

// onOrderReqBatch handles a replica's coalesced order requests: all items
// share one color and one shard.
func (s *Sequencer) onOrderReqBatch(from types.NodeID, m proto.OrderReqBatch) {
	s.c.reqBatches.Add(1)
	s.orderItems(from, m.Color, m.Shard, m.Replicas, m.Items)
}

// orderItems is the one order-request path. Fresh items are assigned here
// when this node owns the color — answered with a single broadcast to the
// shard — or aggregated upward as individual members (Alg. 1 line 37,
// merged per §5.2) so the AggOrderReq machinery splits ranges per token.
// Every replica of a shard asks for every token by design, so duplicates
// are the common case: an already-assigned item is re-answered to the
// SENDER only (the assignment was already broadcast to the whole shard; a
// replica asking again either raced that broadcast or missed it), and an
// item still pending in a batch gets no reply (the owner's answer will
// reach the shard).
func (s *Sequencer) orderItems(from types.NodeID, color types.ColorID, shard types.ShardID, replicas []types.NodeID, reqs []proto.OrderItem) {
	se := s.servingEpoch()
	if se == 0 {
		s.c.droppedStale.Add(1)
		return
	}
	s.c.directReqs.Add(uint64(len(reqs)))
	var nTotal uint64
	for _, it := range reqs {
		nTotal += uint64(it.NRecords)
	}
	s.noteTenant(color, nTotal)
	owner := color == s.cfg.Region
	var fresh []proto.OrderRespItem // owner-path assignments → broadcast
	var dups []proto.OrderRespItem  // already-assigned retries → sender only
	for _, it := range reqs {
		st := s.tokenStripeFor(it.Token)
		st.mu.Lock()
		if e, ok := lookupToken(st, it.Token, se); ok {
			st.mu.Unlock()
			s.c.dupTokens.Add(1)
			if e.assigned {
				dups = append(dups, proto.OrderRespItem{Token: it.Token, LastSN: e.lastSN, NRecords: it.NRecords})
			}
			continue
		}
		if owner {
			// Alg. 1 lines 32–35. The stripe lock is held across
			// assign+remember so a racing duplicate can never burn a second
			// range for the token.
			last, ok := s.assignFast(it.NRecords)
			if !ok {
				st.mu.Unlock()
				s.c.droppedStale.Add(1)
				continue
			}
			st.remember(it.Token, tokenEntry{epoch: types.Epoch(last.Epoch()), assigned: true, lastSN: last}, s.tokenCap)
			st.mu.Unlock()
			fresh = append(fresh, proto.OrderRespItem{Token: it.Token, LastSN: last, NRecords: it.NRecords})
			continue
		}
		st.remember(it.Token, tokenEntry{epoch: se}, s.tokenCap)
		st.mu.Unlock()
		req := &proto.OrderReq{Color: color, Token: it.Token, NRecords: it.NRecords, Shard: shard, Replicas: replicas}
		s.enqueue(color, member{req: req, n: it.NRecords}, se)
	}
	if len(fresh) > 0 {
		s.ep.Broadcast(replicas, orderRespFrame(color, fresh))
	}
	if len(dups) > 0 {
		s.ep.Send(from, orderRespFrame(color, dups))
	}
}

// orderRespFrame frames a color's assignments for the replicas: the
// compact OrderResp for one, an OrderRespBatch for several.
func orderRespFrame(color types.ColorID, items []proto.OrderRespItem) transport.Message {
	if len(items) == 1 {
		it := items[0]
		return proto.OrderResp{Token: it.Token, LastSN: it.LastSN, NRecords: it.NRecords, Color: color}
	}
	return proto.OrderRespBatch{Color: color, Items: items}
}

func (s *Sequencer) onAggOrderReq(m proto.AggOrderReq) {
	if resp, ok := s.handleAggItem(m.From, m.Color, m.BatchID, m.Total); ok {
		s.ep.Send(m.From, resp)
	}
}

// onAggOrderReqBatch handles a child's combined upward rounds (several
// colors flushed in one frame). Items this node can answer now — owner
// assignments and dup resends — are returned in a single AggOrderRespBatch;
// the rest are enqueued toward this node's own parent.
func (s *Sequencer) onAggOrderReqBatch(m proto.AggOrderReqBatch) {
	var items []proto.AggOrderRespItem
	for _, it := range m.Items {
		if resp, ok := s.handleAggItem(m.From, it.Color, it.BatchID, it.Total); ok {
			items = append(items, proto.AggOrderRespItem{Color: resp.Color, BatchID: resp.BatchID, LastSN: resp.LastSN})
		}
	}
	if len(items) == 1 {
		s.ep.Send(m.From, proto.AggOrderResp{BatchID: items[0].BatchID, LastSN: items[0].LastSN, Color: items[0].Color})
		return
	}
	if len(items) > 0 {
		s.ep.Send(m.From, proto.AggOrderRespBatch{From: s.cfg.ID, Items: items})
	}
}

// handleAggItem processes one aggregated child request. ok=true returns
// the response this node can give immediately (owner assignment or dedup
// replay); ok=false means the item was enqueued upward or dropped.
func (s *Sequencer) handleAggItem(from types.NodeID, color types.ColorID, batchID uint64, total uint32) (proto.AggOrderResp, bool) {
	se := s.servingEpoch()
	if se == 0 {
		s.c.droppedStale.Add(1)
		return proto.AggOrderResp{}, false
	}
	s.c.childReqs.Add(1)
	key := childKey{from: from, batchID: batchID}
	ag := s.aggStripeFor(key)
	ag.mu.Lock()
	if last, ok := ag.m[key]; ok {
		// Duplicate resend of a batch we already answered.
		ag.mu.Unlock()
		return proto.AggOrderResp{BatchID: batchID, LastSN: last, Color: color}, true
	}
	if color == s.cfg.Region {
		// The stripe lock spans assign+record so a racing duplicate can
		// never burn a second range for the same child batch.
		last, ok := s.assignFast(total)
		if !ok {
			ag.mu.Unlock()
			s.c.droppedStale.Add(1)
			return proto.AggOrderResp{}, false
		}
		ag.remember(key, last, s.tokenCap)
		ag.mu.Unlock()
		return proto.AggOrderResp{BatchID: batchID, LastSN: last, Color: color}, true
	}
	ag.mu.Unlock()
	s.enqueue(color, member{child: &childBatch{batchID: batchID, from: from}, n: total}, se)
	return proto.AggOrderResp{}, false
}

func (s *Sequencer) onAggOrderResp(m proto.AggOrderResp) {
	v, ok := s.inflight.LoadAndDelete(m.BatchID)
	if !ok {
		return
	}
	inf := v.(*inflight)
	s.queueFor(inf.color).outstanding.Add(-1)
	// Split the assigned range [last-total+1, last] across the members in
	// order (§5.2: "assigns all SNs in the range … which are distributed
	// to their respective origin").
	running := m.LastSN - types.SN(inf.total)
	// Direct members are grouped per replica set so the downward leg is
	// batched too: one OrderRespBatch broadcast per shard in the window
	// instead of one OrderResp broadcast per token. The grouping key is the
	// destination set itself (not the shard id), so requests that leave the
	// shard field unset — ordering-only drivers, older clients — still each
	// reach their own requester.
	type shardOut struct {
		replicas []types.NodeID
		items    []proto.OrderRespItem
	}
	var groupOrder []string
	byGroup := make(map[string]*shardOut)
	for _, mem := range inf.members {
		running += types.SN(mem.n)
		if mem.req != nil {
			st := s.tokenStripeFor(mem.req.Token)
			st.mu.Lock()
			if e, ok := st.m[mem.req.Token]; ok && e.epoch == inf.epoch && !e.assigned {
				st.m[mem.req.Token] = tokenEntry{epoch: e.epoch, assigned: true, lastSN: running}
			}
			st.mu.Unlock()
			key := replicaSetKey(mem.req.Shard, mem.req.Replicas)
			so := byGroup[key]
			if so == nil {
				so = &shardOut{replicas: mem.req.Replicas}
				byGroup[key] = so
				groupOrder = append(groupOrder, key)
			}
			so.items = append(so.items, proto.OrderRespItem{Token: mem.req.Token, LastSN: running, NRecords: mem.n})
		} else {
			s.ep.Send(mem.child.from, proto.AggOrderResp{BatchID: mem.child.batchID, LastSN: running, Color: inf.color})
		}
	}
	for _, key := range groupOrder {
		so := byGroup[key]
		s.ep.Broadcast(so.replicas, orderRespFrame(inf.color, so.items))
	}
}

// onAggOrderRespBatch unpacks a parent's combined answers.
func (s *Sequencer) onAggOrderRespBatch(m proto.AggOrderRespBatch) {
	for _, it := range m.Items {
		s.onAggOrderResp(proto.AggOrderResp{BatchID: it.BatchID, LastSN: it.LastSN, Color: it.Color})
	}
}

// replicaSetKey builds the response-grouping key for one order request's
// destination set.
func replicaSetKey(shard types.ShardID, replicas []types.NodeID) string {
	b := make([]byte, 0, 4+4*len(replicas))
	b = append(b, byte(shard), byte(shard>>8), byte(shard>>16), byte(shard>>24))
	for _, id := range replicas {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// enqueue appends one member to color's pending queue and wakes the
// flusher; crossing defaultFlushThreshold flags the round urgent so the
// flusher skips the remainder of its linger window.
func (s *Sequencer) enqueue(color types.ColorID, m member, se types.Epoch) {
	q := s.queueFor(color)
	q.push(m, se)
	if q.nrec.Load() >= defaultFlushThreshold {
		if s.urgent.CompareAndSwap(false, true) {
			s.c.urgentFlushes.Add(1)
		}
	}
	s.kickFlusher()
}

func (s *Sequencer) kickFlusher() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// flusherLoop merges pending members per color and sends them upward every
// BatchInterval; an urgent flag (queue crossed defaultFlushThreshold) cuts the
// window short so a loaded leaf pipelines rounds back-to-back.
func (s *Sequencer) flusherLoop() {
	defer s.stopped.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.kick:
		}
		if w := s.cfg.BatchInterval; w > 0 && !s.urgent.Load() {
			// The aggregation window: requests arriving in this interval
			// are merged (§5.2). Use stepped sleeps for ≥1ms windows and a
			// spin for microsecond ones, re-checking urgency either way.
			start := time.Now()
			if w >= time.Millisecond {
				for {
					left := w - time.Since(start)
					if left <= 0 || s.urgent.Load() {
						break
					}
					if left > 200*time.Microsecond {
						left = 200 * time.Microsecond
					}
					time.Sleep(left)
				}
			} else {
				for time.Since(start) < w && !s.urgent.Load() {
					runtime.Gosched() // let requests join the window
				}
			}
		}
		s.urgent.Store(false)
		s.flushPending()
	}
}

// flushPending drains every pending queue and sends the aggregated rounds
// upward in one frame: an AggOrderReqBatch combining all colors of the
// round, or the compact AggOrderReq when there is one. A color's new round
// may start while its previous one is unanswered. It never takes s.mu:
// staleness is decided per member by comparing its enqueue epoch against
// the serving epoch, which also covers the not-leader case (serving epoch
// 0 matches no member).
func (s *Sequencer) flushPending() {
	s.c.flushRounds.Add(1)
	se := s.servingEpoch()
	parent, hasParent := s.parentLeader()
	var items []proto.AggOrderItem
	for _, q := range s.pendingQueues() {
		var members []member
		var total uint32
		for {
			m, e, ok := q.pop()
			if !ok {
				break
			}
			if se == 0 || e != se {
				// Enqueued under a dead term (or we are no longer serving):
				// drop; replicas re-drive.
				s.c.droppedStale.Add(1)
				continue
			}
			members = append(members, m)
			total += m.n
		}
		if len(members) == 0 {
			continue
		}
		if !hasParent {
			// No parent (we are the tree root) yet the color is not ours:
			// misrouted; drop, replicas will retry.
			s.c.droppedStale.Add(uint64(len(members)))
			continue
		}
		id := s.batchSeq.Add(1)
		inf := &inflight{color: q.color, epoch: se, total: total, members: members}
		inf.sentAt.Store(time.Now().UnixNano())
		if q.outstanding.Add(1) > 1 {
			s.c.pipelinedBatches.Add(1)
		}
		s.inflight.Store(id, inf)
		s.c.batchesSent.Add(1)
		items = append(items, proto.AggOrderItem{Color: q.color, BatchID: id, Total: total})
	}
	switch len(items) {
	case 0:
	case 1:
		// A single color's round keeps the compact legacy frame.
		it := items[0]
		s.ep.Send(parent, proto.AggOrderReq{Color: it.Color, BatchID: it.BatchID, Total: it.Total, From: s.cfg.ID})
	default:
		s.ep.Send(parent, proto.AggOrderReqBatch{From: s.cfg.ID, Items: items})
	}
}

// parentLeader resolves the current leader of the parent region. The
// topology is internally synchronized; no sequencer lock is needed.
func (s *Sequencer) parentLeader() (types.NodeID, bool) {
	parent, has, err := s.topo.Parent(s.cfg.Region)
	if err != nil || !has {
		return 0, false
	}
	leader, err := s.topo.Leader(parent)
	if err != nil {
		return 0, false
	}
	return leader, true
}
