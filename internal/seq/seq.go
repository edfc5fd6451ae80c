// Package seq implements FlexLog's ordering layer (§5.2): an n-ary tree of
// sequencer nodes that assign 64-bit sequence numbers of the form
// (epoch<<32)|counter to order requests.
//
// Each sequencer owns one region (color). An order request for color c
// enters the tree at the leaf sequencer of the issuing shard and climbs
// toward the root sequencer of region c, which assigns the SN range; the
// response descends the same path. Sequencers below the owner act as
// aggregators (§5.2 "To improve throughput…"): a color with no unanswered
// upward round ships its request at once, and requests arriving while a
// round is unanswered are merged into the next round, one upward request
// for the sum of their record counts.
//
// The ordering hot path is lock-free but for short per-color locks
// (DESIGN.md §14): SN assignment is one atomic fetch-add on a packed
// (epoch<<32)|counter word, token dedup and owner-side batch dedup live in
// striped maps, a color's held requests sit behind one short mutex, and
// all accounting is atomic. The global mutex survives only on the
// election/failover slow path (failover.go), which swaps the packed word
// when epochs change. With OrderWorkers > 0 the
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

	// BatchInterval is ignored: a color's upward round ships at once and
	// combines only behind that color's unanswered round, with no window.
	// The field stays because the wall-clock benchmark module sets it.
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

// DefaultConfig fills the timing knobs with test-friendly values.
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval: 5 * time.Millisecond,
		FailureTimeout:    25 * time.Millisecond,
		RetryTimeout:      50 * time.Millisecond,
		TokenCacheSize:    1 << 20,
	}
}

// member is one constituent of a held or in-flight aggregated round,
// stamped with the serving epoch it was accepted under (members of a dead
// term are dropped when their round ships).
type member struct {
	// Exactly one of req / child is set.
	req   *proto.OrderReq // direct request from a replica (entry point)
	child *childBatch     // merged batch from a child sequencer
	n     uint32
	epoch types.Epoch
}

type childBatch struct {
	batchID uint64
	from    types.NodeID
}

// inflight tracks an aggregated request sent to the parent. It is stamped
// with the serving epoch it was shipped under; a new local leadership
// clears the inflight table, and the resend loop discards stragglers whose
// epoch no longer matches.
type inflight struct {
	color   types.ColorID
	epoch   types.Epoch
	total   uint32
	members []member
	sentAt  atomic.Int64 // unix nanos of the last (re)send
}

// Stats counts ordering-layer activity. It is also what the sequencer
// publishes to the obs registry: each tagged field is one series (see
// obs.Publish).
type Stats struct {
	Assigned     uint64 `obs:"flexlog_seq_assigned_total" help:"Sequence numbers issued by this node as region owner."`
	DirectReqs   uint64 `obs:"flexlog_seq_direct_reqs_total" help:"Order requests received from replicas (including batch items)."`
	ReqBatches   uint64 `obs:"flexlog_seq_req_batches_total" help:"Coalesced OrderReqBatch messages received."`
	ChildReqs    uint64 `obs:"flexlog_seq_child_reqs_total" help:"Aggregated requests received from child sequencers."` // incl. batch items
	BatchesSent  uint64 `obs:"flexlog_seq_batches_sent_total" help:"Aggregated requests sent to the parent sequencer."`
	Resends      uint64 `obs:"flexlog_seq_resends_total" help:"Unanswered aggregated requests re-sent (parent failover)."`
	Elections    uint64 `obs:"flexlog_seq_elections_total" help:"Leaderships won by this node."`
	EpochGrants  uint64 `obs:"flexlog_seq_epoch_grants_total" help:"Epochs granted to child groups."`
	DupTokens    uint64 `obs:"flexlog_seq_dup_tokens_total" help:"Duplicate order requests absorbed by the token cache."`
	DroppedStale uint64 `obs:"flexlog_seq_dropped_stale_total" help:"Stale-epoch messages dropped."`

	Epoch          types.Epoch `obs:"flexlog_seq_epoch" help:"Ordering epoch this sequencer currently serves."`
	HeldRecords    int64       `obs:"flexlog_seq_pending_records" help:"Records held behind their color's unanswered upward round."`
	InflightRounds int         `obs:"flexlog_seq_inflight_batches" help:"Aggregated upward batches awaiting a parent response."`
	Leader         int         `obs:"flexlog_seq_leader" help:"1 when this node is its group's serving leader, else 0."`

	// FlushRounds counts the upward rounds shipped: it reads BatchesSent,
	// and stays because the wall-clock benchmark module reads it.
	FlushRounds uint64 `obs:"-"`
	// UrgentFlushes and PipelinedBatches always read 0: there is no flush
	// window to cut short and no second round in flight per color. They
	// stay because the wall-clock benchmark module reads them.
	UrgentFlushes    uint64 `obs:"-"`
	PipelinedBatches uint64 `obs:"-"`
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

	batches sync.Map // types.ColorID → *colorBatch

	aggSeen [dedupStripes]aggStripe // owner-side dedup of child batches

	batchSeq atomic.Uint64
	inflight sync.Map // batchID uint64 → *inflight

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

	// lanes is the sequencer's message dispatcher: order traffic on the
	// keyed lane, the rest inline. Built once, attached to whichever
	// fabric carries the sequencer's messages, closed by Stop.
	lanes *transport.Lanes
}

type childKey struct {
	from    types.NodeID
	batchID uint64
}

// seqWriteClass keys order traffic onto the write lane by color (one
// color stays FIFO on one worker; colors run in parallel). Election and
// heartbeat traffic stays on the inline delivery path.
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
	// The order lane declares no client requests (no LaneQoS.TenantOf):
	// every message on it is a protocol message, never counted against a
	// queue cap, never shed, and never blocking the goroutine that
	// delivers it, and each worker serves its colors in arrival order.
	s.lanes = transport.NewLanes(s.handle, transport.LaneConfig{},
		transport.LaneConfig{Workers: cfg.OrderWorkers, Key: seqWriteClass})
	return s
}

func (s *Sequencer) start() {
	s.stopped.Add(1)
	go s.timerLoop()
}

// ID returns this node's id.
func (s *Sequencer) ID() types.NodeID { return s.cfg.ID }

// Region returns the color this sequencer group owns.
func (s *Sequencer) Region() types.ColorID { return s.cfg.Region }

// Config returns the configuration the sequencer was built with.
func (s *Sequencer) Config() Config { return s.cfg }

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

// Stats returns a snapshot of the counters and the ordering state:
// atomic loads and two sync.Map walks, so a /metrics scrape takes none of
// the ordering path's locks.
func (s *Sequencer) Stats() Stats {
	st := s.c.snapshot()
	st.Epoch = s.Epoch()
	s.batches.Range(func(_, v any) bool {
		st.HeldRecords += v.(*colorBatch).nrec.Load()
		return true
	})
	s.inflight.Range(func(_, _ any) bool {
		st.InflightRounds++
		return true
	})
	if s.Serving() {
		st.Leader = 1
	}
	return st
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
	case proto.AggOrderResp:
		s.onAggOrderResp(m)
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
		s.enqueue(color, member{req: req, n: it.NRecords, epoch: se})
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
	s.enqueue(color, member{child: &childBatch{batchID: batchID, from: from}, n: total, epoch: se})
	return proto.AggOrderResp{}, false
}

func (s *Sequencer) onAggOrderResp(m proto.AggOrderResp) {
	v, ok := s.inflight.LoadAndDelete(m.BatchID)
	if !ok {
		return
	}
	inf := v.(*inflight)
	s.release(s.batchFor(inf.color), m.BatchID)
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

// enqueue holds m in its color's batch and, when the color has no
// unanswered upward round, ships the batch at once on the calling
// goroutine (the color's lane worker, or the delivery loop). Otherwise m
// waits for that round's answer, which ships everything held behind it.
func (s *Sequencer) enqueue(color types.ColorID, m member) {
	b := s.batchFor(color)
	b.mu.Lock()
	b.held = append(b.held, m)
	b.nrec.Add(int64(m.n))
	if b.round != 0 {
		b.mu.Unlock()
		return
	}
	s.shipLocked(b)
}

// release ends b's unanswered round id — answered, or discarded as stale —
// and ships whatever was held behind it as the next round. id 0 ends the
// round whatever it is (a new leadership cleared the inflight table).
func (s *Sequencer) release(b *colorBatch, id uint64) {
	b.mu.Lock()
	if id != 0 && b.round != id {
		b.mu.Unlock()
		return
	}
	b.round = 0
	s.shipLocked(b)
}

// shipLocked sends b's held members upward as one AggOrderReq and makes it
// the color's unanswered round. Members held under a dead term (or while
// not serving — serving epoch 0 matches no member) are dropped, as is
// everything when there is no parent (the tree root asked for a color it
// does not own: misrouted); replicas re-drive both. Caller holds b.mu;
// shipLocked releases it and sends outside the lock.
func (s *Sequencer) shipLocked(b *colorBatch) {
	se := s.servingEpoch()
	parent, hasParent := s.parentLeader()
	members := b.held[:0] // filtered in place; the round takes the array
	var total uint32
	for _, m := range b.held {
		if !hasParent || m.epoch != se {
			s.c.droppedStale.Add(1)
			continue
		}
		members = append(members, m)
		total += m.n
	}
	b.held = nil
	b.nrec.Store(0)
	if len(members) == 0 {
		b.mu.Unlock()
		return
	}
	id := s.batchSeq.Add(1)
	b.round = id
	inf := &inflight{color: b.color, epoch: se, total: total, members: members}
	inf.sentAt.Store(time.Now().UnixNano())
	s.inflight.Store(id, inf)
	b.mu.Unlock()
	s.c.batchesSent.Add(1)
	s.ep.Send(parent, proto.AggOrderReq{Color: b.color, BatchID: id, Total: total, From: s.cfg.ID})
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
