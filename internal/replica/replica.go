// Package replica implements FlexLog's data-layer node (§5.2, §6): a
// storage server that persists append batches to the tiered PM stack,
// requests sequence numbers from the ordering layer, commits and serves
// records with linearizable local reads, participates in the trim barrier,
// acts as a broker for multi-color appends (Alg. 2), and recovers through
// the sync-phase protocol (§6.3).
//
// One commit path: every way a token receives its SN — an OrderResp, each
// item of an OrderRespBatch, a buffered early response, a catch-up run —
// lands through commit, which commits to the store, bumps the watermark,
// acks the token's waiting clients and wakes held reads. A client waits
// through await, one step under r.mu: ack at once if the store has the
// SN, else join the token's pending order.
//
// Concurrency model (three lanes): read-class traffic (ReadReq,
// SubscribeReq) is dispatched to a transport worker pool
// (Config.ReadWorkers) and runs concurrently; the read path therefore only
// touches storage (internally synchronized), the per-color atomic
// watermarks, the lock-striped held-read registry, and atomic counters —
// never long-held r.mu. See readpath.go for why this preserves
// linearizability. Write-class traffic (AppendBatchReq, AppendReq,
// OrderResp, OrderRespBatch) is dispatched to a keyed write lane
// (Config.WriteWorkers) that pins each color to one worker: same-color
// messages never run concurrently while different colors persist and
// commit in parallel — see writepath.go. Both lanes bound and shed client
// requests only; order responses are never shed and are served first.
// Everything else — trims, sync, multi-append
// — stays on the serialized delivery loop, with shared state guarded by
// r.mu. Timers and multi-append replays run on background goroutines.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/combine"
	"flexlog/internal/obs"
	"flexlog/internal/proto"
	"flexlog/internal/qos"
	"flexlog/internal/storage"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Mode is the replica's operating mode.
type Mode int

// Replica modes.
const (
	ModeOperational Mode = iota
	ModeSyncing
	ModeCrashed
	ModeStopped
	// ModeJoining: spawned outside the topology, pulling committed history
	// from a donor replica (DESIGN.md §15). Appends never reach it (clients
	// cannot address it); Promote moves it to ModeSyncing.
	ModeJoining
	// ModeDraining: removed from the topology, flushing pending orders
	// before Stop. New appends get Reject(reconfiguring); commits, reads,
	// and trims still flow.
	ModeDraining
)

func (m Mode) String() string {
	switch m {
	case ModeOperational:
		return "operational"
	case ModeSyncing:
		return "syncing"
	case ModeCrashed:
		return "crashed"
	case ModeJoining:
		return "joining"
	case ModeDraining:
		return "draining"
	default:
		return "stopped"
	}
}

// Config parameterizes one replica.
type Config struct {
	ID    types.NodeID
	Shard types.ShardID
	Topo  *topology.Topology
	Store storage.Config

	// ReadHoldTimeout bounds how long a read for a not-yet-seen SN is held
	// before returning ⊥ (§6.3 Safety; "a timeout of 1 ms is safe").
	ReadHoldTimeout time.Duration
	// ReadWorkers sizes the concurrent read/subscribe service lane; 0
	// serves reads inline on the (serialized) delivery loop.
	ReadWorkers int
	// WriteWorkers sizes the keyed write lane: appends/commits are pinned
	// to a worker by color (serial within a color, parallel across colors).
	// 0 keeps all mutations on the serialized delivery loop.
	WriteWorkers int
	// OrderCoalesce is inert: every replica coalesces its order requests
	// (writepath.go). Kept until the benchmark module stops setting it
	// (ROADMAP 1b).
	OrderCoalesce bool
	// HeartbeatInterval bounds the timer tick (retries of sync runs,
	// pending orders and join rounds are checked this often).
	HeartbeatInterval time.Duration
	// RetryTimeout re-issues order requests that got no response (e.g.
	// across sequencer failover).
	RetryTimeout time.Duration
	// StoreFactory overrides how the storage stack is built (e.g. to
	// re-attach to restored device snapshots); nil uses storage.Open(Store).
	StoreFactory func(storage.Config) (*storage.Store, error)
	// Tenants declares the multi-tenant QoS envelope (DESIGN.md §13):
	// per-tenant weights for the weighted-fair scheduling of both service
	// lanes and token-bucket admission control at the append ingress.
	// Empty = no admission control and one tenant queue per lane queue.
	// Either way a client request beyond a full tenant queue is answered
	// with Reject(overloaded), and protocol messages are never shed.
	Tenants []qos.TenantConfig

	// Obs, when set, publishes the replica's counters into the registry and
	// enables append/read stage tracing (see obs.go). The storage stack
	// inherits it unless Store.Obs is already set.
	Obs *obs.Registry
	// TraceSlow is the latency above which a traced request enters the
	// slow-request ring (/debug/traces); 0 means 1ms.
	TraceSlow time.Duration
}

// DefaultConfig returns test-friendly timing parameters.
func DefaultConfig() Config {
	return Config{
		Store:             storage.TestConfig(),
		ReadHoldTimeout:   time.Millisecond,
		ReadWorkers:       4,
		WriteWorkers:      4,
		HeartbeatInterval: 5 * time.Millisecond,
		RetryTimeout:      30 * time.Millisecond,
	}
}

// pendingOrder tracks an append awaiting its sequence number.
type pendingOrder struct {
	color    types.ColorID
	nRecords uint32
	clients  map[types.NodeID]bool // who to ack on commit
	sentAt   time.Time

	// Tracing stamps, set only while the append tracer is enabled:
	// arrivedAt anchors the end-to-end latency, persistD is the PM
	// persistence stage measured in onAppendBatch.
	arrivedAt time.Time
	persistD  time.Duration
}

// heldRead is a read request parked until its SN appears or times out.
type heldRead struct {
	req      proto.ReadReq
	from     types.NodeID
	deadline time.Time
}

// trimWait tracks the all-to-all ack barrier of one trim (§6.2).
type trimWait struct {
	req   proto.TrimReq
	from  types.NodeID
	acks  map[types.NodeID]bool
	peers []types.NodeID
}

// Stats counts replica activity. It is also what the replica publishes
// to the obs registry: each tagged field is one series (see obs.Publish).
type Stats struct {
	Appends      uint64 `obs:"flexlog_replica_appends_total" help:"Append batches processed in operational mode (one per token)."`
	BatchAppends uint64 `obs:"flexlog_replica_batch_appends_total" help:"Append batches admitted (AppendBatchReq; an AppendReq is a one-set batch)."`
	BatchRecords uint64 `obs:"flexlog_replica_batch_records_total" help:"Records carried by admitted append batches."`
	Commits      uint64 `obs:"flexlog_replica_commits_total" help:"SN assignments committed (order responses and catch-up runs)."`
	Reads        uint64 `obs:"flexlog_replica_reads_total" help:"Read requests served."`
	HeldReads    uint64 `obs:"flexlog_replica_held_reads_total" help:"Reads parked for a not-yet-seen SN."`
	HeldWakeups  uint64 `obs:"flexlog_replica_held_wakeups_total" help:"Parked reads released by a satisfying commit."`
	ReadMisses   uint64 `obs:"flexlog_replica_read_misses_total" help:"Reads answered with bottom (hole or trimmed)."`
	Subscribes   uint64 `obs:"flexlog_replica_subscribes_total" help:"Subscribe requests served."`
	Trims        uint64 `obs:"flexlog_replica_trims_total" help:"Trim requests applied."`
	OReqRetries  uint64 `obs:"flexlog_replica_oreq_retries_total" help:"Order requests re-issued after RetryTimeout."`
	AppendDrops  uint64 `obs:"flexlog_replica_append_drops_total" help:"Appends dropped because persistence failed (capacity/oversize)."`
	OReqDrops    uint64 `obs:"flexlog_replica_oreq_drops_total" help:"Order requests dropped on topology lookup failure."`
	TrimDrops    uint64 `obs:"flexlog_replica_trim_drops_total" help:"Trims the store refused (TrimReq or a catch-up donor's trim frontier)."`
	Syncs        uint64 `obs:"flexlog_replica_syncs_total" help:"Sync-phase runs completed."`
	SyncRetries  uint64 `obs:"flexlog_replica_sync_retries_total" help:"Stalled sync-phase stages re-driven."`
	SyncAborts   uint64 `obs:"flexlog_replica_sync_aborts_total" help:"Wedged sync runs abandoned."`
	Replays      uint64 `obs:"flexlog_replica_replays_total" help:"Multi-append record sets replayed."`

	// Reconfiguration (DESIGN.md §15).
	JoinRounds      uint64 `obs:"flexlog_replica_join_rounds_total" help:"Join catch-up fetch rounds ingested."`
	JoinRecords     uint64 `obs:"flexlog_replica_join_records_total" help:"Records ingested through join catch-up."`
	ReconfigRejects uint64 `obs:"flexlog_replica_reconfig_rejects_total" help:"Appends rejected with Reject(reconfiguring) while draining."`
	TopoApplies     uint64 `obs:"flexlog_replica_topo_applies_total" help:"Topology snapshots adopted from TopoUpdate broadcasts."`

	// State at the snapshot; the autoscaler polls the first two.
	HeldNow       int    `obs:"flexlog_replica_held_reads" help:"Reads currently parked awaiting their SN."`
	PendingOrders int    `obs:"flexlog_replica_pending_orders" help:"Appends persisted but still awaiting a sequence number."`
	Mode          Mode   `obs:"flexlog_replica_mode" help:"Replica mode: 0 operational, 1 syncing, 2 crashed, 3 stopped, 4 joining, 5 draining."`
	JoinLag       uint64 `obs:"flexlog_replica_join_lag" help:"Estimated records behind the donor while joining (0 when not joining)."`
}

// counters is the live, atomically updated form of Stats: the read lane
// bumps these concurrently with the mutation loop.
type counters struct {
	appends      atomic.Uint64
	batchAppends atomic.Uint64
	batchRecords atomic.Uint64
	commits      atomic.Uint64
	reads        atomic.Uint64
	heldReads    atomic.Uint64
	heldWakeups  atomic.Uint64
	readMisses   atomic.Uint64
	subscribes   atomic.Uint64
	trims        atomic.Uint64
	oreqRetries  atomic.Uint64
	appendDrops  atomic.Uint64
	oreqDrops    atomic.Uint64
	trimDrops    atomic.Uint64
	syncs        atomic.Uint64
	syncRetries  atomic.Uint64
	syncAborts   atomic.Uint64
	replays      atomic.Uint64

	joinRounds      atomic.Uint64
	joinRecords     atomic.Uint64
	reconfigRejects atomic.Uint64
	topoApplies     atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Appends:      c.appends.Load(),
		BatchAppends: c.batchAppends.Load(),
		BatchRecords: c.batchRecords.Load(),
		Commits:      c.commits.Load(),
		Reads:        c.reads.Load(),
		HeldReads:    c.heldReads.Load(),
		HeldWakeups:  c.heldWakeups.Load(),
		ReadMisses:   c.readMisses.Load(),
		Subscribes:   c.subscribes.Load(),
		Trims:        c.trims.Load(),
		OReqRetries:  c.oreqRetries.Load(),
		AppendDrops:  c.appendDrops.Load(),
		OReqDrops:    c.oreqDrops.Load(),
		TrimDrops:    c.trimDrops.Load(),
		Syncs:        c.syncs.Load(),
		SyncRetries:  c.syncRetries.Load(),
		SyncAborts:   c.syncAborts.Load(),
		Replays:      c.replays.Load(),

		JoinRounds:      c.joinRounds.Load(),
		JoinRecords:     c.joinRecords.Load(),
		ReconfigRejects: c.reconfigRejects.Load(),
		TopoApplies:     c.topoApplies.Load(),
	}
}

// atomicMode is the replica mode as a lock-free cell: every inbound
// message (on either lane) checks it.
type atomicMode struct{ v atomic.Int32 }

func (m *atomicMode) load() Mode    { return Mode(m.v.Load()) }
func (m *atomicMode) store(md Mode) { m.v.Store(int32(md)) }

// Replica is one data-layer node.
type Replica struct {
	cfg  Config
	topo *topology.Topology
	ep   transport.Endpoint
	st   *storage.Store

	// Lock-free state shared between the mutation loop and the read lane.
	mode    atomicMode
	ready   atomic.Bool  // endpoint published; handle drops messages until set
	maxSeen watermarks   // per-color highest SN observed (commit or sync)
	held    heldRegistry // parked reads keyed by (color, SN)
	stats   counters
	orders  *combine.Queue[orderReq] // per-color order-request batching (writepath.go)
	admit   *qos.Admission           // per-tenant append admission (nil = unlimited)
	tenants tenantRegistry           // per-tenant QoS counters

	// Tracers for the two service paths (nil when Config.Obs is unset;
	// every method is nil-safe). See obs.go.
	appendTr *obs.Tracer
	readTr   *obs.Tracer

	// joinLag is the latest catch-up lag estimate (MaxUint64 before the
	// first round answers); read lock-free by the control plane.
	joinLag atomic.Uint64

	mu      sync.Mutex
	join    *joinState // active catch-up transfer (ModeJoining)
	pending map[types.Token]*pendingOrder
	trims   map[uint64]*trimWait
	// The per-region follow state (§6.3): a shard follows the sequencer
	// group of its leaf region and of every ancestor, each with its own
	// epochs. seqEpochs holds the last SeqInit epoch accepted from each
	// region, seqInits the SeqInits to ack when the sync-phase ends.
	seqEpochs  map[types.ColorID]types.Epoch
	seqInits   map[types.ColorID]proto.SeqInit
	syncRuns   map[uint64]*syncRun // concurrent sync-phases, keyed by run id
	syncSeq    uint64
	replays    map[types.Token]*replayWait
	early      map[types.Token]proto.OrderResp // OResps that beat their append
	earlyOrder []types.Token                   // insertion order of early entries (oldest first)
	stopCh     chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup

	// lanes is the replica's message dispatcher: the read lane, the keyed
	// write lane and the inline path. Built once, attached to whichever
	// fabric carries the replica's messages, closed by Stop.
	lanes *transport.Lanes

	// persisted, when set, runs after onAppendBatch persists a batch and
	// before its client registers: a test seam for a commit landing in
	// between.
	persisted func(types.Token)
	// committing, when set, runs in commit between the repeat check and
	// the store commit: a test seam for two commits of one token racing.
	committing func(types.Token)
}

// New creates a replica, attaches it to the network, and starts its timers.
func New(cfg Config, net *transport.Network) (*Replica, error) {
	return build(cfg, func(l *transport.Lanes) (transport.Endpoint, error) {
		return net.RegisterWithLanes(cfg.ID, l)
	})
}

// NewWithEndpoint creates a replica over a custom endpoint (TCP mode).
func NewWithEndpoint(cfg Config, attach func(h transport.Handler) (transport.Endpoint, error)) (*Replica, error) {
	return build(cfg, func(l *transport.Lanes) (transport.Endpoint, error) {
		return attach(l.Handler())
	})
}

// build is the one constructor: only how the replica's lanes meet the
// fabric differs between the in-process network and a custom endpoint.
func build(cfg Config, attach func(*transport.Lanes) (transport.Endpoint, error)) (*Replica, error) {
	st, err := buildStore(cfg)
	if err != nil {
		return nil, err
	}
	r := newReplica(cfg, st)
	ep, err := attach(r.lanes)
	if err != nil {
		r.lanes.Close()
		return nil, err
	}
	r.ep = ep
	r.ready.Store(true)
	r.start()
	return r, nil
}

// buildStore constructs the replica's storage stack. The replica's
// registry flows into the store config so one Config.Obs switch lights up
// the whole node.
func buildStore(cfg Config) (*storage.Store, error) {
	if cfg.Obs != nil && cfg.Store.Obs == nil {
		cfg.Store.Obs = cfg.Obs
		cfg.Store.ObsNode = fmt.Sprintf("%d", cfg.ID)
	}
	if cfg.StoreFactory != nil {
		return cfg.StoreFactory(cfg.Store)
	}
	return storage.Open(cfg.Store)
}

func newReplica(cfg Config, st *storage.Store) *Replica {
	r := &Replica{
		cfg:       cfg,
		topo:      cfg.Topo,
		st:        st,
		pending:   make(map[types.Token]*pendingOrder),
		trims:     make(map[uint64]*trimWait),
		seqEpochs: make(map[types.ColorID]types.Epoch),
		seqInits:  make(map[types.ColorID]proto.SeqInit),
		replays:   make(map[types.Token]*replayWait),
		early:     make(map[types.Token]proto.OrderResp),
		syncRuns:  make(map[uint64]*syncRun),
		stopCh:    make(chan struct{}),
	}
	r.mode.store(ModeOperational)
	r.admit = qos.NewAdmission(cfg.Tenants)
	r.initObs()
	read, write := r.laneConfigs()
	r.lanes = transport.NewLanes(r.handle, read, write)
	r.orders = combine.New(maxOrderBatch, r.sendOrderBatch)
	return r
}

func (r *Replica) start() {
	r.wg.Add(1)
	go r.timerLoop()
}

// ID returns this replica's node id.
func (r *Replica) ID() types.NodeID { return r.cfg.ID }

// Config returns the configuration the replica was built with.
func (r *Replica) Config() Config { return r.cfg }

// Mode returns the replica's current mode.
func (r *Replica) Mode() Mode {
	return r.mode.load()
}

// Store exposes the storage stack (benchmarks and tests).
func (r *Replica) Store() *storage.Store { return r.st }

// Stats returns a snapshot of the counters and of the replica's state.
func (r *Replica) Stats() Stats {
	s := r.stats.snapshot()
	s.HeldNow = r.held.size()
	s.PendingOrders = r.PendingOrders()
	if s.Mode = r.mode.load(); s.Mode == ModeJoining {
		s.JoinLag = r.JoinLag()
	}
	return s
}

// Stop shuts the replica down gracefully.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		r.mode.store(ModeStopped)
		close(r.stopCh)
		r.lanes.Close()
	})
	r.wg.Wait()
}

// shardPeers returns the other replicas of this shard.
func (r *Replica) shardPeers() []types.NodeID {
	sh, err := r.topo.Shard(r.cfg.Shard)
	if err != nil {
		return nil
	}
	var out []types.NodeID
	for _, id := range sh.Replicas {
		if id != r.cfg.ID {
			out = append(out, id)
		}
	}
	return out
}

// handle dispatches one inbound message. Read-class messages arrive here
// on lane workers, everything else on the delivery loop.
func (r *Replica) handle(from types.NodeID, msg transport.Message) {
	if !r.ready.Load() {
		// Delivery starts at Register, before the endpoint is published;
		// drop the racing message — every protocol re-drives lost ones.
		return
	}
	mode := r.mode.load()
	if mode == ModeCrashed || mode == ModeStopped {
		return
	}
	switch m := msg.(type) {
	case proto.AppendReq:
		// Only the benchmark module's ladder and tests send one: a one-set
		// batch sharing the request's records and entry.
		r.onAppendBatch(from, proto.AppendBatchReq{Color: m.Color, Token: m.Token, Sets: [][][]byte{m.Records}, Client: m.Client, Tenant: m.Tenant, Entry: m.Entry})
	case proto.AppendBatchReq:
		r.onAppendBatch(from, m)
	case proto.OrderResp:
		r.commit(m.Color, m.Token, m.LastSN)
	case proto.OrderRespBatch:
		// Items share the batch's color, so on a write lane the batch runs
		// on that color's worker, FIFO with the appends it commits.
		for _, it := range m.Items {
			r.commit(m.Color, it.Token, it.LastSN)
		}
	case proto.ReadReq:
		r.onRead(from, m)
	case proto.SubscribeReq:
		r.onSubscribe(from, m)
	case proto.TrimReq:
		r.onTrim(from, m)
	case proto.TrimPeerAck:
		r.onTrimPeerAck(m)
	case proto.MultiAppendEnd:
		r.onMultiAppendEnd(from, m)
	case proto.AppendAck:
		r.onAppendAck(from, m) // acks for replays this replica initiated
	case proto.SeqInit:
		r.onSeqInit(m)
	case proto.SyncRequest:
		r.onSyncRequest(m)
	case proto.SyncDone:
		r.onSyncDone(m)
	case proto.JoinFetch:
		r.onJoinFetch(from, m)
	case proto.JoinEntries:
		r.onJoinEntries(m)
	case proto.TopoUpdate:
		r.onTopoUpdate(m)
	case proto.CtrlReconfig:
		r.onCtrlReconfig(from, m)
	}
}

// ---- Append protocol (Alg. 1, replica role) ----

// onAppendBatch runs the replica side of the append protocol for one
// token: admit the batch, persist its sets as one unit (a retried token is
// already persisted), then register the client for the token's SN. The
// sets occupy one consecutive SN range, so the client demultiplexes
// per-set SNs from the last SN in the AppendAck.
func (r *Replica) onAppendBatch(from types.NodeID, m proto.AppendBatchReq) {
	n := m.NRecords()
	if n == 0 {
		return
	}
	if !r.admitAppend(from, m.Tenant, m.Token, m.Color, m.Client, n) {
		return
	}
	r.tenantCounters(m.Tenant).appendObserved(uint64(n))
	r.stats.batchAppends.Add(1)
	r.stats.batchRecords.Add(uint64(n))
	if mode := r.mode.load(); mode != ModeOperational {
		// §6.3: replicas in sync mode stop processing new appends — the
		// client (or broker) retries. Draining replicas answer with a typed
		// retryable rejection so clients re-resolve membership immediately
		// instead of burning the timeout.
		if mode == ModeDraining {
			r.rejectDraining(from, m.Color, m.Token, m.Client)
		}
		return
	}
	r.stats.appends.Add(1)
	client := m.Client
	if client == 0 {
		client = from
	}
	// Tracing stamps: arrivedAt anchors end-to-end latency, persistD is
	// measured around persist. Zero-value when the tracer is off.
	po := &pendingOrder{color: m.Color, nRecords: uint32(n), clients: map[types.NodeID]bool{}}
	if r.appendTr.Enabled() {
		po.arrivedAt = time.Now()
	}
	// The decoder laid the batch out as one entry: persist it as it is.
	if err := r.st.PutEntry(m.Color, m.Token, m.Entry); err != nil && !errors.Is(err, storage.ErrDuplicateToken) {
		// Out of space or oversized; the client times out and retries
		// elsewhere. Count it: silent drops made capacity exhaustion look
		// like network loss.
		r.stats.appendDrops.Add(1)
		return
	}
	if !po.arrivedAt.IsZero() {
		po.persistD = time.Since(po.arrivedAt)
	}
	if r.persisted != nil {
		r.persisted(m.Token)
	}
	r.await(m.Token, client, po)
}

// await registers client as waiting for the SN of a persisted token, in one
// step under r.mu: a token the store has committed is acked at once;
// otherwise the client joins the token's pending order (po, unless one is
// open) and a buffered early response is taken. commit publishes the SN in
// the store before it takes r.mu, so either this check sees the SN or that
// commit finds the client in pending: no interleaving strands a client.
// A token already waiting has its order request re-driven.
func (r *Replica) await(token types.Token, client types.NodeID, po *pendingOrder) {
	r.mu.Lock()
	if sn, _ := r.st.TokenSN(token); sn.Valid() {
		r.mu.Unlock()
		r.ep.Send(client, proto.AppendAck{Token: token, SN: sn})
		return
	}
	if open := r.pending[token]; open != nil {
		po = open
	} else {
		r.pending[token] = po
	}
	po.clients[client] = true
	po.sentAt = time.Now() // the retry timer counts from this send
	early, ok := r.early[token]
	delete(r.early, token)
	r.mu.Unlock()
	if ok {
		r.commit(early.Color, token, early.LastSN)
		return
	}
	r.sendOrderReq(token, po.color, po.nRecords)
}

// sendOrderReq issues the round-2 order request to the leaf sequencer
// through the order queue: at once when no send is running, else with the
// running one's next batch.
func (r *Replica) sendOrderReq(token types.Token, color types.ColorID, n uint32) {
	r.orders.Add(orderReq{color: color, item: proto.OrderItem{Token: token, NRecords: n}})
	r.orders.Kick()
}

// sendOrderItems ships one color's order requests to the leaf sequencer as
// one frame.
func (r *Replica) sendOrderItems(color types.ColorID, items []proto.OrderItem) {
	sh, err := r.topo.Shard(r.cfg.Shard)
	var leader types.NodeID
	if err == nil {
		// The topology routes to the leaf region's current leader.
		leader, err = r.topo.Leader(sh.Leaf)
	}
	if err != nil {
		// The topology cannot name our shard or its leaf sequencer: the
		// appends stall until the pending-order retry timer re-drives them;
		// count it instead of failing silently.
		r.stats.oreqDrops.Add(uint64(len(items)))
		return
	}
	replicas := r.orderReplicas(sh.Replicas)
	if len(items) == 1 {
		// Single request: keep the compact frame.
		r.ep.Send(leader, proto.OrderReq{
			Color: color, Token: items[0].Token, NRecords: items[0].NRecords,
			Shard: r.cfg.Shard, Replicas: replicas,
		})
		return
	}
	r.ep.Send(leader, proto.OrderReqBatch{
		Color: color, Shard: r.cfg.Shard, Replicas: replicas, Items: items,
	})
}

// commit is the one way a token receives its SN — an OrderResp, each
// item of an OrderRespBatch, a buffered early response, a catch-up run —
// Alg. 1's commit_all: commit the batch in the store, bump the watermark,
// ack the token's waiting clients and wake the reads the new frontier
// satisfies. A response for a token this replica has not persisted yet
// (its append is still in flight) is buffered for await to take. A repeat
// of the committed SN (the sequencer answers every late duplicate order
// request) is not counted and wakes no read; it only acks a client that
// registered against an SN this path did not land (one committed straight
// in the store). The error is the store's: nil when the batch committed
// at last.
func (r *Replica) commit(color types.ColorID, token types.Token, last types.SN) error {
	var start time.Time
	if r.appendTr.Enabled() {
		start = time.Now()
	}
	sn, _ := r.st.TokenSN(token)
	repeat := sn == last
	var err error
	if !repeat {
		if r.committing != nil {
			r.committing(token)
		}
		var applied bool
		applied, err = r.st.CommitApplied(token, last)
		if errors.Is(err, storage.ErrUnknownToken) {
			r.bufferEarly(proto.OrderResp{Token: token, LastSN: last, Color: color}, maxEarly)
			return err
		}
		// A conflicting SN for an already-committed token: first wins, and
		// the extra range becomes a hole, which is legal (§6.3).
		if sn, _ = r.st.TokenSN(token); !sn.Valid() {
			return err // nothing landed: the waiters stay for a valid answer
		}
		if applied {
			r.stats.commits.Add(1)
		}
		r.maxSeen.bump(color, last)
	}
	r.mu.Lock()
	po := r.pending[token]
	delete(r.pending, token)
	r.mu.Unlock()
	if po != nil {
		if !start.IsZero() && !po.arrivedAt.IsZero() {
			r.traceAppend(token, po, start)
		}
		for c := range po.clients {
			r.ep.Send(c, proto.AppendAck{Token: token, SN: sn})
		}
	}
	if !repeat {
		r.wakeHeld(color, r.frontier(color))
	}
	return err
}

// maxEarly caps the buffer of responses that arrive before their append.
const maxEarly = 1 << 16

// bufferEarly stores an OrderResp that beat its append. The buffer is
// bounded: overflow evicts the oldest live entry — never the one just
// inserted, which would stall that append until the sequencer's retry
// rebroadcast.
func (r *Replica) bufferEarly(m proto.OrderResp, bound int) {
	r.mu.Lock()
	if _, exists := r.early[m.Token]; !exists {
		r.earlyOrder = append(r.earlyOrder, m.Token)
	}
	r.early[m.Token] = m
	for len(r.early) > bound {
		var victim types.Token
		found := false
		for len(r.earlyOrder) > 0 {
			t := r.earlyOrder[0]
			if t == m.Token {
				break // the oldest live entry is the new one: keep it
			}
			r.earlyOrder = r.earlyOrder[1:]
			// Skip stale queue entries whose map entry await consumed.
			if _, live := r.early[t]; live {
				victim, found = t, true
				break
			}
		}
		if !found {
			break
		}
		// Dropping a buffered OResp is harmless: the sequencer rebroadcasts
		// on the owning replica's retry.
		delete(r.early, victim)
	}
	// await deletes from the map only, so stale tokens accumulate in the
	// queue; compact when they dominate.
	if len(r.earlyOrder) > 4*len(r.early)+64 {
		live := r.earlyOrder[:0]
		for _, t := range r.earlyOrder {
			if _, ok := r.early[t]; ok {
				live = append(live, t)
			}
		}
		r.earlyOrder = live
	}
	r.mu.Unlock()
}

// The read protocol (§6.1, §6.3 read-hold) and subscribe (§6.2) live in
// readpath.go: they run concurrently on the transport's read lane.

// ---- Trim (§6.2) with the all-to-all ack barrier ----

func (r *Replica) onTrim(from types.NodeID, m proto.TrimReq) {
	if _, _, err := r.st.Trim(m.Color, m.SN); err != nil {
		// No ack: the client asks again until its deadline.
		r.stats.trimDrops.Add(1)
		return
	}
	r.stats.trims.Add(1)
	r.mu.Lock()
	client := m.Client
	if client == 0 {
		client = from
	}
	tw := r.trimWaitLocked(m.ID, m.Color, m.SN)
	tw.req, tw.from = m, client
	tw.acks[r.cfg.ID] = true
	peers := tw.peers
	done := r.trimDoneLocked(tw)
	r.mu.Unlock()
	// Round 2: ack to all replicas participating in the trim.
	ack := proto.TrimPeerAck{ID: m.ID, Color: m.Color, SN: m.SN, From: r.cfg.ID}
	r.ep.Broadcast(peers, ack)
	if done {
		r.finishTrim(m.ID)
	}
}

// trimPeers lists every other replica of every shard of the color's region.
func (r *Replica) trimPeers(color types.ColorID) []types.NodeID {
	all := r.topo.ReplicasInRegion(color)
	var out []types.NodeID
	for _, id := range all {
		if id != r.cfg.ID {
			out = append(out, id)
		}
	}
	return out
}

// trimWaitLocked returns trim id's barrier, opening it — with the trim's
// color and its participants — if this is the trim's first message here: a
// peer's ack can overtake the client's TrimReq. Caller holds r.mu.
func (r *Replica) trimWaitLocked(id uint64, color types.ColorID, sn types.SN) *trimWait {
	tw := r.trims[id]
	if tw == nil {
		tw = &trimWait{
			req:   proto.TrimReq{ID: id, Color: color, SN: sn},
			acks:  make(map[types.NodeID]bool),
			peers: r.trimPeers(color),
		}
		r.trims[id] = tw
	}
	return tw
}

func (r *Replica) onTrimPeerAck(m proto.TrimPeerAck) {
	r.mu.Lock()
	tw := r.trimWaitLocked(m.ID, m.Color, m.SN)
	tw.acks[m.From] = true
	done := r.trimDoneLocked(tw)
	r.mu.Unlock()
	if done {
		r.finishTrim(m.ID)
	}
}

// trimDoneLocked reports whether every participant acked. Caller holds mu.
func (r *Replica) trimDoneLocked(tw *trimWait) bool {
	if tw.from == 0 {
		return false // haven't seen the TrimReq itself yet
	}
	for _, p := range tw.peers {
		if !tw.acks[p] {
			return false
		}
	}
	return tw.acks[r.cfg.ID]
}

// finishTrim sends the [head, tail] answer to the caller (round 3).
func (r *Replica) finishTrim(id uint64) {
	r.mu.Lock()
	tw := r.trims[id]
	if tw == nil {
		r.mu.Unlock()
		return
	}
	delete(r.trims, id)
	r.mu.Unlock()
	head, tail := r.st.Bounds(tw.req.Color)
	r.ep.Send(tw.from, proto.TrimAck{ID: id, Color: tw.req.Color, Head: head, Tail: tail})
}

// ---- Timers ----

func (r *Replica) timerLoop() {
	defer r.wg.Done()
	interval := r.cfg.HeartbeatInterval
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	if hold := r.cfg.ReadHoldTimeout; hold > 0 && hold < interval {
		interval = hold
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case now := <-t.C:
			r.tick(now)
		}
	}
}

// tick runs the periodic work due at now. The ticker is as fine as the
// read-hold timeout so held reads expire on time. Only the timer
// goroutine calls tick.
func (r *Replica) tick(now time.Time) {
	switch r.mode.load() {
	case ModeOperational, ModeDraining:
		// Draining keeps the order-retry machinery alive so its pending
		// appends flush before Stop.
		r.expireHeldReads(now)
		r.retrySyncRuns(now)
		r.retryPendingOrders(now)
	case ModeSyncing:
		r.expireHeldReads(now)
		r.retrySyncRuns(now)
	case ModeJoining:
		r.retryJoin(now)
	}
}

// retryPendingOrders re-issues order requests that have gone unanswered
// (e.g. the sequencer failed over and its backups are stateless).
func (r *Replica) retryPendingOrders(now time.Time) {
	if r.cfg.RetryTimeout <= 0 {
		return
	}
	type resend struct {
		token types.Token
		color types.ColorID
		n     uint32
	}
	var out []resend
	r.mu.Lock()
	for tok, po := range r.pending {
		if po.sentAt.IsZero() || now.Sub(po.sentAt) >= r.cfg.RetryTimeout {
			po.sentAt = now
			r.stats.oreqRetries.Add(1)
			out = append(out, resend{token: tok, color: po.color, n: po.nRecords})
		}
	}
	r.mu.Unlock()
	for _, o := range out {
		r.sendOrderReq(o.token, o.color, o.n)
	}
}
