// Package replica implements FlexLog's data-layer node (§5.2, §6): a
// storage server that persists append batches to the tiered PM stack,
// requests sequence numbers from the ordering layer, commits and serves
// records with linearizable local reads, participates in the trim barrier,
// acts as a broker for multi-color appends (Alg. 2), and recovers through
// the sync-phase protocol (§6.3).
//
// Concurrency model (three lanes): read-class traffic (ReadReq,
// SubscribeReq) is dispatched to a transport worker pool
// (Config.ReadWorkers) and runs concurrently; the read path therefore only
// touches storage (internally synchronized), the per-color atomic
// watermarks, the lock-striped held-read registry, and atomic counters —
// never long-held r.mu. See readpath.go for why this preserves
// linearizability. Write-class traffic (AppendReq, AppendBatchReq,
// OrderResp, OrderRespBatch) is dispatched to a keyed write lane
// (Config.WriteWorkers) that pins each color to one worker: same-color
// messages stay FIFO while different colors persist and commit in
// parallel — see writepath.go. Everything else — trims, sync, multi-append
// — stays on the serialized delivery loop, with shared state guarded by
// r.mu. Timers and multi-append replays run on background goroutines.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	// to a worker by color (FIFO within a color, parallel across colors).
	// 0 keeps all mutations on the serialized delivery loop.
	WriteWorkers int
	// OrderCoalesce ships the order requests that queue up while one is
	// being sent to the leaf sequencer as one OrderReqBatch per color (the
	// replica-edge analogue of §5.2 aggregation); an idle replica still
	// sends each request at once.
	OrderCoalesce bool
	// EarlyBound caps the buffer of OrderResps that arrive before their
	// AppendReq; 0 uses a large default. Tests shrink it to exercise
	// eviction.
	EarlyBound int
	// HeartbeatInterval bounds the timer tick (retries of sync runs,
	// pending orders and join rounds are checked this often).
	HeartbeatInterval time.Duration
	// RetryTimeout re-issues order requests that got no response (e.g.
	// across sequencer failover).
	RetryTimeout time.Duration
	// StoreFactory overrides how the storage stack is built (e.g. to
	// re-attach to restored device snapshots); nil uses storage.Open(Store).
	StoreFactory func(storage.Config) (*storage.Store, error)
	// JoinBudget caps the records per color one catch-up round may carry —
	// a joiner's, and a recovering replica's in its sync-phase (DESIGN.md
	// §15.3); 0 uses 2048. Smaller rounds bound the memory and wire
	// footprint of a catch-up under live traffic.
	JoinBudget int
	// Tenants declares the multi-tenant QoS envelope (DESIGN.md §13):
	// per-tenant weighted-fair scheduling on both service lanes,
	// token-bucket admission control at the append ingress, and typed
	// Reject responses when a lane queue sheds. Empty = QoS off (legacy
	// blocking lanes, no admission control).
	Tenants []qos.TenantConfig

	// Obs, when set, publishes the replica's counters into the registry and
	// enables append/read stage tracing (see obs.go). The storage stack
	// inherits it unless Store.Obs is already set.
	Obs *obs.Registry
	// TraceSlow is the latency above which a traced request enters the
	// slow-request ring (/debug/traces); 0 means 1ms.
	TraceSlow time.Duration
	// TraceRing caps the slow-request ring; 0 means 64.
	TraceRing int
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
	// persistence stage measured in doAppend.
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

// Stats counts replica activity.
type Stats struct {
	Appends      uint64
	BatchAppends uint64 // client-side coalesced batches (AppendBatchReq)
	BatchRecords uint64 // records carried by those batches
	Commits      uint64
	Reads        uint64
	HeldReads    uint64
	HeldWakeups  uint64 // parked reads released by a satisfying commit
	ReadMisses   uint64
	Subscribes   uint64
	Trims        uint64
	OReqRetries  uint64
	AppendDrops  uint64 // appends dropped because persistence failed (was silent)
	OReqDrops    uint64 // order requests dropped on topology lookup failure (was silent)
	Syncs        uint64
	SyncRetries  uint64 // stalled sync-phase stages re-driven (lossy links)
	SyncAborts   uint64 // wedged sync runs abandoned (peer crashed mid-run)
	Replays      uint64 // multi-append record sets replayed

	// Reconfiguration (DESIGN.md §15).
	JoinRounds      uint64 // catch-up fetch rounds ingested while joining
	JoinRecords     uint64 // records ingested through join catch-up
	ReconfigRejects uint64 // appends answered Reject(reconfiguring) while draining
	TopoApplies     uint64 // topology snapshots adopted from TopoUpdate
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
	coal    *orderCoalescer // per-color order-request batching (nil = direct)
	admit   *qos.Admission  // per-tenant append admission (nil = unlimited)
	tenants tenantRegistry  // per-tenant QoS counters

	// Tracers for the two service paths (nil when Config.Obs is unset;
	// every method is nil-safe). See obs.go.
	appendTr *obs.Tracer
	readTr   *obs.Tracer

	// joinLag is the latest catch-up lag estimate (MaxUint64 before the
	// first round answers); read lock-free by the control plane.
	joinLag atomic.Uint64

	mu         sync.Mutex
	join       *joinState   // active catch-up transfer (ModeJoining)
	epoch      types.Epoch  // known sequencer epoch (§6.3)
	seqNode    types.NodeID // current leaf-sequencer leader
	pending    map[types.Token]*pendingOrder
	trims      map[uint64]*trimWait
	initSeq    types.NodeID // sequencer awaiting SeqInitAck after sync
	initEpo    types.Epoch
	syncRuns   map[uint64]*syncRun // concurrent sync-phases, keyed by run id
	syncSeq    uint64
	replays    map[types.Token]*replayWait
	early      map[types.Token]proto.OrderResp // OResps that beat the AppendReq
	earlyOrder []types.Token                   // insertion order of early entries (oldest first)
	stopCh     chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup

	// lanes is the replica's message dispatcher: the read lane, the keyed
	// write lane and the inline path. Built once, attached to whichever
	// fabric carries the replica's messages, closed by Stop.
	lanes *transport.Lanes
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
		cfg:      cfg,
		topo:     cfg.Topo,
		st:       st,
		epoch:    1,
		pending:  make(map[types.Token]*pendingOrder),
		trims:    make(map[uint64]*trimWait),
		replays:  make(map[types.Token]*replayWait),
		early:    make(map[types.Token]proto.OrderResp),
		syncRuns: make(map[uint64]*syncRun),
		stopCh:   make(chan struct{}),
	}
	r.mode.store(ModeOperational)
	r.admit = qos.NewAdmission(cfg.Tenants)
	r.initObs()
	read, write := r.laneConfigs()
	r.lanes = transport.NewLanes(r.handle, read, write)
	if cfg.OrderCoalesce {
		r.coal = &orderCoalescer{r: r}
	}
	if sh, err := cfg.Topo.Shard(cfg.Shard); err == nil {
		if si, err := cfg.Topo.Sequencer(sh.Leaf); err == nil {
			r.seqNode = si.Leader
		}
	}
	return r
}

func (r *Replica) start() {
	r.wg.Add(1)
	go r.timerLoop()
}

// ID returns this replica's node id.
func (r *Replica) ID() types.NodeID { return r.cfg.ID }

// Mode returns the replica's current mode.
func (r *Replica) Mode() Mode {
	return r.mode.load()
}

// Epoch returns the sequencer epoch the replica currently follows.
func (r *Replica) Epoch() types.Epoch {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Store exposes the storage stack (benchmarks and tests).
func (r *Replica) Store() *storage.Store { return r.st }

// Stats returns a snapshot of the counters.
func (r *Replica) Stats() Stats {
	return r.stats.snapshot()
}

// HeldReads returns the number of currently parked reads (read-lane
// queue-depth metric for the bench harness).
func (r *Replica) HeldReads() int { return r.held.size() }

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

// leafColor returns the leaf region this replica's shard attaches to.
func (r *Replica) leafColor() types.ColorID {
	sh, err := r.topo.Shard(r.cfg.Shard)
	if err != nil {
		return types.MasterColor
	}
	return sh.Leaf
}

// sequencer returns the current leaf-sequencer leader to send OReqs to.
func (r *Replica) sequencer() types.NodeID {
	r.mu.Lock()
	known := r.seqNode
	r.mu.Unlock()
	// Prefer the topology's routing (updated on failover); fall back to
	// the last SeqInit sender.
	if leader, err := r.topo.Leader(r.leafColor()); err == nil && leader != 0 {
		return leader
	}
	return known
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
		r.onAppend(from, m)
	case proto.AppendBatchReq:
		r.onAppendBatch(from, m)
	case proto.OrderResp:
		r.onOrderResp(m)
	case proto.OrderRespBatch:
		r.onOrderRespBatch(m)
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
		r.onSyncRequest(from, m)
	case proto.SyncState:
		r.onSyncState(m)
	case proto.SyncCatchup:
		r.onSyncCatchup(m)
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

func (r *Replica) onAppend(from types.NodeID, m proto.AppendReq) {
	if !r.admitAppend(from, m.Tenant, m.Token, m.Color, m.Client, len(m.Records)) {
		return
	}
	r.tenantCounters(m.Tenant).appendObserved(uint64(len(m.Records)))
	r.doAppend(from, m.Color, m.Token, m.Records, m.Client)
}

// onAppendBatch handles a client-side coalesced batch: the sets are
// flattened and persisted/ordered as one unit, so they occupy one
// consecutive SN range and the batching client can demultiplex per-set
// SNs from the last SN in the AppendAck.
func (r *Replica) onAppendBatch(from types.NodeID, m proto.AppendBatchReq) {
	records := make([][]byte, 0, m.NRecords())
	for _, set := range m.Sets {
		records = append(records, set...)
	}
	if len(records) == 0 {
		return
	}
	if !r.admitAppend(from, m.Tenant, m.Token, m.Color, m.Client, len(records)) {
		return
	}
	r.tenantCounters(m.Tenant).appendObserved(uint64(len(records)))
	r.stats.batchAppends.Add(1)
	r.stats.batchRecords.Add(uint64(len(records)))
	r.doAppend(from, m.Color, m.Token, records, m.Client)
}

// doAppend runs the replica side of the append protocol for one token.
func (r *Replica) doAppend(from types.NodeID, color types.ColorID, token types.Token, records [][]byte, client types.NodeID) {
	if mode := r.mode.load(); mode != ModeOperational {
		// §6.3: replicas in sync mode stop processing new appends — the
		// client (or broker) retries. Draining replicas answer with a typed
		// retryable rejection so clients re-resolve membership immediately
		// instead of burning the timeout.
		if mode == ModeDraining {
			r.rejectDraining(from, color, token, client)
		}
		return
	}
	r.stats.appends.Add(1)
	if client == 0 {
		client = from
	}
	// Tracing stamps: arrivedAt anchors end-to-end latency, persistD is
	// measured around PutBatch. Zero-value when the tracer is off.
	var arrivedAt time.Time
	if r.appendTr.Enabled() {
		arrivedAt = time.Now()
	}
	r.mu.Lock()
	if po, dup := r.pending[token]; dup {
		// Retried append still awaiting its SN: remember the (possibly
		// additional) client and re-drive the order request.
		po.clients[client] = true
		po.sentAt = time.Now() // re-driven here; the retry timer counts from now
		r.mu.Unlock()
		r.sendOrderReq(token, color, uint32(len(records)))
		return
	}
	r.mu.Unlock()

	err := r.st.PutBatch(color, token, records)
	var persistD time.Duration
	if !arrivedAt.IsZero() {
		persistD = time.Since(arrivedAt)
	}
	if err != nil && !errors.Is(err, storage.ErrDuplicateToken) {
		// Out of space or oversized; the client times out and retries
		// elsewhere. Count it: silent drops made capacity exhaustion look
		// like network loss.
		r.stats.appendDrops.Add(1)
		return
	}
	wasDup := errors.Is(err, storage.ErrDuplicateToken)
	if wasDup {
		// Already persisted. If also committed, ack immediately.
		if sn, ok := r.st.TokenSN(token); ok && sn.Valid() {
			r.ep.Send(client, proto.AppendAck{Token: token, SN: sn})
			return
		}
		// Persisted but not yet committed: fall through so this client is
		// registered in pending and acked when the OrderResp lands.
	}
	r.mu.Lock()
	if early, ok := r.early[token]; ok {
		// The OResp raced ahead of the client's broadcast: commit now.
		delete(r.early, token)
		r.mu.Unlock()
		r.onOrderResp(early)
		// Record the client so the (already-processed) response reaches it.
		if sn, ok := r.st.TokenSN(token); ok && sn.Valid() {
			r.ep.Send(client, proto.AppendAck{Token: token, SN: sn})
		}
		return
	}
	if po, dup := r.pending[token]; dup {
		po.clients[client] = true
	} else {
		r.pending[token] = &pendingOrder{
			color:     color,
			nRecords:  uint32(len(records)),
			clients:   map[types.NodeID]bool{client: true},
			sentAt:    time.Now(),
			arrivedAt: arrivedAt,
			persistD:  persistD,
		}
	}
	r.mu.Unlock()
	if wasDup {
		// Close the ack gap for persisted-uncommitted duplicates: if the
		// commit landed between the TokenSN check above and the pending
		// registration, onOrderResp consumed the old pending entry (acking
		// only its clients) and will never fire again for this token — the
		// entry just created would wait for the retry timer to re-drive the
		// whole round trip. Re-check now that we are registered: seeing a
		// valid SN means the commit already happened, so ack directly and
		// retire the stranded entry (any clients that raced into it run
		// this same re-check themselves).
		if sn, ok := r.st.TokenSN(token); ok && sn.Valid() {
			r.mu.Lock()
			po := r.pending[token]
			delete(r.pending, token)
			r.mu.Unlock()
			acked := map[types.NodeID]bool{client: true}
			r.ep.Send(client, proto.AppendAck{Token: token, SN: sn})
			if po != nil {
				for c := range po.clients {
					if !acked[c] {
						r.ep.Send(c, proto.AppendAck{Token: token, SN: sn})
					}
				}
			}
			return
		}
	}
	r.sendOrderReq(token, color, uint32(len(records)))
}

// sendOrderReq issues the round-2 order request to the leaf sequencer,
// either directly or through the coalescer.
func (r *Replica) sendOrderReq(token types.Token, color types.ColorID, n uint32) {
	it := proto.OrderItem{Token: token, NRecords: n}
	if r.coal != nil {
		r.coal.enqueue(color, it)
		return
	}
	r.sendOrderItems(color, []proto.OrderItem{it})
}

// sendOrderItems ships one color's order requests to the leaf sequencer as
// one frame.
func (r *Replica) sendOrderItems(color types.ColorID, items []proto.OrderItem) {
	sh, err := r.topo.Shard(r.cfg.Shard)
	if err != nil {
		// The topology cannot name our shard: the appends stall until the
		// pending-order retry timer re-drives them; count it instead of
		// failing silently.
		r.stats.oreqDrops.Add(uint64(len(items)))
		return
	}
	replicas := r.orderReplicas(sh.Replicas)
	if len(items) == 1 {
		// Single request: keep the compact frame.
		r.ep.Send(r.sequencer(), proto.OrderReq{
			Color: color, Token: items[0].Token, NRecords: items[0].NRecords,
			Shard: r.cfg.Shard, Replicas: replicas,
		})
		return
	}
	r.ep.Send(r.sequencer(), proto.OrderReqBatch{
		Color: color, Shard: r.cfg.Shard, Replicas: replicas, Items: items,
	})
}

func (r *Replica) onOrderResp(m proto.OrderResp) {
	var commitStart time.Time
	if r.appendTr.Enabled() {
		commitStart = time.Now()
	}
	if err := r.st.Commit(m.Token, m.LastSN); err != nil {
		if errors.Is(err, storage.ErrUnknownToken) {
			// OResp for a record another shard replica persisted but we
			// have not seen yet (the client's round-1 broadcast to us is
			// still in flight): buffer it so onAppend can commit
			// immediately on arrival.
			r.bufferEarly(m)
			return
		}
		// Conflicting SN for an already-committed token: first wins; the
		// extra range becomes a hole, which is legal (§6.3).
	}
	r.stats.commits.Add(1)
	r.maxSeen.bump(m.Color, m.LastSN)
	r.mu.Lock()
	po := r.pending[m.Token]
	delete(r.pending, m.Token)
	var clients []types.NodeID
	if po != nil {
		for c := range po.clients {
			clients = append(clients, c)
		}
	}
	r.mu.Unlock()
	if po != nil && !commitStart.IsZero() && !po.arrivedAt.IsZero() {
		r.traceAppend(m.Token, po, commitStart)
	}
	sn, _ := r.st.TokenSN(m.Token)
	for _, c := range clients {
		r.ep.Send(c, proto.AppendAck{Token: m.Token, SN: sn})
	}
	r.wakeHeld(m.Color, r.frontier(m.Color))
}

// bufferEarly stores an OrderResp that beat its AppendReq. The buffer is
// bounded (Config.EarlyBound): overflow evicts the oldest live entry —
// never the one just inserted. The previous random map-iteration eviction
// could drop the just-buffered response itself, stalling that append until
// the sequencer's retry rebroadcast.
func (r *Replica) bufferEarly(m proto.OrderResp) {
	bound := r.cfg.EarlyBound
	if bound <= 0 {
		bound = 1 << 16
	}
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
			// Skip stale queue entries whose map entry onAppend consumed.
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
	// onAppend deletes from the map only, so stale tokens accumulate in the
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
		return
	}
	r.stats.trims.Add(1)
	r.mu.Lock()
	client := m.Client
	if client == 0 {
		client = from
	}
	peers := r.trimPeers(m.Color)
	tw := r.trims[m.ID]
	if tw == nil {
		tw = &trimWait{req: m, from: client, acks: make(map[types.NodeID]bool), peers: peers}
		r.trims[m.ID] = tw
	} else {
		tw.from = client
	}
	tw.acks[r.cfg.ID] = true
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

func (r *Replica) onTrimPeerAck(m proto.TrimPeerAck) {
	r.mu.Lock()
	tw := r.trims[m.ID]
	if tw == nil {
		// Peer ack arrived before the client's TrimReq reached us: record
		// it; the TrimReq handler will find the entry.
		tw = &trimWait{acks: make(map[types.NodeID]bool)}
		r.trims[m.ID] = tw
	}
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
