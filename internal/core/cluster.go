package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/qos"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/storage"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Node-id allocation bands for the in-process deployment.
const (
	replicaIDBase   types.NodeID = 1
	sequencerIDBase types.NodeID = 10_000
	clientIDBase    types.NodeID = 100_000
)

// ClusterConfig sizes an in-process FlexLog deployment.
type ClusterConfig struct {
	// Link is the network model (transport.DatacenterLink for benches,
	// transport.ZeroLink for tests).
	Link transport.LinkModel
	// Storage configures every replica's storage stack.
	Storage storage.Config
	// ReplicationFactor is the number of replicas per shard (default 3,
	// as in the paper's evaluation).
	ReplicationFactor int
	// SeqBackups is the number of backup nodes per sequencer (2f; default
	// 2, tolerating one failure).
	SeqBackups int
	// BatchInterval is the sequencer aggregation window (paper: 1 µs).
	BatchInterval time.Duration
	// HeartbeatInterval / FailureTimeout / RetryTimeout tune failure
	// detection for tests vs benches.
	HeartbeatInterval time.Duration
	FailureTimeout    time.Duration
	RetryTimeout      time.Duration
	// ReadHoldTimeout is the replica read-hold window (§6.3; paper: 1 ms).
	ReadHoldTimeout time.Duration
	// ReadWorkers sizes each replica's concurrent read/subscribe lane; 0
	// serves reads inline on the serialized delivery loop (the pre-lane
	// behavior, kept as the ablation baseline).
	ReadWorkers int
	// WriteWorkers sizes each replica's keyed write lane (appends/commits
	// pinned to a worker by color); 0 keeps mutations on the serialized
	// delivery loop (the ablation baseline).
	WriteWorkers int
	// SeqWorkers sizes each sequencer's keyed order lane (order traffic
	// pinned to a worker by color); 0 keeps ordering on the serialized
	// delivery loop (the ablation baseline).
	SeqWorkers int
	// GroupCommit enables the storage layer's PM group-commit engine:
	// concurrent persistence waits fold into shared transactions.
	GroupCommit bool
	// OrderCoalesce lets each replica ship the order requests that queue
	// up behind one being sent as one OrderReqBatch per color.
	OrderCoalesce bool
	// ClientTimeout bounds client operations.
	ClientTimeout time.Duration
	// ClientBatch, when non-zero, enables the append batching & pipelining
	// layer on every client the cluster creates (a client's own
	// WithBatching option replaces the tuning).
	ClientBatch BatchConfig
	// Obs, when set, wires the whole deployment into one observability
	// registry: every replica (and through it, its storage stack), every
	// sequencer, and the network's delivery/fault counters.
	Obs *obs.Registry
	// TraceSlow and TraceRing tune each replica's slow-request ring (see
	// replica.Config); zero keeps the defaults.
	TraceSlow time.Duration
	TraceRing int
	// Tenants declares the deployment's multi-tenant QoS envelopes: per-
	// tenant weighted-fair lane shares, token-bucket admission rates, and
	// color ownership for ordering-layer accounting (DESIGN.md §13). Empty
	// runs without QoS — legacy blocking lanes, no admission control.
	Tenants []qos.TenantConfig
}

// TestClusterConfig returns a latency-free configuration with fast failure
// detection, for unit and integration tests.
func TestClusterConfig() ClusterConfig {
	return ClusterConfig{
		Link:              transport.ZeroLink(),
		Storage:           storage.TestConfig(),
		ReplicationFactor: 3,
		SeqBackups:        2,
		BatchInterval:     0,
		HeartbeatInterval: 3 * time.Millisecond,
		// Generous relative to the heartbeat so CPU-contention hiccups in
		// tests do not trigger spurious failovers: a new leader cannot
		// serve until ALL region replicas ack its SeqInit (§5.2), so a
		// spurious failover while any replica is crashed stalls the
		// region — faithful to the paper, but not what a test that
		// crashes replicas wants to exercise.
		FailureTimeout:  60 * time.Millisecond,
		RetryTimeout:    30 * time.Millisecond,
		ReadHoldTimeout: 5 * time.Millisecond,
		ReadWorkers:     4,
		WriteWorkers:    4,
		SeqWorkers:      4,
		GroupCommit:     true,
		ClientTimeout:   10 * time.Second,
	}
}

// BenchClusterConfig returns the calibrated configuration used by the
// evaluation harness: datacenter link latencies, Optane PM storage, 1 µs
// sequencer batching — the setup of §9 "Experimental Setup".
func BenchClusterConfig() ClusterConfig {
	cfg := TestClusterConfig()
	cfg.Link = transport.DatacenterLink()
	cfg.Storage = storage.DefaultConfig()
	cfg.BatchInterval = time.Microsecond
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.FailureTimeout = 100 * time.Millisecond
	cfg.RetryTimeout = 200 * time.Millisecond
	cfg.ReadHoldTimeout = time.Millisecond // §6.3: "a timeout of 1 ms is safe"
	cfg.ReadWorkers = 16                   // the testbed's spare cores per replica
	cfg.WriteWorkers = 16
	cfg.SeqWorkers = 16
	cfg.GroupCommit = true
	cfg.OrderCoalesce = true
	return cfg
}

// Cluster is a complete in-process FlexLog deployment: network, topology,
// sequencer tree and shards, plus factories for clients.
type Cluster struct {
	cfg  ClusterConfig
	net  *transport.Network
	topo *topology.Topology

	mu        sync.Mutex
	seqs      map[types.NodeID]*seq.Sequencer
	replicas  map[types.NodeID]*replica.Replica
	clients   []*Client
	nextRepl  types.NodeID
	nextSeq   types.NodeID
	nextCli   types.NodeID
	nextShard types.ShardID
}

// NewCluster creates an empty deployment; add regions and shards next.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 3
	}
	cl := &Cluster{
		cfg:       cfg,
		net:       transport.NewNetwork(cfg.Link),
		topo:      topology.New(),
		seqs:      make(map[types.NodeID]*seq.Sequencer),
		replicas:  make(map[types.NodeID]*replica.Replica),
		nextRepl:  replicaIDBase,
		nextSeq:   sequencerIDBase,
		nextCli:   clientIDBase,
		nextShard: 1,
	}
	cl.net.PublishObs(cfg.Obs)
	return cl
}

// Network exposes the in-process fabric for fault injection.
func (cl *Cluster) Network() *transport.Network { return cl.net }

// Topology exposes the shared layout.
func (cl *Cluster) Topology() *topology.Topology { return cl.topo }

// AddRegion declares a color and spawns its sequencer group (leader +
// SeqBackups backups). The first region added is the master region.
func (cl *Cluster) AddRegion(color, parent types.ColorID) error {
	cl.mu.Lock()
	leaderID := cl.nextSeq
	backupIDs := make([]types.NodeID, cl.cfg.SeqBackups)
	for i := range backupIDs {
		backupIDs[i] = leaderID + types.NodeID(i) + 1
	}
	cl.nextSeq += types.NodeID(cl.cfg.SeqBackups) + 1
	cl.mu.Unlock()

	if err := cl.topo.AddRegion(color, parent, leaderID, backupIDs); err != nil {
		return err
	}
	mk := func(id types.NodeID, leader bool) error {
		scfg := seq.DefaultConfig()
		scfg.ID = id
		scfg.Region = color
		scfg.Topo = cl.topo
		scfg.BatchInterval = cl.cfg.BatchInterval
		scfg.HeartbeatInterval = cl.cfg.HeartbeatInterval
		scfg.FailureTimeout = cl.cfg.FailureTimeout
		scfg.RetryTimeout = cl.cfg.RetryTimeout
		scfg.StartAsLeader = leader
		scfg.TenantOf = qos.ColorMap(cl.cfg.Tenants)
		scfg.OrderWorkers = cl.cfg.SeqWorkers
		s, err := seq.New(scfg, cl.net)
		if err != nil {
			return err
		}
		s.PublishObs(cl.cfg.Obs)
		cl.mu.Lock()
		cl.seqs[id] = s
		cl.mu.Unlock()
		return nil
	}
	if err := mk(leaderID, true); err != nil {
		return err
	}
	for _, id := range backupIDs {
		if err := mk(id, false); err != nil {
			return err
		}
	}
	return nil
}

// AddShard attaches a new shard (ReplicationFactor replicas) to the given
// leaf color and returns its id.
func (cl *Cluster) AddShard(leaf types.ColorID) (types.ShardID, error) {
	return cl.AddShardWithReplicas(leaf, cl.cfg.ReplicationFactor)
}

// AddShardWithReplicas attaches a shard with an explicit replica count
// (used by the Fig. 8 replication-factor sweep).
func (cl *Cluster) AddShardWithReplicas(leaf types.ColorID, replicas int) (types.ShardID, error) {
	if replicas <= 0 {
		return 0, fmt.Errorf("core: replication factor must be positive")
	}
	cl.mu.Lock()
	shardID := cl.nextShard
	cl.nextShard++
	ids := make([]types.NodeID, replicas)
	for i := range ids {
		ids[i] = cl.nextRepl
		cl.nextRepl++
	}
	cl.mu.Unlock()

	if err := cl.topo.AddShard(shardID, leaf, ids); err != nil {
		return 0, err
	}
	for _, id := range ids {
		if _, err := cl.buildReplica(id, shardID); err != nil {
			return 0, err
		}
	}
	return shardID, nil
}

// buildReplica constructs one replica process from the cluster config and
// registers it; it does NOT touch the topology.
func (cl *Cluster) buildReplica(id types.NodeID, shardID types.ShardID) (*replica.Replica, error) {
	rcfg := replica.DefaultConfig()
	rcfg.ID = id
	rcfg.Shard = shardID
	rcfg.Topo = cl.topo
	rcfg.Store = cl.cfg.Storage
	rcfg.Store.GroupCommit = cl.cfg.GroupCommit
	rcfg.ReadHoldTimeout = cl.cfg.ReadHoldTimeout
	rcfg.ReadWorkers = cl.cfg.ReadWorkers
	rcfg.WriteWorkers = cl.cfg.WriteWorkers
	rcfg.OrderCoalesce = cl.cfg.OrderCoalesce
	rcfg.HeartbeatInterval = cl.cfg.HeartbeatInterval
	rcfg.RetryTimeout = cl.cfg.RetryTimeout
	rcfg.Obs = cl.cfg.Obs
	rcfg.TraceSlow = cl.cfg.TraceSlow
	rcfg.TraceRing = cl.cfg.TraceRing
	rcfg.Tenants = cl.cfg.Tenants
	r, err := replica.New(rcfg, cl.net)
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	cl.replicas[id] = r
	cl.mu.Unlock()
	return r, nil
}

// SpawnReplica creates a replica process for a shard WITHOUT adding it to
// the shard's membership — step one of the control plane's replica-add
// (DESIGN.md §15). Clients cannot address the node until the controller
// promotes it into the topology; until then it catches up from a donor.
func (cl *Cluster) SpawnReplica(shard types.ShardID) (types.NodeID, error) {
	if _, err := cl.topo.Shard(shard); err != nil {
		return 0, err
	}
	cl.mu.Lock()
	id := cl.nextRepl
	cl.nextRepl++
	cl.mu.Unlock()
	if _, err := cl.buildReplica(id, shard); err != nil {
		return 0, err
	}
	return id, nil
}

// Attach registers the control plane's endpoint on the in-process fabric,
// under a fresh id of the client band: the controller commands replicas by
// message here as it does over TCP (DESIGN.md §15).
func (cl *Cluster) Attach(h transport.Handler) (transport.Endpoint, error) {
	cl.mu.Lock()
	id := cl.nextCli
	cl.nextCli++
	cl.mu.Unlock()
	return cl.net.Register(id, h)
}

// RemoveReplicaNode stops a replica process and releases its resources —
// the final cutover of a drain, or the rollback of an abandoned join. The
// caller must already have removed the node from the topology.
func (cl *Cluster) RemoveReplicaNode(id types.NodeID) error {
	cl.mu.Lock()
	r := cl.replicas[id]
	delete(cl.replicas, id)
	cl.mu.Unlock()
	if r == nil {
		return fmt.Errorf("core: unknown replica %v", id)
	}
	r.Stop()
	cl.net.Deregister(id)
	r.Store().Close()
	return nil
}

// AddColor provisions a new colored region under parent with one shard —
// the dynamic Table 2 AddColor operation. Implements ColorAdder.
func (cl *Cluster) AddColor(color, parent types.ColorID) error {
	if cl.topo.HasColor(color) {
		return nil // idempotent: creating an existing color is a no-op
	}
	if err := cl.AddRegion(color, parent); err != nil {
		return err
	}
	_, err := cl.AddShard(color)
	return err
}

// NewClient creates a client handle with a fresh FID. Options are applied
// on top of the cluster defaults (ClientTimeout, RetryTimeout,
// ClientBatch).
func (cl *Cluster) NewClient(opts ...Option) (*Client, error) {
	cl.mu.Lock()
	id := cl.nextCli
	cl.nextCli++
	fid := uint32(id - clientIDBase + 1)
	cl.mu.Unlock()
	ccfg := ClientConfig{
		FID:     fid,
		ID:      id,
		Topo:    cl.topo,
		Timeout: cl.cfg.ClientTimeout,
		Batch:   cl.cfg.ClientBatch,
	}
	if cl.cfg.RetryTimeout > 0 {
		ccfg.RetryInterval = cl.cfg.RetryTimeout
	}
	c, err := NewClient(ccfg, cl.net, opts...)
	if err != nil {
		return nil, err
	}
	c.SetColorAdder(cl)
	cl.mu.Lock()
	cl.clients = append(cl.clients, c)
	cl.mu.Unlock()
	return c, nil
}

// Replica returns a replica by node id (fault injection in tests).
func (cl *Cluster) Replica(id types.NodeID) *replica.Replica {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.replicas[id]
}

// Replicas returns the replicas of a shard in id order.
func (cl *Cluster) Replicas(shard types.ShardID) []*replica.Replica {
	sh, err := cl.topo.Shard(shard)
	if err != nil {
		return nil
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]*replica.Replica, 0, len(sh.Replicas))
	for _, id := range sh.Replicas {
		if r := cl.replicas[id]; r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Sequencer returns a sequencer node by id.
func (cl *Cluster) Sequencer(id types.NodeID) *seq.Sequencer {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.seqs[id]
}

// RestartSequencer replaces a crashed sequencer process with a fresh
// backup on the same node id: the old endpoint is torn down and a new
// node joins the group with empty state, as a restarted process would.
// The chaos engine pairs this with Sequencer.Crash to exercise §5.2
// leader failover followed by group repair.
func (cl *Cluster) RestartSequencer(id types.NodeID) error {
	cl.mu.Lock()
	old := cl.seqs[id]
	cl.mu.Unlock()
	if old == nil {
		return fmt.Errorf("core: unknown sequencer %v", id)
	}
	old.Stop()
	cl.net.Deregister(id)
	scfg := seq.DefaultConfig()
	scfg.ID = id
	scfg.Region = old.Region()
	scfg.Topo = cl.topo
	scfg.BatchInterval = cl.cfg.BatchInterval
	scfg.HeartbeatInterval = cl.cfg.HeartbeatInterval
	scfg.FailureTimeout = cl.cfg.FailureTimeout
	scfg.RetryTimeout = cl.cfg.RetryTimeout
	scfg.StartAsLeader = false
	scfg.TenantOf = qos.ColorMap(cl.cfg.Tenants)
	scfg.OrderWorkers = cl.cfg.SeqWorkers
	// Rejoin at the epoch the group has reached so the fresh process does
	// not grant stale claims from before its crash.
	scfg.InitialEpoch = old.Epoch()
	s, err := seq.New(scfg, cl.net)
	if err != nil {
		return err
	}
	// Re-publishing under the same identity replaces the scrape closures,
	// so the fresh process's counters show up instead of the dead one's.
	s.PublishObs(cl.cfg.Obs)
	cl.mu.Lock()
	cl.seqs[id] = s
	cl.mu.Unlock()
	return nil
}

// LeaderOf returns the currently-serving leader sequencer of a color.
func (cl *Cluster) LeaderOf(color types.ColorID) *seq.Sequencer {
	leader, err := cl.topo.Leader(color)
	if err != nil {
		return nil
	}
	return cl.Sequencer(leader)
}

// SequencersOf returns all sequencer nodes (leader + backups) of a color.
func (cl *Cluster) SequencersOf(color types.ColorID) []*seq.Sequencer {
	si, err := cl.topo.Sequencer(color)
	if err != nil {
		return nil
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var out []*seq.Sequencer
	for _, id := range si.Members {
		if s := cl.seqs[id]; s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Stop shuts every node down.
func (cl *Cluster) Stop() {
	cl.mu.Lock()
	seqs := make([]*seq.Sequencer, 0, len(cl.seqs))
	for _, s := range cl.seqs {
		seqs = append(seqs, s)
	}
	reps := make([]*replica.Replica, 0, len(cl.replicas))
	for _, r := range cl.replicas {
		reps = append(reps, r)
	}
	clients := cl.clients
	cl.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	for _, s := range seqs {
		s.Stop()
	}
	for _, r := range reps {
		r.Stop()
	}
	// Release everything the nodes leave behind: the stores' background
	// committers/lifecycles and the transport's delivery + lane worker
	// goroutines. Stores stay readable and stats stay queryable after
	// Stop; only further writes fail.
	for _, r := range reps {
		r.Store().Close()
	}
	cl.net.Shutdown()
}

// Obs returns the registry the cluster publishes into (nil when
// observability is off).
func (cl *Cluster) Obs() *obs.Registry { return cl.cfg.Obs }

// Tracers collects every replica's request tracers for the debug server.
func (cl *Cluster) Tracers() []*obs.Tracer {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var out []*obs.Tracer
	for _, r := range cl.replicas {
		out = append(out, r.Tracers()...)
	}
	return out
}

// LaneSnapshots reports every node's lanes for /debug/lanes, by node id:
// a replica's read and write rows, a sequencer's order row.
func (cl *Cluster) LaneSnapshots() []obs.LaneSnapshot {
	cl.mu.Lock()
	nodes := make(map[types.NodeID]func() []obs.LaneSnapshot, len(cl.replicas)+len(cl.seqs))
	for id, r := range cl.replicas {
		nodes[id] = r.LaneSnapshots
	}
	for id, s := range cl.seqs {
		nodes[id] = s.LaneSnapshots
	}
	cl.mu.Unlock()
	var out []obs.LaneSnapshot
	for _, id := range slices.Sorted(maps.Keys(nodes)) {
		out = append(out, nodes[id]()...)
	}
	return out
}

// MuxConfig assembles the debug-server configuration for this cluster —
// what cmd/flexlog-server passes to obs.Serve.
func (cl *Cluster) MuxConfig() obs.MuxConfig {
	return obs.MuxConfig{
		Registry: cl.cfg.Obs,
		Tracers:  cl.Tracers(),
		Lanes:    cl.LaneSnapshots,
	}
}

// SimpleCluster builds the common single-region deployment: the master
// color with `shards` shards, each with the configured replication factor.
func SimpleCluster(cfg ClusterConfig, shards int) (*Cluster, error) {
	cl := NewCluster(cfg)
	if err := cl.AddRegion(types.MasterColor, types.MasterColor); err != nil {
		return nil, err
	}
	for i := 0; i < shards; i++ {
		if _, err := cl.AddShard(types.MasterColor); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// TreeCluster builds the paper's Figure 2 style deployment: a master
// region with `leaves` child regions, each child with `shardsPerLeaf`
// shards attached.
func TreeCluster(cfg ClusterConfig, leaves, shardsPerLeaf int) (*Cluster, error) {
	cl := NewCluster(cfg)
	if err := cl.AddRegion(types.MasterColor, types.MasterColor); err != nil {
		return nil, err
	}
	for leaf := 1; leaf <= leaves; leaf++ {
		color := types.ColorID(leaf)
		if err := cl.AddRegion(color, types.MasterColor); err != nil {
			return nil, err
		}
		for s := 0; s < shardsPerLeaf; s++ {
			if _, err := cl.AddShard(color); err != nil {
				return nil, err
			}
		}
	}
	return cl, nil
}
