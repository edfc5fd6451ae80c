package main

import (
	"fmt"
	"net"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/deploy"
	"flexlog/internal/obs"
	"flexlog/internal/pmem"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/ssd"
	"flexlog/internal/storage"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Fixed parameters of the cluster under test: the per-role settings
// cmd/flexlog-server uses by default, with latency injection off.
const (
	pmSegmentBytes   = 4 << 20
	pmSegments       = 16
	cacheBytes       = 16 << 20
	readHold         = time.Millisecond
	heartbeat        = 100 * time.Millisecond
	replicasPerShard = 3
	seqOrderWorkers  = 4
	clientTimeout    = 10 * time.Second

	firstReplicaID = 1
	firstClientID  = 500
	auxClientID    = 600
	firstSeqID     = 900
)

// clusterSpec selects among the topologies the workloads use.
type clusterSpec struct {
	// Tree deploys master region 0 with leaf regions 1 and 2 and one shard
	// under each leaf; otherwise a single region with one shard.
	Tree bool
	// PMBudgetMB is the replicas' -pm-budget-mb (0 = no background eviction).
	PMBudgetMB int
	// Handles is the number of client handles (one TCP endpoint each).
	Handles int
}

// cluster is a whole FlexLog deployment in this process: every node owns a
// TCP listener on loopback and its own copy of the topology, as separate
// flexlog-server processes would.
type cluster struct {
	reg *obs.Registry // nil unless traced

	replicas  []*replica.Replica
	seqs      []*seq.Sequencer
	seqHasKid []bool // parallel to seqs: the sequencer has child sequencers
	endpoints []*transport.TCPEndpoint

	handles []*core.Client
	// aux preloads and runs the output check. Its retry interval is long so
	// that a large Subscribe answer is not requested twice.
	aux *core.Client
}

// treeColors are the master color and the two leaf colors of the tree.
var treeColors = []types.ColorID{0, 1, 2}

func (s clusterSpec) colors() []types.ColorID {
	if s.Tree {
		return treeColors
	}
	return treeColors[:1]
}

// manifest lays the nodes out and reserves a loopback port for each.
func (s clusterSpec) manifest() (*deploy.Manifest, error) {
	m := &deploy.Manifest{}
	leaves := []types.ColorID{0}
	m.Regions = []deploy.RegionSpec{{Color: 0, Leader: firstSeqID}}
	if s.Tree {
		leaves = []types.ColorID{1, 2}
		for i, leaf := range leaves {
			m.Regions = append(m.Regions, deploy.RegionSpec{Color: leaf, Parent: 0, Leader: firstSeqID + 1 + types.NodeID(i)})
		}
	}
	next := types.NodeID(firstReplicaID)
	for i, leaf := range leaves {
		sh := deploy.ShardSpec{ID: types.ShardID(i + 1), Leaf: leaf}
		for r := 0; r < replicasPerShard; r++ {
			sh.Replicas = append(sh.Replicas, next)
			next++
		}
		m.Shards = append(m.Shards, sh)
	}
	clients := []types.NodeID{auxClientID}
	for h := 0; h < s.Handles; h++ {
		clients = append(clients, firstClientID+types.NodeID(h))
	}
	if err := reservePorts(m, clients...); err != nil {
		return nil, err
	}
	return m, m.Validate()
}

// reservePorts gives every sequencer and replica of the manifest, and every
// extra node, a free loopback address. Every port is reserved before any is
// released, so that no two nodes are handed the same one.
func reservePorts(m *deploy.Manifest, extra ...types.NodeID) error {
	ids := extra
	for _, r := range m.Regions {
		ids = append(ids, r.Leader)
	}
	for _, sh := range m.Shards {
		ids = append(ids, sh.Replicas...)
	}
	m.Nodes = make(map[types.NodeID]string, len(ids))
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			ln.Close()
		}
	}()
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("reserving a loopback port: %w", err)
		}
		held = append(held, ln)
		m.Nodes[id] = ln.Addr().String()
	}
	return nil
}

// seqConfig is a sequencer's configuration as cmd/flexlog-server sets it for
// a group of one.
func seqConfig(region deploy.RegionSpec, topo *topology.Topology) seq.Config {
	cfg := seq.DefaultConfig()
	cfg.ID = region.Leader
	cfg.Region = region.Color
	cfg.Topo = topo
	cfg.BatchInterval = time.Microsecond
	cfg.HeartbeatInterval = heartbeat
	cfg.FailureTimeout = time.Second
	cfg.RetryTimeout = 2 * time.Second
	cfg.StartAsLeader = true
	cfg.OrderWorkers = seqOrderWorkers
	return cfg
}

// storeConfig is a replica's storage stack with latency injection off.
func storeConfig(cache, pmBudgetMB int) storage.Config {
	return storage.Config{
		SegmentSize: pmSegmentBytes,
		NumSegments: pmSegments,
		CacheBytes:  cache,
		PMModel:     pmem.Zero(),
		SSDModel:    ssd.Zero(),
		GroupCommit: true,
		PMBudget:    uint64(pmBudgetMB) << 20,
	}
}

// replicaConfig is a replica's configuration as cmd/flexlog-server sets it.
func replicaConfig(id types.NodeID, shard types.ShardID, topo *topology.Topology, pmBudgetMB int) replica.Config {
	cfg := replica.DefaultConfig()
	cfg.ID = id
	cfg.Shard = shard
	cfg.Topo = topo
	cfg.Store = storeConfig(cacheBytes, pmBudgetMB)
	cfg.OrderCoalesce = true
	cfg.ReadHoldTimeout = readHold
	cfg.HeartbeatInterval = heartbeat
	cfg.RetryTimeout = time.Second
	return cfg
}

// boot starts the cluster. A reserved port can be taken by another process
// between reservation and listen, so a failed boot is retried on new ports.
func boot(spec clusterSpec, traced bool) (*cluster, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var cl *cluster
		if cl, err = bootOnce(spec, traced); err == nil {
			return cl, nil
		}
	}
	return nil, err
}

func bootOnce(spec clusterSpec, traced bool) (cl *cluster, err error) {
	m, err := spec.manifest()
	if err != nil {
		return nil, err
	}
	cl = &cluster{}
	if traced {
		cl.reg = obs.NewRegistry()
		obs.RegisterProcess(cl.reg)
	}
	defer func() {
		if err != nil {
			cl.stop()
		}
	}()
	book := m.AddressBook()
	attach := func(id types.NodeID) func(transport.Handler) (transport.Endpoint, error) {
		return func(h transport.Handler) (transport.Endpoint, error) {
			ep, err := transport.ListenTCP(id, book, h, transport.WithTCPCodec(transport.CodecBinary))
			if err != nil {
				return nil, err
			}
			ep.PublishObs(cl.reg)
			cl.endpoints = append(cl.endpoints, ep)
			return ep, nil
		}
	}

	for _, region := range m.Regions {
		topo, err := m.Topology()
		if err != nil {
			return nil, err
		}
		s, err := seq.NewWithEndpoint(seqConfig(region, topo), attach(region.Leader))
		if err != nil {
			return nil, fmt.Errorf("sequencer %v: %w", region.Leader, err)
		}
		s.PublishObs(cl.reg)
		cl.seqs = append(cl.seqs, s)
		cl.seqHasKid = append(cl.seqHasKid, spec.Tree && region.Color == types.MasterColor)
	}

	for _, sh := range m.Shards {
		for _, id := range sh.Replicas {
			topo, err := m.Topology()
			if err != nil {
				return nil, err
			}
			cfg := replicaConfig(id, sh.ID, topo, spec.PMBudgetMB)
			cfg.Obs = cl.reg
			r, err := replica.NewWithEndpoint(cfg, attach(id))
			if err != nil {
				return nil, fmt.Errorf("replica %v: %w", id, err)
			}
			cl.replicas = append(cl.replicas, r)
		}
	}

	newClient := func(id types.NodeID, retry time.Duration, timeout time.Duration) (*core.Client, error) {
		topo, err := m.Topology()
		if err != nil {
			return nil, err
		}
		return core.NewClientWithEndpoint(core.ClientConfig{
			FID: uint32(id), ID: id, Topo: topo,
			RetryInterval: retry, Timeout: timeout,
			Batch: core.DefaultBatchConfig(),
		}, attach(id))
	}
	for h := 0; h < spec.Handles; h++ {
		c, err := newClient(firstClientID+types.NodeID(h), 0, clientTimeout)
		if err != nil {
			return nil, fmt.Errorf("client handle %d: %w", h, err)
		}
		cl.handles = append(cl.handles, c)
	}
	if cl.aux, err = newClient(auxClientID, 5*time.Second, 60*time.Second); err != nil {
		return nil, fmt.Errorf("aux client: %w", err)
	}
	return cl, nil
}

// stop shuts every node down and waits for its goroutines. It is safe on a
// partly booted cluster.
func (cl *cluster) stop() {
	for _, c := range cl.handles {
		c.Close()
	}
	if cl.aux != nil {
		cl.aux.Close()
	}
	for _, s := range cl.seqs {
		s.Stop()
	}
	for _, r := range cl.replicas {
		r.Stop()
	}
	for _, r := range cl.replicas {
		r.Store().Close()
	}
	for _, ep := range cl.endpoints {
		ep.Close()
	}
}

// settle waits until background eviction has brought every replica under
// its PM budget and stopped moving segments.
func (cl *cluster) settle(budgetBytes uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last uint64
	quiet := 0
	for time.Now().Before(deadline) {
		var evictions uint64
		over := false
		for _, r := range cl.replicas {
			st := r.Store().Stats()
			evictions += st.Evictions
			if budgetBytes > 0 && st.ResidentBytes > budgetBytes {
				over = true
			}
		}
		if !over && evictions == last {
			if quiet++; quiet >= 3 {
				return nil
			}
		} else {
			quiet = 0
		}
		last = evictions
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("eviction did not settle within %v", timeout)
}
