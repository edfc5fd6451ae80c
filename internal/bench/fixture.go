package bench

import (
	"time"

	"flexlog/internal/core"
	"flexlog/internal/paxos"
	"flexlog/internal/replica"
	"flexlog/internal/scalog"
	"flexlog/internal/seq"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// fixture is the deployment an experiment runs against: one in-process
// network, the nodes on it, and the set of node ids that generate load
// (clients, order drivers). The fixture hands those ids out, so who is a
// load generator — and therefore not charged by the modeled-time function
// (model.go) — is a set it owns, not an id band each experiment has to
// know. stop() is the one teardown: the nodes, then the network, whose
// delivery loops would otherwise outlive the run.
type fixture struct {
	net      *transport.Network
	loadGens map[types.NodeID]bool
	stops    []func()

	// Cluster fixtures.
	cl      *core.Cluster
	cfg     core.ClusterConfig // as built: base configuration, then the spec's tweak
	handles []*core.Client     // in order of creation

	// Ordering-only fixtures.
	seqs    []*seq.Sequencer // root first
	entries []types.NodeID   // where drivers send: the chain's deepest leaf, every leaf of a star, or the Scalog orderer
	drivers []*orderDriver
}

// stop tears the whole deployment down. The per-node delivery counters
// stay readable afterwards (transport.Network.Shutdown keeps them).
func (f *fixture) stop() {
	for _, stop := range f.stops {
		stop()
	}
	f.net.Shutdown()
}

// clusterSpec declares a full (storage + ordering) deployment. Every
// shape starts at the master region: regions == 0 is the single-region
// cluster, regions == k hangs k leaf regions under the master (Fig. 2),
// and chain strings them master ← c1 ← … ← ck instead, so the shards at
// the deepest leaf lie in k+1 regions at once.
type clusterSpec struct {
	test    bool // core.TestClusterConfig (latency-free link; the wall-clock experiments) instead of the calibrated core.BenchClusterConfig
	regions int
	chain   bool
	shards  int // per leaf region
	rf      int // replication factor; 0 keeps the configuration's 3
	tweak   func(*core.ClusterConfig)
}

func newClusterFixture(spec clusterSpec) (*fixture, error) {
	cfg := core.BenchClusterConfig()
	if spec.test {
		cfg = core.TestClusterConfig()
	}
	if spec.rf > 0 {
		cfg.ReplicationFactor = spec.rf
	}
	if spec.tweak != nil {
		spec.tweak(&cfg)
	}
	cl := core.NewCluster(cfg)
	f := &fixture{net: cl.Network(), cl: cl, cfg: cfg, loadGens: make(map[types.NodeID]bool), stops: []func(){cl.Stop}}
	return f.built(f.buildCluster(spec))
}

// built ends a constructor: a deployment that failed half-way is torn
// down, not returned.
func (f *fixture) built(err error) (*fixture, error) {
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fixture) buildCluster(spec clusterSpec) error {
	if err := f.cl.AddRegion(types.MasterColor, types.MasterColor); err != nil {
		return err
	}
	var leaves []types.ColorID // the regions shards attach to
	if spec.regions == 0 {
		leaves = []types.ColorID{types.MasterColor}
	}
	for c := types.ColorID(1); int(c) <= spec.regions; c++ {
		parent := types.MasterColor
		if spec.chain {
			parent = c - 1
		}
		if err := f.cl.AddRegion(c, parent); err != nil {
			return err
		}
		if !spec.chain || int(c) == spec.regions {
			leaves = append(leaves, c)
		}
	}
	for _, leaf := range leaves {
		for s := 0; s < spec.shards; s++ {
			if _, err := f.cl.AddShard(leaf); err != nil {
				return err
			}
		}
	}
	return nil
}

// replicas returns every replica of the cluster.
func (f *fixture) replicas() []*replica.Replica {
	var out []*replica.Replica
	for _, sh := range f.cl.Topology().ShardsInRegion(types.MasterColor) {
		out = append(out, f.cl.Replicas(sh.ID)...)
	}
	return out
}

// clients creates n client handles on the cluster and books their nodes
// as load generators.
func (f *fixture) clients(n int, opts ...core.Option) ([]*core.Client, error) {
	out := make([]*core.Client, n)
	for i := range out {
		c, err := f.cl.NewClient(opts...)
		if err != nil {
			return nil, err
		}
		f.loadGens[c.ID()] = true
		out[i] = c
	}
	f.handles = append(f.handles, out...)
	return out, nil
}

// orderingSpec declares an ordering-layer-only deployment (§9.1: "we
// isolate the ordering layer overheads by executing the workloads without
// writing any data to the underlying storage layer"): FlexLog sequencers
// — the chain root(c0) ← c1 ← … ← cn, whose deepest node is the entry
// leaf so a request for color c climbs n-c aggregation stages (n == 2 is
// the paper's root–middle–leaf tree), or with star a root and n leaves
// (the Fig. 9 scalability topology) — or the Scalog/Boki orderer over
// three Paxos acceptors, plus the fleet of order drivers standing in for
// the replicas.
type orderingSpec struct {
	n       int
	star    bool
	tweak   func(*seq.Config) // nil keeps seq.DefaultConfig's lane settings
	scalog  *scalog.Config    // the baseline orderer instead of sequencers; ID and Acceptors are the fixture's to fill
	drivers int
}

// Node ids of an ordering-only fixture. Sequencers are spaced so a chain
// of 64 colors stays below the baseline's ids; the two never share a
// network anyway.
const (
	driverIDBase   types.NodeID = 100
	seqIDBase      types.NodeID = 9000
	acceptorIDBase types.NodeID = 9100
	scalogID       types.NodeID = 9200
)

func seqNodeID(color int) types.NodeID { return seqIDBase + types.NodeID(10*color) }

func newOrderingFixture(spec orderingSpec) (*fixture, error) {
	f := &fixture{net: transport.NewNetwork(transport.DatacenterLink()), loadGens: make(map[types.NodeID]bool)}
	return f.built(f.buildOrdering(spec))
}

func (f *fixture) buildOrdering(spec orderingSpec) error {
	if spec.scalog != nil {
		ids, _, err := paxos.AcceptorSet(f.net, acceptorIDBase, 3)
		if err != nil {
			return err
		}
		cfg := *spec.scalog
		cfg.ID, cfg.Acceptors = scalogID, ids
		ord, err := scalog.New(cfg, f.net)
		if err != nil {
			return err
		}
		f.stops = append(f.stops, ord.Stop)
		f.entries = []types.NodeID{scalogID}
	} else {
		topo := topology.New()
		for c := 0; c <= spec.n; c++ {
			parent := 0
			if !spec.star && c > 0 {
				parent = c - 1
			}
			if err := topo.AddRegion(types.ColorID(c), types.ColorID(parent), seqNodeID(c), nil); err != nil {
				return err
			}
		}
		for c := 0; c <= spec.n; c++ {
			cfg := seq.DefaultConfig()
			cfg.ID = seqNodeID(c)
			cfg.Region = types.ColorID(c)
			cfg.Topo = topo
			cfg.HeartbeatInterval = 50 * time.Millisecond
			cfg.FailureTimeout = time.Second
			cfg.RetryTimeout = 2 * time.Second
			cfg.StartAsLeader = true
			if spec.tweak != nil {
				spec.tweak(&cfg)
			}
			s, err := seq.New(cfg, f.net)
			if err != nil {
				return err
			}
			f.seqs = append(f.seqs, s)
			f.stops = append(f.stops, s.Stop)
			if c > 0 && (spec.star || c == spec.n) {
				f.entries = append(f.entries, cfg.ID)
			}
		}
	}
	for i := 0; i < spec.drivers; i++ {
		d, err := newOrderDriver(f.net, driverIDBase+types.NodeID(i))
		if err != nil {
			return err
		}
		f.drivers = append(f.drivers, d)
		f.loadGens[d.id] = true
	}
	return nil
}
