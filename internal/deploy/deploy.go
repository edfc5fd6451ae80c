// Package deploy loads the JSON cluster manifest used by the TCP
// deployment binaries (cmd/flexlog-server, cmd/flexlog-cli): node
// addresses, the region (color) tree with each region's sequencer group,
// and the shard layout. It also defines, once, what a deployed node is:
// ReplicaConfig and SequencerConfig are the per-role configurations
// flexlog-server itself runs with.
package deploy

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"flexlog/internal/qos"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/storage"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Manifest describes a FlexLog deployment.
type Manifest struct {
	// Nodes maps node id -> "host:port".
	Nodes map[types.NodeID]string `json:"nodes"`
	// Regions declare the color tree; the first entry must be the master
	// region (its Parent is ignored).
	Regions []RegionSpec `json:"regions"`
	// Shards attach replica groups to leaf colors.
	Shards []ShardSpec `json:"shards"`
	// Tenants declare the deployment's QoS envelopes (optional; an empty
	// list runs the cluster without admission control or weighted-fair
	// lanes, the pre-QoS behavior).
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// Spares declare replica processes that run configured for a shard but
	// OUTSIDE its membership: clients never address them, and they serve
	// nothing until a `flexlog-cli reconfig add-replica` catches them up
	// and the widened membership is pushed (OPERATIONS.md runbook).
	Spares []SpareSpec `json:"spares,omitempty"`
}

// SpareSpec is one standby replica: a node with an address and a target
// shard, deliberately absent from that shard's replica list.
type SpareSpec struct {
	ID    types.NodeID  `json:"id"`
	Shard types.ShardID `json:"shard"`
}

// TenantSpec is one tenant's QoS declaration.
type TenantSpec struct {
	// ID is the tenant identity clients carry via core.WithTenant. Tenant
	// 0 is the default tenant: it may be declared to give it an explicit
	// weight, but it can never be rate-limited.
	ID types.TenantID `json:"id"`
	// Weight is the tenant's weighted-fair share of replica lane service
	// (0 means 1).
	Weight uint32 `json:"weight,omitempty"`
	// Rate caps admitted append throughput in records/second (0 =
	// unlimited).
	Rate float64 `json:"rate,omitempty"`
	// Burst is the admission token-bucket depth in records (0 = one
	// second of Rate).
	Burst float64 `json:"burst,omitempty"`
	// Colors lists regions owned by this tenant, used to attribute
	// ordering-layer accounting (optional).
	Colors []types.ColorID `json:"colors,omitempty"`
}

// RegionSpec is one color and its sequencer group.
type RegionSpec struct {
	Color   types.ColorID  `json:"color"`
	Parent  types.ColorID  `json:"parent"`
	Leader  types.NodeID   `json:"leader"`
	Backups []types.NodeID `json:"backups,omitempty"`
}

// ShardSpec is one replica group.
type ShardSpec struct {
	ID       types.ShardID  `json:"id"`
	Leaf     types.ColorID  `json:"leaf"`
	Replicas []types.NodeID `json:"replicas"`
}

// Load reads and validates a manifest file.
func Load(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(raw)
}

// Parse validates a manifest from raw JSON.
func Parse(raw []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("deploy: parsing manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks the manifest's internal consistency.
func (m *Manifest) Validate() error {
	if len(m.Regions) == 0 {
		return fmt.Errorf("deploy: no regions declared")
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("deploy: no node addresses declared")
	}
	known := func(id types.NodeID) error {
		if _, ok := m.Nodes[id]; !ok {
			return fmt.Errorf("deploy: node %v has no address", id)
		}
		return nil
	}
	colors := make(map[types.ColorID]bool)
	for i, r := range m.Regions {
		if colors[r.Color] {
			return fmt.Errorf("deploy: duplicate region %v", r.Color)
		}
		if i > 0 && !colors[r.Parent] {
			return fmt.Errorf("deploy: region %v references undeclared parent %v (parents must be declared first)", r.Color, r.Parent)
		}
		colors[r.Color] = true
		if err := known(r.Leader); err != nil {
			return err
		}
		for _, b := range r.Backups {
			if err := known(b); err != nil {
				return err
			}
		}
	}
	shardIDs := make(map[types.ShardID]bool)
	for _, s := range m.Shards {
		if shardIDs[s.ID] {
			return fmt.Errorf("deploy: duplicate shard %v", s.ID)
		}
		shardIDs[s.ID] = true
		if !colors[s.Leaf] {
			return fmt.Errorf("deploy: shard %v references undeclared color %v", s.ID, s.Leaf)
		}
		if len(s.Replicas) == 0 {
			return fmt.Errorf("deploy: shard %v has no replicas", s.ID)
		}
		for _, r := range s.Replicas {
			if err := known(r); err != nil {
				return err
			}
		}
	}
	spares := make(map[types.NodeID]bool)
	for _, sp := range m.Spares {
		if err := known(sp.ID); err != nil {
			return err
		}
		if !shardIDs[sp.Shard] {
			return fmt.Errorf("deploy: spare %v references undeclared shard %v", sp.ID, sp.Shard)
		}
		if spares[sp.ID] {
			return fmt.Errorf("deploy: duplicate spare %v", sp.ID)
		}
		spares[sp.ID] = true
		for _, s := range m.Shards {
			for _, r := range s.Replicas {
				if r == sp.ID {
					return fmt.Errorf("deploy: spare %v is already a member of shard %v — a spare must start outside the membership", sp.ID, s.ID)
				}
			}
		}
	}
	tenants := make(map[types.TenantID]bool)
	for _, t := range m.Tenants {
		if tenants[t.ID] {
			return fmt.Errorf("deploy: duplicate tenant %v", t.ID)
		}
		tenants[t.ID] = true
		if t.ID == types.DefaultTenant && t.Rate > 0 {
			return fmt.Errorf("deploy: the default tenant cannot be rate-limited")
		}
		if t.Rate < 0 || t.Burst < 0 {
			return fmt.Errorf("deploy: tenant %v declares a negative rate or burst", t.ID)
		}
		for _, c := range t.Colors {
			if !colors[c] {
				return fmt.Errorf("deploy: tenant %v claims undeclared color %v", t.ID, c)
			}
		}
	}
	return nil
}

// TenantConfigs materializes the tenant declarations for the replica and
// cluster constructors (nil when the manifest declares none).
func (m *Manifest) TenantConfigs() []qos.TenantConfig {
	if len(m.Tenants) == 0 {
		return nil
	}
	out := make([]qos.TenantConfig, len(m.Tenants))
	for i, t := range m.Tenants {
		out[i] = qos.TenantConfig{ID: t.ID, Weight: t.Weight, Rate: t.Rate, Burst: t.Burst, Colors: t.Colors}
	}
	return out
}

// Topology materializes the manifest's layout.
func (m *Manifest) Topology() (*topology.Topology, error) {
	topo := topology.New()
	for _, r := range m.Regions {
		if err := topo.AddRegion(r.Color, r.Parent, r.Leader, r.Backups); err != nil {
			return nil, err
		}
	}
	for _, s := range m.Shards {
		if err := topo.AddShard(s.ID, s.Leaf, s.Replicas); err != nil {
			return nil, err
		}
	}
	return topo, nil
}

// AddressBook materializes the node address map.
func (m *Manifest) AddressBook() *transport.AddressBook {
	addrs := make(map[types.NodeID]string, len(m.Nodes))
	for id, a := range m.Nodes {
		addrs[id] = a
	}
	return transport.NewAddressBook(addrs)
}

// Role describes what a node id does in the manifest.
type Role struct {
	Kind   string // "replica", "sequencer", or "unknown"
	Shard  types.ShardID
	Region types.ColorID
}

// RoleOf resolves a node id's role. A spare resolves to "replica" for its
// target shard — the process runs identically; only the topology's
// membership (which it is not in) distinguishes it until promotion.
func (m *Manifest) RoleOf(id types.NodeID) Role {
	for _, s := range m.Shards {
		for _, r := range s.Replicas {
			if r == id {
				return Role{Kind: "replica", Shard: s.ID}
			}
		}
	}
	for _, sp := range m.Spares {
		if sp.ID == id {
			return Role{Kind: "replica", Shard: sp.Shard}
		}
	}
	for _, r := range m.Regions {
		if r.Leader == id {
			return Role{Kind: "sequencer", Region: r.Color}
		}
		for _, b := range r.Backups {
			if b == id {
				return Role{Kind: "sequencer", Region: r.Color}
			}
		}
	}
	return Role{Kind: "unknown"}
}

// ReplicaConfig is the configuration a deployed replica runs with: node id
// in the shard the manifest gives it, over a store of the caller's sizing.
// Deployed replicas run the full parallel write path: the keyed write lane
// of replica.DefaultConfig plus the group commit and order-request
// coalescing every replica runs.
func (m *Manifest) ReplicaConfig(topo *topology.Topology, id types.NodeID, store storage.Config) replica.Config {
	cfg := replica.DefaultConfig()
	cfg.ID = id
	cfg.Shard = m.RoleOf(id).Shard
	cfg.Topo = topo
	cfg.Store = store
	cfg.ReadHoldTimeout = time.Millisecond
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.RetryTimeout = time.Second
	cfg.Tenants = m.TenantConfigs()
	return cfg
}

// SequencerConfig is the configuration a deployed sequencer runs with:
// node id in the group of the region the manifest gives it, leading it if
// the topology says so, with the given number of order-lane workers.
func (m *Manifest) SequencerConfig(topo *topology.Topology, id types.NodeID, orderWorkers int) (seq.Config, error) {
	region := m.RoleOf(id).Region
	si, err := topo.Sequencer(region)
	if err != nil {
		return seq.Config{}, err
	}
	cfg := seq.DefaultConfig()
	cfg.ID = id
	cfg.Region = region
	cfg.Topo = topo
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.FailureTimeout = time.Second
	cfg.RetryTimeout = 2 * time.Second
	cfg.StartAsLeader = si.Leader == id
	cfg.TenantOf = qos.ColorMap(m.TenantConfigs())
	cfg.OrderWorkers = orderWorkers
	return cfg, nil
}

// NodeIDs returns every node id in the manifest, sorted.
func (m *Manifest) NodeIDs() []types.NodeID {
	ids := make([]types.NodeID, 0, len(m.Nodes))
	for id := range m.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// RegisterWire is a no-op: the binary codec frames every protocol message
// without registration. Inert until the benchmark module stops calling it
// (ROADMAP 1b).
func RegisterWire() {}

// Example returns a ready-to-edit single-host manifest: one master region
// with a 3-sequencer group and one shard of three replicas.
func Example() *Manifest {
	return &Manifest{
		Nodes: map[types.NodeID]string{
			1:   "127.0.0.1:7101",
			2:   "127.0.0.1:7102",
			3:   "127.0.0.1:7103",
			4:   "127.0.0.1:7104",
			900: "127.0.0.1:7900",
			901: "127.0.0.1:7901",
			902: "127.0.0.1:7902",
			500: "127.0.0.1:7500",
			501: "127.0.0.1:7501",
			502: "127.0.0.1:7502",
		},
		Regions: []RegionSpec{
			{Color: 0, Leader: 900, Backups: []types.NodeID{901, 902}},
		},
		Shards: []ShardSpec{
			{ID: 1, Leaf: 0, Replicas: []types.NodeID{1, 2, 3}},
		},
		Tenants: []TenantSpec{
			{ID: 1, Weight: 3},
			{ID: 2, Weight: 1, Rate: 50_000, Burst: 10_000},
		},
		// Node 4 is a standby for shard 1: it runs but serves nothing
		// until `flexlog-cli reconfig add-replica` promotes it (see the
		// OPERATIONS.md reconfiguration runbook).
		Spares: []SpareSpec{
			{ID: 4, Shard: 1},
		},
	}
}
