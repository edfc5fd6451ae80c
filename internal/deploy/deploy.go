// Package deploy loads the JSON cluster manifest used by the TCP
// deployment binaries (cmd/flexlog-server, cmd/flexlog-cli): node
// addresses, the region (color) tree with each region's sequencer group,
// the shard layout and the tenants. It also defines, once, what a node is:
// ReplicaConfig and SequencerConfig build a role's configuration under a
// Profile of timings and lane sizes, for flexlog-server and for the
// in-process cluster (core.Cluster) alike.
package deploy

import (
	"encoding/json"
	"fmt"
	"os"
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
	// list runs the cluster without admission control, with one tenant
	// per lane queue). Tenant 0 is the default tenant: it may be declared
	// to give it an explicit weight, but it can never be rate-limited.
	Tenants []qos.TenantConfig `json:"tenants,omitempty"`
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
	return transport.NewAddressBook(m.Nodes) // copies the map
}

// Role describes what a node id does in the manifest.
type Role struct {
	ID     types.NodeID
	Kind   string // "replica", "sequencer", or "unknown"
	Shard  types.ShardID
	Region types.ColorID
	Leader bool // a sequencer that starts as its group's leader
}

// RoleOf resolves a node id's role. A spare resolves to "replica" for its
// target shard — the process runs identically; only the topology's
// membership (which it is not in) distinguishes it until promotion.
func (m *Manifest) RoleOf(id types.NodeID) Role {
	for _, s := range m.Shards {
		for _, r := range s.Replicas {
			if r == id {
				return Role{ID: id, Kind: "replica", Shard: s.ID}
			}
		}
	}
	for _, sp := range m.Spares {
		if sp.ID == id {
			return Role{ID: id, Kind: "replica", Shard: sp.Shard}
		}
	}
	for _, r := range m.Regions {
		if r.Leader == id {
			return Role{ID: id, Kind: "sequencer", Region: r.Color, Leader: true}
		}
		for _, b := range r.Backups {
			if b == id {
				return Role{ID: id, Kind: "sequencer", Region: r.Color}
			}
		}
	}
	return Role{ID: id, Kind: "unknown"}
}

// Profile is the timings and lane sizes a node runs with. Every replica
// and sequencer the program starts is sized by one of three: Test (unit
// and integration tests), Bench (the calibrated in-process evaluation)
// and Deployed (flexlog-server).
type Profile struct {
	// Heartbeat is a sequencer leader's beat to its backups. A replica's
	// timer, which re-checks sync runs, pending orders, join rounds and
	// held reads, ticks every min(Heartbeat, ReadHold): every 1 ms when
	// deployed.
	Heartbeat time.Duration
	// FailureTimeout is the silence after which a sequencer assumes its
	// leader (or a backup) failed (the Δ bound of §4).
	FailureTimeout time.Duration
	// ReplicaRetry re-issues a replica's unanswered order requests;
	// SequencerRetry re-sends a sequencer's unanswered upward round.
	ReplicaRetry   time.Duration
	SequencerRetry time.Duration
	// ReadHold bounds how long a replica holds a read for an SN it has not
	// seen (§6.3: "a timeout of 1 ms is safe").
	ReadHold time.Duration
	// ReadWorkers and WriteWorkers size a replica's read lane and keyed
	// write lane, OrderWorkers a sequencer's keyed order lane; 0 serves
	// the lane on the serialized delivery loop (the ablation baseline).
	ReadWorkers, WriteWorkers, OrderWorkers int
}

// Test is the profile of unit and integration tests. Its failure timeout
// is generous against the heartbeat so CPU hiccups cause no spurious
// failover: a new leader serves only once ALL region replicas ack its
// SeqInit (§5.2), which stalls a region while a test holds one crashed.
func Test() Profile {
	return Profile{Heartbeat: 3 * time.Millisecond, FailureTimeout: 60 * time.Millisecond,
		ReplicaRetry: 30 * time.Millisecond, SequencerRetry: 30 * time.Millisecond,
		ReadHold: 5 * time.Millisecond, ReadWorkers: 4, WriteWorkers: 4, OrderWorkers: 4}
}

// Bench is the profile of the in-process evaluation harness (§9
// "Experimental Setup"), its lanes as wide as the testbed's spare cores.
func Bench() Profile {
	return Profile{Heartbeat: 10 * time.Millisecond, FailureTimeout: 100 * time.Millisecond,
		ReplicaRetry: 200 * time.Millisecond, SequencerRetry: 200 * time.Millisecond,
		ReadHold: time.Millisecond, ReadWorkers: 16, WriteWorkers: 16, OrderWorkers: 16}
}

// Deployed is the profile flexlog-server runs (-seq-workers sets
// OrderWorkers).
func Deployed() Profile {
	return Profile{Heartbeat: 100 * time.Millisecond, FailureTimeout: time.Second,
		ReplicaRetry: time.Second, SequencerRetry: 2 * time.Second,
		ReadHold: time.Millisecond, ReadWorkers: 4, WriteWorkers: 4, OrderWorkers: 4}
}

// ReplicaConfig is the configuration of the replica role.ID in role.Shard
// under profile p, over a store of the caller's sizing.
func ReplicaConfig(p Profile, role Role, topo *topology.Topology, store storage.Config, tenants []qos.TenantConfig) replica.Config {
	return replica.Config{
		ID: role.ID, Shard: role.Shard, Topo: topo, Store: store, Tenants: tenants,
		ReadHoldTimeout: p.ReadHold, ReadWorkers: p.ReadWorkers, WriteWorkers: p.WriteWorkers,
		HeartbeatInterval: p.Heartbeat, RetryTimeout: p.ReplicaRetry,
	}
}

// SequencerConfig is the configuration of the sequencer role.ID in the
// group of role.Region under profile p, leading it if role.Leader says so.
func SequencerConfig(p Profile, role Role, topo *topology.Topology, tenants []qos.TenantConfig) seq.Config {
	cfg := seq.DefaultConfig()
	cfg.ID = role.ID
	cfg.Region = role.Region
	cfg.Topo = topo
	cfg.HeartbeatInterval = p.Heartbeat
	cfg.FailureTimeout = p.FailureTimeout
	cfg.RetryTimeout = p.SequencerRetry
	cfg.StartAsLeader = role.Leader
	cfg.TenantOf = qos.ColorMap(tenants)
	cfg.OrderWorkers = p.OrderWorkers
	return cfg
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
		Tenants: []qos.TenantConfig{
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
