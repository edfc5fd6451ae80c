// Package topology models FlexLog's deployment layout (§4): the color
// (region) tree, the sequencer owning each region with its backups, and the
// shards attached to leaf regions. It answers the routing questions every
// protocol needs — which sequencer orders a color, which shards store it,
// which replicas form a shard — and supports dynamic AddColor (Table 2).
//
// A single Topology value is shared by all in-process nodes (it plays the
// role of the deployment configuration every node of the original system is
// started with); leader changes after sequencer failover are published here
// by the elected sequencer.
package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"flexlog/internal/types"
)

var (
	// ErrUnknownColor is returned for colors that were never added.
	ErrUnknownColor = errors.New("topology: unknown color")
	// ErrDuplicate is returned when re-adding an existing color or shard.
	ErrDuplicate = errors.New("topology: duplicate")
)

// SequencerInfo describes the sequencer group owning one region.
type SequencerInfo struct {
	Region  types.ColorID
	Leader  types.NodeID   // current leader (changes on failover)
	Backups []types.NodeID // 2f backup nodes (§5.2)
	Members []types.NodeID // stable group: initial leader ∪ backups
	Parent  types.ColorID  // parent region; meaningless for the root
	IsRoot  bool
}

// ShardInfo describes one replica group and the leaf region it serves.
type ShardInfo struct {
	ID       types.ShardID
	Leaf     types.ColorID // the leaf region whose sequencer the shard uses
	Replicas []types.NodeID
}

// Topology is the shared cluster layout. All methods are safe for
// concurrent use.
type Topology struct {
	mu      sync.RWMutex
	version uint64
	seqs    map[types.ColorID]*SequencerInfo
	shards  map[types.ShardID]*ShardInfo
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		seqs:   make(map[types.ColorID]*SequencerInfo),
		shards: make(map[types.ShardID]*ShardInfo),
	}
}

// AddRegion declares a color and the sequencer group that owns it. The
// first region added must be the root (master region); all others name an
// existing parent.
func (t *Topology) AddRegion(color types.ColorID, parent types.ColorID, leader types.NodeID, backups []types.NodeID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.seqs[color]; dup {
		return fmt.Errorf("%w: region %v", ErrDuplicate, color)
	}
	isRoot := len(t.seqs) == 0
	if !isRoot {
		if _, ok := t.seqs[parent]; !ok {
			return fmt.Errorf("%w: parent %v of %v", ErrUnknownColor, parent, color)
		}
		if parent == color {
			return fmt.Errorf("topology: region %v cannot parent itself", color)
		}
	}
	members := make([]types.NodeID, 0, len(backups)+1)
	members = append(members, leader)
	for _, b := range backups {
		if b != leader {
			members = append(members, b)
		}
	}
	t.seqs[color] = &SequencerInfo{
		Region:  color,
		Leader:  leader,
		Backups: append([]types.NodeID(nil), backups...),
		Members: members,
		Parent:  parent,
		IsRoot:  isRoot,
	}
	t.version++
	return nil
}

// AddShard attaches a replica group to a leaf region.
func (t *Topology) AddShard(id types.ShardID, leaf types.ColorID, replicas []types.NodeID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.shards[id]; dup {
		return fmt.Errorf("%w: shard %v", ErrDuplicate, id)
	}
	if _, ok := t.seqs[leaf]; !ok {
		return fmt.Errorf("%w: leaf %v for shard %v", ErrUnknownColor, leaf, id)
	}
	t.shards[id] = &ShardInfo{
		ID:       id,
		Leaf:     leaf,
		Replicas: append([]types.NodeID(nil), replicas...),
	}
	t.version++
	return nil
}

// Sequencer returns the sequencer group of a region.
func (t *Topology) Sequencer(color types.ColorID) (SequencerInfo, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	si, ok := t.seqs[color]
	if !ok {
		return SequencerInfo{}, fmt.Errorf("%w: %v", ErrUnknownColor, color)
	}
	return *si, nil
}

// Leader returns the current leader node of a region's sequencer group.
func (t *Topology) Leader(color types.ColorID) (types.NodeID, error) {
	si, err := t.Sequencer(color)
	if err != nil {
		return 0, err
	}
	return si.Leader, nil
}

// SetLeader publishes a leadership change after failover.
func (t *Topology) SetLeader(color types.ColorID, leader types.NodeID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	si, ok := t.seqs[color]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownColor, color)
	}
	si.Leader = leader
	t.version++
	return nil
}

// Parent returns the parent region of a color, and false for the root.
func (t *Topology) Parent(color types.ColorID) (types.ColorID, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	si, ok := t.seqs[color]
	if !ok {
		return 0, false, fmt.Errorf("%w: %v", ErrUnknownColor, color)
	}
	return si.Parent, !si.IsRoot, nil
}

// HasColor reports whether the color exists.
func (t *Topology) HasColor(color types.ColorID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.seqs[color]
	return ok
}

// Colors returns all declared colors, sorted.
func (t *Topology) Colors() []types.ColorID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]types.ColorID, 0, len(t.seqs))
	for c := range t.seqs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InRegion reports whether color `c` lies inside the region rooted at
// `region` (i.e. region is c or an ancestor of c).
func (t *Topology) InRegion(region, c types.ColorID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.inRegionLocked(region, c)
}

func (t *Topology) inRegionLocked(region, c types.ColorID) bool {
	for {
		if c == region {
			return true
		}
		si, ok := t.seqs[c]
		if !ok || si.IsRoot {
			return false
		}
		c = si.Parent
	}
}

// ShardsInRegion returns the shards whose leaf region lies inside the
// region rooted at color (§4: "a shard is allocated to the region of its
// leaf-sequencer and all its super-regions"). The result is sorted by id.
func (t *Topology) ShardsInRegion(color types.ColorID) []ShardInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []ShardInfo
	for _, sh := range t.shards {
		if t.inRegionLocked(color, sh.Leaf) {
			out = append(out, *sh)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RandomShard picks a uniformly random shard of the region (Alg. 1: the
// client broadcasts "to all replicas in a (random) shard of c").
func (t *Topology) RandomShard(color types.ColorID, rng *rand.Rand) (ShardInfo, error) {
	shards := t.ShardsInRegion(color)
	if len(shards) == 0 {
		return ShardInfo{}, fmt.Errorf("topology: no shards in region %v", color)
	}
	return shards[rng.Intn(len(shards))], nil
}

// Shard returns a shard by id.
func (t *Topology) Shard(id types.ShardID) (ShardInfo, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sh, ok := t.shards[id]
	if !ok {
		return ShardInfo{}, fmt.Errorf("topology: unknown shard %v", id)
	}
	return *sh, nil
}

// ShardOfReplica returns the shard a replica belongs to.
func (t *Topology) ShardOfReplica(id types.NodeID) (ShardInfo, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, sh := range t.shards {
		for _, r := range sh.Replicas {
			if r == id {
				return *sh, true
			}
		}
	}
	return ShardInfo{}, false
}

// ReplicasInRegion returns every replica of every shard inside the region
// (the set a new sequencer must initialize, §5.2). Sorted and de-duplicated.
func (t *Topology) ReplicasInRegion(color types.ColorID) []types.NodeID {
	shards := t.ShardsInRegion(color)
	seen := make(map[types.NodeID]bool)
	var out []types.NodeID
	for _, sh := range shards {
		for _, r := range sh.Replicas {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Leaves returns the colors that have at least one shard attached, sorted.
func (t *Topology) Leaves() []types.ColorID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	seen := make(map[types.ColorID]bool)
	var out []types.ColorID
	for _, sh := range t.shards {
		if !seen[sh.Leaf] {
			seen[sh.Leaf] = true
			out = append(out, sh.Leaf)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PathToOwner returns the chain of regions from `from` (exclusive) up to
// the region `target`, used to validate that an order request can reach its
// owner by walking parents.
func (t *Topology) PathToOwner(from, target types.ColorID) ([]types.ColorID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var path []types.ColorID
	c := from
	for c != target {
		si, ok := t.seqs[c]
		if !ok {
			return nil, fmt.Errorf("%w: %v", ErrUnknownColor, c)
		}
		if si.IsRoot {
			return nil, fmt.Errorf("topology: region %v is not an ancestor of %v", target, from)
		}
		c = si.Parent
		path = append(path, c)
	}
	return path, nil
}

// ErrLastReplica is returned when a removal would leave a shard empty.
var ErrLastReplica = errors.New("topology: cannot remove the last replica of a shard")

// Version returns the fencing epoch of the layout: a monotonic counter
// bumped by every mutation (region/shard/replica membership and leader
// changes). Reconfiguration messages carry it so stale snapshots can be
// rejected, and clients compare it to decide when to re-resolve routes.
func (t *Topology) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// RaiseVersion lifts the fencing epoch to at least v without changing the
// layout. A control plane whose copy of the layout is older than a node's
// (a manifest that predates earlier reconfigurations) calls it with every
// version it is told, so the next mutation it publishes is newer than any
// of them instead of being fenced as stale.
func (t *Topology) RaiseVersion(v uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v > t.version {
		t.version = v
	}
}

// AddReplicaToShard promotes a caught-up replica into a shard's read/write
// set. From this point appends broadcast to it and reads may consult it.
func (t *Topology) AddReplicaToShard(id types.ShardID, node types.NodeID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sh, ok := t.shards[id]
	if !ok {
		return fmt.Errorf("topology: unknown shard %v", id)
	}
	for _, r := range sh.Replicas {
		if r == node {
			return fmt.Errorf("%w: replica %v in shard %v", ErrDuplicate, node, id)
		}
	}
	sh.Replicas = append(sh.Replicas, node)
	t.version++
	return nil
}

// RemoveReplicaFromShard drops a replica from a shard's read/write set
// (drain cutover). The shard must keep at least one replica.
func (t *Topology) RemoveReplicaFromShard(id types.ShardID, node types.NodeID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sh, ok := t.shards[id]
	if !ok {
		return fmt.Errorf("topology: unknown shard %v", id)
	}
	for i, r := range sh.Replicas {
		if r != node {
			continue
		}
		if len(sh.Replicas) == 1 {
			return fmt.Errorf("%w: shard %v", ErrLastReplica, id)
		}
		sh.Replicas = append(sh.Replicas[:i:i], sh.Replicas[i+1:]...)
		t.version++
		return nil
	}
	return fmt.Errorf("topology: replica %v not in shard %v", node, id)
}

// RemoveShard detaches a shard from the layout (merge cutover: its records
// must already have been migrated into the surviving shard of the leaf).
func (t *Topology) RemoveShard(id types.ShardID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.shards[id]; !ok {
		return fmt.Errorf("topology: unknown shard %v", id)
	}
	delete(t.shards, id)
	t.version++
	return nil
}

// Snapshot is a versioned copy of the full layout, used to propagate
// reconfigurations to remote nodes (proto.TopoUpdate) and to render
// /debug/topology. Regions and Shards are sorted for determinism.
type Snapshot struct {
	Version uint64
	Regions []SequencerInfo
	Shards  []ShardInfo
}

// Snapshot returns a deep, versioned copy of the layout.
func (t *Topology) Snapshot() Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Snapshot{Version: t.version}
	for _, si := range t.seqs {
		cp := *si
		cp.Backups = append([]types.NodeID(nil), si.Backups...)
		cp.Members = append([]types.NodeID(nil), si.Members...)
		s.Regions = append(s.Regions, cp)
	}
	for _, sh := range t.shards {
		cp := *sh
		cp.Replicas = append([]types.NodeID(nil), sh.Replicas...)
		s.Shards = append(s.Shards, cp)
	}
	sort.Slice(s.Regions, func(i, j int) bool { return s.Regions[i].Region < s.Regions[j].Region })
	sort.Slice(s.Shards, func(i, j int) bool { return s.Shards[i].ID < s.Shards[j].ID })
	return s
}

// Apply installs a snapshot if (and only if) it is newer than the local
// layout — the epoch fence for reconfiguration broadcasts. It returns true
// when the snapshot was applied and false when it was stale or equal (a
// duplicate or out-of-order TopoUpdate), which callers treat as a no-op.
func (t *Topology) Apply(s Snapshot) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Version <= t.version {
		return false
	}
	seqs := make(map[types.ColorID]*SequencerInfo, len(s.Regions))
	for i := range s.Regions {
		cp := s.Regions[i]
		cp.Backups = append([]types.NodeID(nil), cp.Backups...)
		cp.Members = append([]types.NodeID(nil), cp.Members...)
		seqs[cp.Region] = &cp
	}
	shards := make(map[types.ShardID]*ShardInfo, len(s.Shards))
	for i := range s.Shards {
		cp := s.Shards[i]
		cp.Replicas = append([]types.NodeID(nil), cp.Replicas...)
		shards[cp.ID] = &cp
	}
	t.seqs = seqs
	t.shards = shards
	t.version = s.Version
	return true
}
