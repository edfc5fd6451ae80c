package topology

import (
	"flexlog/internal/proto"
	"flexlog/internal/types"
)

// This file bridges topology snapshots and their wire form
// (proto.TopoUpdate): the control plane broadcasts versioned snapshots to
// every node after a mutation, and receivers adopt them through the same
// fencing rule as Apply — strictly newer versions win, everything else is
// dropped. proto stays free of topology imports (it is below everything on
// the dependency graph), so the conversion lives here.

// SnapshotToWire converts a snapshot to its wire form.
func SnapshotToWire(s Snapshot, from types.NodeID) proto.TopoUpdate {
	m := proto.TopoUpdate{Version: s.Version, From: from}
	for _, si := range s.Regions {
		m.Regions = append(m.Regions, proto.TopoRegion{
			Color:   si.Region,
			Parent:  si.Parent,
			Leader:  si.Leader,
			Backups: si.Backups,
			Members: si.Members,
			IsRoot:  si.IsRoot,
		})
	}
	for _, sh := range s.Shards {
		m.Shards = append(m.Shards, proto.TopoShard{ID: sh.ID, Leaf: sh.Leaf, Replicas: sh.Replicas})
	}
	return m
}

// SnapshotFromWire converts a TopoUpdate back to a snapshot.
func SnapshotFromWire(m proto.TopoUpdate) Snapshot {
	s := Snapshot{Version: m.Version}
	for _, rg := range m.Regions {
		s.Regions = append(s.Regions, SequencerInfo{
			Region:  rg.Color,
			Parent:  rg.Parent,
			Leader:  rg.Leader,
			Backups: rg.Backups,
			Members: rg.Members,
			IsRoot:  rg.IsRoot,
		})
	}
	for _, sh := range m.Shards {
		s.Shards = append(s.Shards, ShardInfo{ID: sh.ID, Leaf: sh.Leaf, Replicas: sh.Replicas})
	}
	return s
}

// ApplyWire adopts a received TopoUpdate if it is strictly newer than the
// local layout; it reports whether the update was applied.
func (t *Topology) ApplyWire(m proto.TopoUpdate) bool {
	return t.Apply(SnapshotFromWire(m))
}
