package ctrlplane

import (
	"errors"
	"fmt"
	"slices"

	"flexlog/internal/replica"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// ErrStaticDeployment is returned where a plan needs what a deployment of
// separately started processes cannot give: a process to spawn (split,
// add-region, an add with no declared spare) or in-process replica handles
// (merge).
var ErrStaticDeployment = errors.New("static deployment: processes are started and stopped by the operator (see the OPERATIONS.md reconfiguration runbook)")

// Static adapts a deployment of separately started processes — a cluster
// manifest over TCP — to Cluster. Nothing here starts or stops a process:
// "spawning" a replica hands out the standby the operator already started
// for that shard, and "removing" one is the operator's last step, which
// flexlog-cli prints. flexlog-cli reconfig runs the controller's plans over
// it; flexlog-server uses it, with no Dial, for /debug/topology and the
// advisory autoscaler.
type Static struct {
	// Topo is this process's copy of the layout (the manifest's).
	Topo *topology.Topology
	// Dial opens the controller's endpoint; nil where no control op is
	// ever sent (a server's advisory control plane).
	Dial func(transport.Handler) (transport.Endpoint, error)
	// Spares maps a shard to the running standby a replica add may take.
	Spares map[types.ShardID]types.NodeID
	// Local is the replica this process runs, if any.
	Local *replica.Replica
}

// Topology returns the process-local layout.
func (s *Static) Topology() *topology.Topology { return s.Topo }

// Attach opens the controller's endpoint through Dial.
func (s *Static) Attach(h transport.Handler) (transport.Endpoint, error) {
	if s.Dial == nil {
		return nil, fmt.Errorf("ctrlplane: no control endpoint in this process: %w", ErrStaticDeployment)
	}
	return s.Dial(h)
}

// SpawnReplica hands out the shard's declared standby, which must be
// running and outside the membership.
func (s *Static) SpawnReplica(shard types.ShardID) (types.NodeID, error) {
	id, ok := s.Spares[shard]
	if !ok {
		return 0, fmt.Errorf("ctrlplane: shard %d has no spare to add: %w", shard, ErrStaticDeployment)
	}
	if sh, err := s.Topo.Shard(shard); err != nil {
		return 0, err
	} else if slices.Contains(sh.Replicas, id) {
		return 0, fmt.Errorf("ctrlplane: node %d is already a member of shard %d", id, shard)
	}
	return id, nil
}

// RemoveReplicaNode leaves the process running: stopping it is the
// operator's step once the plan is done.
func (s *Static) RemoveReplicaNode(types.NodeID) error { return nil }

// AddShard would need new replica processes; see ErrStaticDeployment.
func (s *Static) AddShard(types.ColorID) (types.ShardID, error) { return 0, ErrStaticDeployment }

// AddRegion would need new sequencer processes; see ErrStaticDeployment.
func (s *Static) AddRegion(color, parent types.ColorID) error { return ErrStaticDeployment }

// Replica returns the process-local replica for its own id and nil for
// every other (remote) node — /debug/topology renders those without mode
// detail.
func (s *Static) Replica(id types.NodeID) *replica.Replica {
	if s.Local != nil && s.Local.ID() == id {
		return s.Local
	}
	return nil
}
