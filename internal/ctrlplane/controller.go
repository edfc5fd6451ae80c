// Package ctrlplane is FlexLog's elastic reconfiguration control plane
// (DESIGN.md §15): online topology mutation — replica add with background
// catch-up, replica drain with cutover, shard split and merge, sequencer-
// tree growth — under live traffic, plus the autoscaler that issues such
// plans from declarative thresholds over the observability registry.
//
// Every mutation runs as a Plan: a small state machine
// (Pending → CatchingUp → Converging → Cutover → Done, with Failed and
// RolledBack exits) whose transitions are the protocol steps described in
// DESIGN.md §15. There is one executor of those steps. The controller
// reaches a replica only by message — the four control ops and topology
// publication of node.go, from one endpoint on whatever fabric the cluster
// runs on — so an in-process cluster (tests, chaos, bench) and a deployment
// of separate processes (flexlog-cli reconfig) run the same plans and
// differ only in their Cluster adapter. Plans run one at a time: a plan
// that overlapped another's node removal would wait on a node that is
// gone. Correctness rests on three rules, enforced here and in the data
// plane:
//
//   - epoch fencing: every topology mutation bumps the layout version;
//     snapshots only apply forward, and clients re-resolve membership on
//     their retry ticks, so in-flight operations either land on current
//     members or surface a typed retryable rejection (ErrReconfiguring);
//   - catch-up before membership: a replica being added lives outside the
//     topology (unaddressable) until its donor lag reaches the promote
//     threshold; only then does it enter the shard and converge the final
//     tail through the ordinary §6.3 sync-phase;
//   - removal after flush: a replica being drained leaves the topology
//     FIRST (acked records are, by Alg. 1, committed on every member, so
//     survivors hold everything acked), then rejects new appends while its
//     pending orders flush, and is only stopped once they have.
//
// The package deliberately depends on replica/topology/obs but NOT on
// core: the deployment harness (core.Cluster) satisfies the small Cluster
// interface below, and tests drive the controller through it.
package ctrlplane

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/proto"
	"flexlog/internal/replica"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Cluster is the node-lifecycle surface the controller drives: core.Cluster
// for an in-process deployment, Static for separately started processes;
// tests may substitute fakes.
type Cluster interface {
	// Topology returns the layout the controller mutates: the one every
	// node shares in process, the controller's own copy otherwise.
	Topology() *topology.Topology
	// Attach opens the controller's endpoint on the fabric the cluster's
	// nodes listen on. Called at most once, on the first control op.
	Attach(h transport.Handler) (transport.Endpoint, error)
	// SpawnReplica creates a replica process for a shard without adding it
	// to the shard's membership.
	SpawnReplica(shard types.ShardID) (types.NodeID, error)
	// RemoveReplicaNode stops a replica process and releases its resources.
	RemoveReplicaNode(id types.NodeID) error
	// AddShard attaches a fresh shard (with its replicas) to a leaf color.
	AddShard(leaf types.ColorID) (types.ShardID, error)
	// AddRegion declares a color and spawns its sequencer group.
	AddRegion(color, parent types.ColorID) error
	// Replica returns an in-process replica handle by node id, nil for an
	// unknown or remote node. /debug/topology inspects through it and a
	// merge migrates records through it; no plan commands a replica by it.
	Replica(id types.NodeID) *replica.Replica
}

// PlanKind names a reconfiguration operation.
type PlanKind int

// Plan kinds.
const (
	KindAddReplica PlanKind = iota
	KindDrainReplica
	KindSplitShard
	KindMergeShard
	KindAddRegion
)

var kindNames = [...]string{"add-replica", "drain-replica", "split-shard", "merge-shard", "add-region"}

// String returns the CLI-facing kind label (e.g. "add-replica").
func (k PlanKind) String() string {
	if uint(k) < uint(len(kindNames)) {
		return kindNames[k]
	}
	return "unknown"
}

// PlanState is a plan's position in the reconfiguration state machine.
type PlanState int

// Plan states. Terminal states are StateDone, StateFailed, StateRolledBack.
const (
	StatePending    PlanState = iota // registered; waiting for its turn
	StateCatchingUp                  // joiner pulling history from its donor
	StateConverging                  // promoted joiner running the sync-phase tail
	StateCutover                     // membership changed; flushing / migrating
	StateDone
	StateFailed
	StateRolledBack
)

var stateNames = [...]string{"pending", "catching-up", "converging", "cutover", "done", "failed", "rolled-back"}

// String returns the state label shown in /debug/topology plan history.
func (s PlanState) String() string {
	if uint(s) < uint(len(stateNames)) {
		return stateNames[s]
	}
	return "unknown"
}

// Terminal reports whether the state machine has exited.
func (s PlanState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateRolledBack
}

// Plan is one reconfiguration operation and its progress. Fields are
// snapshots — read them through Controller.Plans.
type Plan struct {
	ID     uint64
	Kind   PlanKind
	Shard  types.ShardID // subject shard (add/drain/merge source)
	Target types.ShardID // merge destination / split result
	Color  types.ColorID // leaf (split) or new region color (add-region)
	Parent types.ColorID // parent region (add-region)
	Node   types.NodeID  // replica added or drained
	Donor  types.NodeID  // catch-up donor (add-replica)
	State  PlanState
	Lag    uint64 // last progress figure the subject reported: catch-up lag, or pending orders of a drain
	Err    string // failure cause in terminal Failed/RolledBack states
	Start  time.Time
	End    time.Time // zero until terminal

	abort chan struct{}
}

// String renders one plan-history line: id, kind, the ids it touched,
// its state, the progress figure while it runs, and the failure cause if
// it exited Failed/RolledBack.
func (p *Plan) String() string {
	s := fmt.Sprintf("plan %d %s", p.ID, p.Kind)
	switch p.Kind {
	case KindAddReplica:
		s += fmt.Sprintf(" shard=%d node=%d donor=%d", p.Shard, p.Node, p.Donor)
	case KindDrainReplica:
		s += fmt.Sprintf(" shard=%d node=%d", p.Shard, p.Node)
	case KindSplitShard:
		s += fmt.Sprintf(" leaf=%d new=%d", p.Color, p.Target)
	case KindMergeShard:
		s += fmt.Sprintf(" src=%d dst=%d", p.Shard, p.Target)
	case KindAddRegion:
		s += fmt.Sprintf(" color=%d parent=%d shard=%d", p.Color, p.Parent, p.Target)
	}
	s += fmt.Sprintf(" state=%s", p.State)
	if !p.State.Terminal() && p.Lag > 0 {
		s += fmt.Sprintf(" lag=%d", p.Lag)
	}
	if p.Err != "" {
		s += fmt.Sprintf(" err=%q", p.Err)
	}
	return s
}

// Config parameterizes a Controller.
type Config struct {
	// PollInterval is the progress-polling cadence (catch-up lag, drain
	// flush, sync convergence) and the retransmission interval of an
	// unanswered control op; 0 uses 2ms.
	PollInterval time.Duration
	// PromoteLag is the catch-up lag (records behind the donor) at or
	// below which a joiner is promoted; the promotion sync-phase converges
	// the remainder. 0 uses 256.
	PromoteLag uint64
	// CatchupTimeout bounds lack of progress in StateCatchingUp, not the
	// transfer: a joiner whose lag reaches no new low for this long (or
	// that stops answering) is rolled back, however large the log. It also
	// bounds the survey before a replica add. 0 uses 30s.
	CatchupTimeout time.Duration
	// DrainTimeout bounds a drain — survey, publication and pending-order
	// flush; once the node is out of the membership, expiry removes it
	// anyway (acked data is committed on the survivors). 0 uses 10s.
	DrainTimeout time.Duration
	// ConvergeTimeout bounds the promotion sync-phase, and every other
	// wait for the replicas to confirm a published layout. 0 uses 30s.
	ConvergeTimeout time.Duration
	// Obs, when set, publishes the flexlog_ctrl_* metric families.
	Obs *obs.Registry
}

// Controller owns reconfiguration plans for one cluster. All methods are
// safe for concurrent use; each blocking operation drives its own plan,
// and concurrent ones take turns.
type Controller struct {
	cl  Cluster
	cfg Config

	turn sync.Mutex // held by the one plan that is past StatePending

	attach    sync.Once // guards nc, attachErr (node.go)
	nc        *nodeClient
	attachErr error

	mu     sync.Mutex
	nextID uint64
	plans  []*Plan
}

// ErrAborted is the terminal cause of a plan cancelled via Abort.
var ErrAborted = errors.New("ctrlplane: plan aborted")

// New creates a controller for the cluster.
func New(cl Cluster, cfg Config) *Controller {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Millisecond
	}
	if cfg.PromoteLag == 0 {
		cfg.PromoteLag = 256
	}
	if cfg.CatchupTimeout <= 0 {
		cfg.CatchupTimeout = 30 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.ConvergeTimeout <= 0 {
		cfg.ConvergeTimeout = 30 * time.Second
	}
	c := &Controller{cl: cl, cfg: cfg}
	// The flexlog_ctrl_* families (OPERATIONS.md §2.10); a nil registry
	// takes them as no-ops.
	cfg.Obs.GaugeFunc("flexlog_ctrl_plans_active",
		"Reconfiguration plans currently in flight.", nil,
		func() float64 {
			n := 0
			for _, p := range c.Plans() {
				if !p.State.Terminal() {
					n++
				}
			}
			return float64(n)
		})
	return c
}

// Cluster returns the deployment surface this controller drives.
func (c *Controller) Cluster() Cluster { return c.cl }

// Plans returns a snapshot of every plan, oldest first.
func (c *Controller) Plans() []Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Plan, len(c.plans))
	for i, p := range c.plans {
		out[i] = *p
	}
	return out
}

// Abort cancels an in-flight plan: its wait on a node, or its next poll
// tick, ends with ErrAborted and the plan rolls back what it can (a
// joining replica is narrowed out again, stopped and removed; a drain past
// its cutover stops flushing and removes the node). The operator surface
// for a stuck plan — see the OPERATIONS.md runbook.
func (c *Controller) Abort(id uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.plans {
		if p.ID != id {
			continue
		}
		if p.State.Terminal() {
			return fmt.Errorf("ctrlplane: plan %d already %s", id, p.State)
		}
		select {
		case <-p.abort:
		default:
			close(p.abort)
		}
		return nil
	}
	return fmt.Errorf("ctrlplane: unknown plan %d", id)
}

// run registers a plan (StatePending), waits for its turn, executes its
// steps and records the terminal state and cause they return.
func (c *Controller) run(plan Plan, steps func(p *Plan) (PlanState, error)) (Plan, error) {
	c.mu.Lock()
	c.nextID++
	plan.ID, plan.State, plan.Start, plan.abort = c.nextID, StatePending, time.Now(), make(chan struct{})
	p := &plan
	c.plans = append(c.plans, p)
	c.mu.Unlock()
	c.cfg.Obs.Counter("flexlog_ctrl_plans_total",
		"Reconfiguration plans started, per kind.", obs.Labels{"kind": plan.Kind.String()}).Inc()

	c.turn.Lock()
	defer c.turn.Unlock()
	state, err := steps(p)
	c.update(func() {
		p.State, p.End = state, time.Now()
		if err != nil {
			p.Err = err.Error()
		}
	})
	if err == nil {
		c.cfg.Obs.Counter("flexlog_ctrl_plans_done_total",
			"Reconfiguration plans completed successfully.", nil).Inc()
	} else {
		c.cfg.Obs.Counter("flexlog_ctrl_plans_failed_total",
			"Reconfiguration plans that failed or were rolled back.", nil).Inc()
	}
	return *p, err
}

// update changes a registered plan's fields under the controller lock,
// which Plans copies them under.
func (c *Controller) update(set func()) {
	c.mu.Lock()
	set()
	c.mu.Unlock()
}

// poll waits one tick, reporting false when the plan was aborted.
func (c *Controller) poll(p *Plan) bool {
	select {
	case <-p.abort:
		return false
	case <-time.After(c.cfg.PollInterval):
		return true
	}
}

// ---- Replica add (survey → spawn → catch-up → widen → promote → converge) ----

// AddReplica grows a shard by one replica under live traffic, catching up
// from the shard's first operational member. See AddReplicaFrom.
func (c *Controller) AddReplica(shard types.ShardID) (Plan, error) {
	return c.AddReplicaFrom(shard, 0)
}

// AddReplicaFrom grows a shard by one replica under live traffic: the node
// starts outside the topology, catches up in the background from donor (0
// picks the shard's first operational member) until its lag is within
// PromoteLag, then enters the membership — published to every replica —
// and converges the tail with a sync-phase. A failure at any point after
// the spawn ends RolledBack: the membership is narrowed again (and that
// published) if it had been widened, and the node is removed. Blocks until
// the plan is terminal.
func (c *Controller) AddReplicaFrom(shard types.ShardID, donor types.NodeID) (Plan, error) {
	return c.run(Plan{Kind: KindAddReplica, Shard: shard}, func(p *Plan) (PlanState, error) {
		topo := c.cl.Topology()
		sh, err := topo.Shard(shard)
		if err != nil {
			return StateFailed, err
		}
		acks, err := c.survey(time.Now().Add(c.cfg.CatchupTimeout), p.abort)
		if err != nil {
			return StateFailed, err
		}
		candidates := sh.Replicas
		if donor != 0 {
			candidates = []types.NodeID{donor}
		}
		i := slices.IndexFunc(candidates, func(id types.NodeID) bool {
			ack, ok := acks[id]
			return ok && replica.Mode(ack.Mode) == replica.ModeOperational
		})
		if i < 0 {
			return StateFailed, fmt.Errorf("ctrlplane: shard %d has no operational donor among %v", shard, candidates)
		}
		id, err := c.cl.SpawnReplica(shard)
		if err != nil {
			return StateFailed, err
		}
		c.update(func() { p.Donor, p.Node = candidates[i], id })

		widened, err := c.joinAndPromote(p, topo)
		if err == nil {
			return StateDone, nil
		}
		// Roll back, whatever the plan's abort says. Narrowing is safe: by
		// Alg. 1 everything acked is committed on every earlier member.
		if widened && topo.RemoveReplicaFromShard(shard, id) == nil {
			// Best effort: a replica this misses is told by the next plan.
			_ = c.publish(0, time.Now().Add(c.cfg.ConvergeTimeout), nil)
		}
		_ = c.cl.RemoveReplicaNode(id) // the plan already failed; its cause is the one to report
		return StateRolledBack, err
	})
}

// joinAndPromote takes a spawned node from outside the topology to an
// operational member, reporting whether it widened the membership.
func (c *Controller) joinAndPromote(p *Plan, topo *topology.Topology) (widened bool, err error) {
	// Catch-up: the joiner pulls history in bounded rounds while the shard
	// keeps serving. CatchupTimeout bounds lack of progress, not the
	// transfer: the deadline moves out whenever the lag reaches a new low.
	c.update(func() { p.State = StateCatchingUp })
	stuck := time.Now().Add(c.cfg.CatchupTimeout)
	ack, err := c.command(p.Node, proto.CtrlOpJoin, p.Donor, nil, stuck, p.abort)
	if err != nil {
		return false, err
	}
	for best := ack.Lag; ack.Lag > c.cfg.PromoteLag; {
		if !c.poll(p) {
			return false, ErrAborted
		}
		if ack, err = c.command(p.Node, proto.CtrlOpStatus, 0, nil, stuck, p.abort); err != nil {
			return false, err
		}
		c.update(func() { p.Lag = ack.Lag })
		switch {
		case replica.Mode(ack.Mode) != replica.ModeJoining:
			// The node restarted or was taken over: it reports no lag and
			// holds no history, and a membership that needs its acks
			// would wedge the shard.
			return false, fmt.Errorf("ctrlplane: join collapsed: node %d is %s, not joining", p.Node, replica.Mode(ack.Mode))
		case ack.Lag < best:
			best, stuck = ack.Lag, time.Now().Add(c.cfg.CatchupTimeout)
		case time.Now().After(stuck):
			return false, fmt.Errorf("ctrlplane: catch-up stuck (lag %d for %v)", ack.Lag, c.cfg.CatchupTimeout)
		}
	}

	// Promote: enter the membership (version bump fences stale snapshots)
	// and tell every replica before the joiner syncs — its sync-phase pulls
	// and the replication that follows would be refused by a peer that does
	// not know it. Then one ordinary §6.3 sync-phase converges the
	// in-flight tail: the shard pause is proportional to the tail, not the
	// log.
	c.update(func() { p.State, p.Lag = StateConverging, 0 })
	until := time.Now().Add(c.cfg.ConvergeTimeout)
	if err := topo.AddReplicaToShard(p.Shard, p.Node); err != nil {
		return false, err
	}
	if err := c.publish(p.Node, until, p.abort); err != nil {
		return true, err
	}
	ack, err = c.command(p.Node, proto.CtrlOpPromote, 0, nil, until, p.abort)
	for err == nil && replica.Mode(ack.Mode) != replica.ModeOperational {
		if time.Now().After(until) {
			err = fmt.Errorf("node %d still %s after %v", p.Node, replica.Mode(ack.Mode), c.cfg.ConvergeTimeout)
		} else if !c.poll(p) {
			return true, ErrAborted
		} else {
			ack, err = c.command(p.Node, proto.CtrlOpStatus, 0, nil, until, p.abort)
		}
	}
	if err != nil {
		return true, fmt.Errorf("ctrlplane: promotion sync-phase did not converge: %w", err)
	}
	return true, nil
}

// ---- Replica drain (survey → narrow → drain → flush → stop) ----

// DrainReplica removes one replica from a shard under live traffic: the
// topology drops it first and every replica is told (clients re-resolve
// away from it; Alg. 1 guarantees survivors hold everything acked), then
// the node rejects new appends while its pending orders flush, and is
// stopped once they have (or DrainTimeout expires). A narrowing that
// cannot be published is undone and the plan ends RolledBack. Pass node 0
// to drain the highest-id replica. Blocks until the plan is terminal.
func (c *Controller) DrainReplica(shard types.ShardID, node types.NodeID) (Plan, error) {
	return c.run(Plan{Kind: KindDrainReplica, Shard: shard, Node: node}, func(p *Plan) (PlanState, error) {
		topo := c.cl.Topology()
		if node == 0 {
			sh, err := topo.Shard(shard)
			if err != nil {
				return StateFailed, err
			}
			node = slices.Max(sh.Replicas)
			c.update(func() { p.Node = node })
		}
		until := time.Now().Add(c.cfg.DrainTimeout)
		if _, err := c.survey(until, p.abort); err != nil {
			return StateFailed, err
		}
		if err := topo.RemoveReplicaFromShard(shard, node); err != nil {
			return StateFailed, err
		}
		if err := c.publish(node, until, p.abort); err != nil {
			if topo.AddReplicaToShard(shard, node) == nil {
				_ = c.publish(0, time.Now().Add(c.cfg.DrainTimeout), nil) // best effort, as in AddReplicaFrom
			}
			return StateRolledBack, err
		}

		// From here the node is out of the membership and acked data is safe
		// on the survivors: an unreachable node, the timeout and an abort
		// all end the flush early, and the node is stopped regardless.
		c.update(func() { p.State = StateCutover })
		ack, err := c.command(node, proto.CtrlOpDrain, 0, nil, until, p.abort)
		for err == nil && replica.Mode(ack.Mode) == replica.ModeDraining && ack.Lag > 0 && c.poll(p) {
			c.update(func() { p.Lag = ack.Lag })
			ack, err = c.command(node, proto.CtrlOpStatus, 0, nil, until, p.abort)
		}
		if err := c.cl.RemoveReplicaNode(node); err != nil {
			return StateFailed, err
		}
		return StateDone, nil
	})
}

// ---- Shard split / merge ----

// SplitShard adds a fresh shard to a leaf color under live traffic. No
// record migration is needed: reads and subscribes consult every shard of
// a color, so the new shard simply starts absorbing new appends — the
// FlexLog analogue of splitting a partition. Blocks until terminal.
func (c *Controller) SplitShard(leaf types.ColorID) (Plan, error) {
	return c.run(Plan{Kind: KindSplitShard, Color: leaf}, func(p *Plan) (PlanState, error) {
		c.update(func() { p.State = StateCutover })
		return c.addShard(p, leaf)
	})
}

// addShard attaches a shard to leaf as the cutover of a split or a region
// add, and publishes the grown layout.
func (c *Controller) addShard(p *Plan, leaf types.ColorID) (PlanState, error) {
	id, err := c.cl.AddShard(leaf)
	if err != nil {
		return StateFailed, err
	}
	c.update(func() { p.Target = id })
	if err := c.publish(0, time.Now().Add(c.cfg.ConvergeTimeout), p.abort); err != nil {
		return StateFailed, err
	}
	return StateDone, nil
}

// MergeShard folds shard src into dst (same leaf): src replicas drain
// (rejecting new appends, flushing pending orders), their committed
// records are migrated into every dst replica at their authoritative SNs
// (idempotent — the SN space is per color, assigned once), then src leaves
// the topology and its replicas stop. Reads of migrated records are served
// by dst from then on. The migration runs on in-process replica handles,
// so a deployment of separate processes gets ErrStaticDeployment. Blocks
// until terminal.
func (c *Controller) MergeShard(src, dst types.ShardID) (Plan, error) {
	return c.run(Plan{Kind: KindMergeShard, Shard: src, Target: dst}, func(p *Plan) (PlanState, error) {
		topo := c.cl.Topology()
		srcSh, err := topo.Shard(src)
		if err != nil {
			return StateFailed, err
		}
		dstSh, err := topo.Shard(dst)
		if err != nil {
			return StateFailed, err
		}
		if src == dst || srcSh.Leaf != dstSh.Leaf {
			return StateFailed, fmt.Errorf("ctrlplane: merge requires distinct shards of one leaf (src leaf %d, dst leaf %d)", srcSh.Leaf, dstSh.Leaf)
		}
		donor := c.cl.Replica(srcSh.Replicas[0])
		var dstReps []*replica.Replica
		for _, id := range dstSh.Replicas {
			dstReps = append(dstReps, c.cl.Replica(id))
		}
		if donor == nil || slices.Contains(dstReps, nil) {
			return StateFailed, fmt.Errorf("ctrlplane: merge migrates through in-process replica handles: %w", ErrStaticDeployment)
		}
		until := time.Now().Add(c.cfg.DrainTimeout)
		if _, err := c.survey(until, p.abort); err != nil {
			return StateFailed, err
		}

		// Quiesce src: every replica drains, so no new appends land there
		// while we migrate. Src stays in the topology — its records remain
		// readable throughout. The drain op doubles as the poll (it is
		// idempotent and its ack carries the pending orders); a flush that
		// outlasts DrainTimeout is cut short: what is still pending there
		// was never acked.
		c.update(func() { p.State = StateCutover })
		for pending := uint64(1); pending > 0 && time.Now().Before(until); {
			pending = 0
			for _, id := range srcSh.Replicas {
				ack, err := c.command(id, proto.CtrlOpDrain, 0, nil, until, p.abort)
				if err != nil {
					return StateFailed, err
				}
				pending += ack.Lag
			}
			c.update(func() { p.Lag = pending })
			if pending > 0 && !c.poll(p) {
				return StateFailed, ErrAborted
			}
		}

		// Migrate: pull every committed src record into every dst replica.
		if err := migrateRecords(donor, dstReps); err != nil {
			return StateFailed, err
		}

		// Cut src out of the layout (version bump → clients re-resolve),
		// tell the replicas, then stop its processes.
		if err := topo.RemoveShard(src); err != nil {
			return StateFailed, err
		}
		if err := c.publish(0, time.Now().Add(c.cfg.ConvergeTimeout), p.abort); err != nil {
			return StateFailed, err
		}
		for _, id := range srcSh.Replicas {
			if err := c.cl.RemoveReplicaNode(id); err != nil {
				return StateFailed, err
			}
		}
		return StateDone, nil
	})
}

// migrateRecords copies every committed record the donor holds into every
// destination replica at its authoritative SN, in the replicas' own
// budgeted catch-up rounds (replica/catchup.go). The cursor is the last SN
// shipped per color, not a destination frontier: a merge destination
// already holds records of the same colors above the donor's, interleaved
// with them. Ingestion is idempotent, so a partially-failed migration can
// simply be re-run.
func migrateRecords(donor *replica.Replica, dsts []*replica.Replica) error {
	shipped := make(map[types.ColorID]types.SN)
	for {
		round, err := donor.ServeCatchup(shipped, 0)
		if err != nil {
			return fmt.Errorf("ctrlplane: scanning merge donor: %w", err)
		}
		for _, d := range dsts {
			d.IngestCatchup(round.Records)
		}
		for color, recs := range round.Records {
			shipped[color] = recs[len(recs)-1].SN
		}
		if !round.More {
			return nil
		}
	}
}

// ---- Sequencer-tree growth ----

// AddRegion grows the ordering tree with a new colored region under
// parent, with one shard attached so the color is immediately appendable.
// Blocks until terminal.
func (c *Controller) AddRegion(color, parent types.ColorID) (Plan, error) {
	return c.run(Plan{Kind: KindAddRegion, Color: color, Parent: parent}, func(p *Plan) (PlanState, error) {
		c.update(func() { p.State = StateCutover })
		if err := c.cl.AddRegion(color, parent); err != nil {
			return StateFailed, err
		}
		return c.addShard(p, color)
	})
}
