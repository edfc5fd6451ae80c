// Package ctrlplane is FlexLog's elastic reconfiguration control plane
// (DESIGN.md §15): online topology mutation — replica add with background
// catch-up, replica drain with cutover, shard split and merge, sequencer-
// tree growth — under live traffic, plus the autoscaler that issues such
// plans from declarative thresholds over the observability registry.
//
// Every mutation runs as a Plan: a small state machine
// (Pending → CatchingUp → Converging → Cutover → Done, with Failed and
// RolledBack exits) whose transitions are the protocol steps described in
// DESIGN.md §15. Correctness rests on three rules, enforced here and in
// the data plane:
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
	"sync"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/replica"
	"flexlog/internal/topology"
	"flexlog/internal/types"
)

// Cluster is the node-lifecycle surface the controller drives. core.Cluster
// implements it; tests may substitute fakes.
type Cluster interface {
	// Topology returns the shared layout the controller mutates.
	Topology() *topology.Topology
	// SpawnReplica creates a replica process for a shard without adding it
	// to the shard's membership.
	SpawnReplica(shard types.ShardID) (types.NodeID, error)
	// RemoveReplicaNode stops a replica process and releases its resources.
	RemoveReplicaNode(id types.NodeID) error
	// AddShard attaches a fresh shard (with its replicas) to a leaf color.
	AddShard(leaf types.ColorID) (types.ShardID, error)
	// AddRegion declares a color and spawns its sequencer group.
	AddRegion(color, parent types.ColorID) error
	// Replica returns a live replica handle by node id (nil if unknown).
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

// String returns the CLI-facing kind label (e.g. "add-replica").
func (k PlanKind) String() string {
	switch k {
	case KindAddReplica:
		return "add-replica"
	case KindDrainReplica:
		return "drain-replica"
	case KindSplitShard:
		return "split-shard"
	case KindMergeShard:
		return "merge-shard"
	case KindAddRegion:
		return "add-region"
	default:
		return "unknown"
	}
}

// PlanState is a plan's position in the reconfiguration state machine.
type PlanState int

// Plan states. Terminal states are StateDone, StateFailed, StateRolledBack.
const (
	StatePending    PlanState = iota
	StateCatchingUp           // joiner pulling history from its donor
	StateConverging           // promoted joiner running the sync-phase tail
	StateCutover              // membership changed; flushing / migrating
	StateDone
	StateFailed
	StateRolledBack
)

// String returns the state label shown in /debug/topology plan history.
func (s PlanState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateCatchingUp:
		return "catching-up"
	case StateConverging:
		return "converging"
	case StateCutover:
		return "cutover"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateRolledBack:
		return "rolled-back"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state machine has exited.
func (s PlanState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateRolledBack
}

// Plan is one reconfiguration operation and its progress. Fields are
// snapshots — read them through Controller.Plans or Controller.Plan.
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
	Err    string // failure cause in terminal Failed/RolledBack states
	Start  time.Time
	End    time.Time // zero until terminal

	abort chan struct{}
}

// String renders one plan-history line: id, kind, the ids it touched,
// its state, and the failure cause if it exited Failed/RolledBack.
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
	if p.Err != "" {
		s += fmt.Sprintf(" err=%q", p.Err)
	}
	return s
}

// Config parameterizes a Controller.
type Config struct {
	// PollInterval is the progress-polling cadence (catch-up lag, drain
	// flush, sync convergence); 0 uses 2ms.
	PollInterval time.Duration
	// PromoteLag is the catch-up lag (records behind the donor) at or
	// below which a joiner is promoted; the promotion sync-phase converges
	// the remainder. 0 uses 256.
	PromoteLag uint64
	// CatchupTimeout bounds StateCatchingUp: a joiner that cannot reach
	// PromoteLag within it is rolled back (stopped and removed). 0 uses 30s.
	CatchupTimeout time.Duration
	// DrainTimeout bounds the pending-order flush of a drain; on expiry the
	// node is removed anyway (acked data is committed on the survivors).
	// 0 uses 10s.
	DrainTimeout time.Duration
	// ConvergeTimeout bounds the promotion sync-phase. 0 uses 30s.
	ConvergeTimeout time.Duration
	// Obs, when set, publishes the flexlog_ctrl_* metric families.
	Obs *obs.Registry
}

// Controller owns reconfiguration plans for one cluster. All methods are
// safe for concurrent use; each blocking operation drives its own plan.
type Controller struct {
	cl  Cluster
	cfg Config

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
	c.initObs()
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

// Plan returns a snapshot of one plan by id.
func (c *Controller) Plan(id uint64) (Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.plans {
		if p.ID == id {
			return *p, true
		}
	}
	return Plan{}, false
}

// Abort cancels an in-flight plan: the driving goroutine observes the
// abort at its next poll tick and rolls back what it can (a joining
// replica is stopped and removed; later stages finish their step first).
// The operator surface for a stuck plan — see the OPERATIONS.md runbook.
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

// newPlan registers a plan in StatePending.
func (c *Controller) newPlan(kind PlanKind) *Plan {
	c.mu.Lock()
	c.nextID++
	p := &Plan{ID: c.nextID, Kind: kind, State: StatePending, Start: time.Now(), abort: make(chan struct{})}
	c.plans = append(c.plans, p)
	c.mu.Unlock()
	c.countStart(kind)
	return p
}

// setState advances a plan's visible state under the controller lock.
func (c *Controller) setState(p *Plan, s PlanState) {
	c.mu.Lock()
	p.State = s
	if s.Terminal() {
		p.End = time.Now()
	}
	c.mu.Unlock()
	if s == StateDone {
		c.countDone()
	}
}

// fail moves a plan to a terminal failure state with its cause.
func (c *Controller) fail(p *Plan, state PlanState, err error) error {
	c.mu.Lock()
	p.State = state
	p.Err = err.Error()
	p.End = time.Now()
	c.mu.Unlock()
	c.countFailed()
	return err
}

// aborted reports whether the plan was cancelled.
func (p *Plan) aborted() bool {
	select {
	case <-p.abort:
		return true
	default:
		return false
	}
}

// poll waits one tick, reporting false when the plan was aborted.
func (c *Controller) poll(p *Plan) bool {
	time.Sleep(c.cfg.PollInterval)
	return !p.aborted()
}

// ---- Replica add (spawn → catch-up → promote → converge) ----

// AddReplica grows a shard by one replica under live traffic: spawn the
// node outside the topology, background catch-up from a donor until the
// lag is within PromoteLag, then add it to the membership and converge the
// tail with a sync-phase. Blocks until the plan is terminal.
func (c *Controller) AddReplica(shard types.ShardID) (Plan, error) {
	p := c.newPlan(KindAddReplica)
	p.Shard = shard
	topo := c.cl.Topology()
	sh, err := topo.Shard(shard)
	if err != nil {
		return *p, c.fail(p, StateFailed, err)
	}
	donor, ok := c.pickDonor(sh.Replicas)
	if !ok {
		return *p, c.fail(p, StateFailed, fmt.Errorf("ctrlplane: shard %d has no operational donor", shard))
	}
	p.Donor = donor
	id, err := c.cl.SpawnReplica(shard)
	if err != nil {
		return *p, c.fail(p, StateFailed, err)
	}
	p.Node = id
	rep := c.cl.Replica(id)
	if rep == nil {
		return *p, c.fail(p, StateFailed, fmt.Errorf("ctrlplane: spawned replica %d not found", id))
	}

	// Catch-up: the joiner pulls history in bounded rounds while the shard
	// keeps serving. Stuck transfers roll back — the joiner never entered
	// the topology, so rollback is just stopping the process.
	c.setState(p, StateCatchingUp)
	rep.StartJoin(donor)
	deadline := time.Now().Add(c.cfg.CatchupTimeout)
	for rep.JoinLag() > c.cfg.PromoteLag {
		if time.Now().After(deadline) {
			_ = c.cl.RemoveReplicaNode(id)
			return *p, c.fail(p, StateRolledBack,
				fmt.Errorf("ctrlplane: catch-up stuck (lag %d after %v)", rep.JoinLag(), c.cfg.CatchupTimeout))
		}
		if !c.poll(p) {
			_ = c.cl.RemoveReplicaNode(id)
			return *p, c.fail(p, StateRolledBack, ErrAborted)
		}
	}

	// Promote: enter the membership (version bump fences stale snapshots),
	// then one ordinary §6.3 sync-phase converges the in-flight tail. The
	// shard pause is proportional to the tail, not the log.
	c.setState(p, StateConverging)
	if err := topo.AddReplicaToShard(shard, id); err != nil {
		_ = c.cl.RemoveReplicaNode(id)
		return *p, c.fail(p, StateRolledBack, err)
	}
	rep.Promote()
	deadline = time.Now().Add(c.cfg.ConvergeTimeout)
	for rep.Mode() != replica.ModeOperational {
		if time.Now().After(deadline) {
			return *p, c.fail(p, StateFailed,
				fmt.Errorf("ctrlplane: promotion sync-phase did not converge within %v", c.cfg.ConvergeTimeout))
		}
		if !c.poll(p) {
			return *p, c.fail(p, StateFailed, ErrAborted)
		}
	}
	c.setState(p, StateDone)
	return *p, nil
}

// pickDonor chooses the first operational replica as catch-up donor.
func (c *Controller) pickDonor(ids []types.NodeID) (types.NodeID, bool) {
	for _, id := range ids {
		if r := c.cl.Replica(id); r != nil && r.Mode() == replica.ModeOperational {
			return id, true
		}
	}
	return 0, false
}

// ---- Replica drain (membership removal → flush → stop) ----

// DrainReplica removes one replica from a shard under live traffic: the
// topology drops it first (clients re-resolve away from it; Alg. 1
// guarantees survivors hold everything acked), then the node rejects new
// appends while its pending orders flush, and is stopped once they have
// (or DrainTimeout expires). Pass node 0 to drain the highest-id replica.
// Blocks until the plan is terminal.
func (c *Controller) DrainReplica(shard types.ShardID, node types.NodeID) (Plan, error) {
	p := c.newPlan(KindDrainReplica)
	p.Shard = shard
	topo := c.cl.Topology()
	if node == 0 {
		sh, err := topo.Shard(shard)
		if err != nil {
			return *p, c.fail(p, StateFailed, err)
		}
		for _, id := range sh.Replicas {
			if id > node {
				node = id
			}
		}
	}
	p.Node = node
	rep := c.cl.Replica(node)
	if rep == nil {
		return *p, c.fail(p, StateFailed, fmt.Errorf("ctrlplane: unknown replica %d", node))
	}
	if err := topo.RemoveReplicaFromShard(shard, node); err != nil {
		return *p, c.fail(p, StateFailed, err)
	}

	c.setState(p, StateCutover)
	rep.Drain()
	deadline := time.Now().Add(c.cfg.DrainTimeout)
	for rep.PendingOrders() > 0 && time.Now().Before(deadline) {
		if !c.poll(p) {
			break // abort: stop now; acked data is safe on the survivors
		}
	}
	if err := c.cl.RemoveReplicaNode(node); err != nil {
		return *p, c.fail(p, StateFailed, err)
	}
	c.setState(p, StateDone)
	return *p, nil
}

// ---- Shard split / merge ----

// SplitShard adds a fresh shard to a leaf color under live traffic. No
// record migration is needed: reads and subscribes consult every shard of
// a color, so the new shard simply starts absorbing new appends — the
// FlexLog analogue of splitting a partition. Blocks until terminal.
func (c *Controller) SplitShard(leaf types.ColorID) (Plan, error) {
	p := c.newPlan(KindSplitShard)
	p.Color = leaf
	c.setState(p, StateCutover)
	id, err := c.cl.AddShard(leaf)
	if err != nil {
		return *p, c.fail(p, StateFailed, err)
	}
	c.mu.Lock()
	p.Target = id
	c.mu.Unlock()
	c.setState(p, StateDone)
	return *p, nil
}

// MergeShard folds shard src into dst (same leaf): src replicas drain
// (rejecting new appends, flushing pending orders), their committed
// records are migrated into every dst replica at their authoritative SNs
// (idempotent — the SN space is per color, assigned once), then src leaves
// the topology and its replicas stop. Reads of migrated records are served
// by dst from then on. Blocks until terminal.
func (c *Controller) MergeShard(src, dst types.ShardID) (Plan, error) {
	p := c.newPlan(KindMergeShard)
	p.Shard, p.Target = src, dst
	topo := c.cl.Topology()
	srcSh, err := topo.Shard(src)
	if err != nil {
		return *p, c.fail(p, StateFailed, err)
	}
	dstSh, err := topo.Shard(dst)
	if err != nil {
		return *p, c.fail(p, StateFailed, err)
	}
	if src == dst || srcSh.Leaf != dstSh.Leaf {
		return *p, c.fail(p, StateFailed,
			fmt.Errorf("ctrlplane: merge requires distinct shards of one leaf (src leaf %d, dst leaf %d)", srcSh.Leaf, dstSh.Leaf))
	}

	// Quiesce src: every replica drains, so no new appends land there while
	// we migrate. Src stays in the topology — its records remain readable
	// throughout.
	c.setState(p, StateCutover)
	var srcReps []*replica.Replica
	for _, id := range srcSh.Replicas {
		rep := c.cl.Replica(id)
		if rep == nil {
			return *p, c.fail(p, StateFailed, fmt.Errorf("ctrlplane: unknown replica %d", id))
		}
		srcReps = append(srcReps, rep)
	}
	for _, rep := range srcReps {
		rep.Drain()
	}
	deadline := time.Now().Add(c.cfg.DrainTimeout)
	for pendingTotal(srcReps) > 0 && time.Now().Before(deadline) {
		if !c.poll(p) {
			return *p, c.fail(p, StateFailed, ErrAborted)
		}
	}

	// Migrate: pull every committed src record into every dst replica.
	donor := srcReps[0]
	var dstReps []*replica.Replica
	for _, id := range dstSh.Replicas {
		rep := c.cl.Replica(id)
		if rep == nil {
			return *p, c.fail(p, StateFailed, fmt.Errorf("ctrlplane: unknown replica %d", id))
		}
		dstReps = append(dstReps, rep)
	}
	if err := migrateRecords(donor, dstReps); err != nil {
		return *p, c.fail(p, StateFailed, err)
	}

	// Cut src out of the layout (version bump → clients re-resolve), then
	// stop its processes.
	if err := topo.RemoveShard(src); err != nil {
		return *p, c.fail(p, StateFailed, err)
	}
	for _, id := range srcSh.Replicas {
		if err := c.cl.RemoveReplicaNode(id); err != nil {
			return *p, c.fail(p, StateFailed, err)
		}
	}
	c.setState(p, StateDone)
	return *p, nil
}

// pendingTotal sums the un-flushed pending orders across replicas.
func pendingTotal(reps []*replica.Replica) int {
	total := 0
	for _, r := range reps {
		total += r.PendingOrders()
	}
	return total
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
	p := c.newPlan(KindAddRegion)
	p.Color, p.Parent = color, parent
	c.setState(p, StateCutover)
	if err := c.cl.AddRegion(color, parent); err != nil {
		return *p, c.fail(p, StateFailed, err)
	}
	shard, err := c.cl.AddShard(color)
	if err != nil {
		return *p, c.fail(p, StateFailed, err)
	}
	c.mu.Lock()
	p.Target = shard
	c.mu.Unlock()
	c.setState(p, StateDone)
	return *p, nil
}

// ---- Observability ----

// initObs publishes the flexlog_ctrl_* families (OPERATIONS.md §2.10).
func (c *Controller) initObs() {
	reg := c.cfg.Obs
	if reg == nil {
		return
	}
	reg.GaugeFunc("flexlog_ctrl_plans_active",
		"Reconfiguration plans currently in flight.", nil,
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, p := range c.plans {
				if !p.State.Terminal() {
					n++
				}
			}
			return float64(n)
		})
}

func (c *Controller) countStart(kind PlanKind) {
	if c.cfg.Obs == nil {
		return
	}
	c.cfg.Obs.Counter("flexlog_ctrl_plans_total",
		"Reconfiguration plans started, per kind.",
		obs.Labels{"kind": kind.String()}).Inc()
}

func (c *Controller) countDone() {
	if c.cfg.Obs == nil {
		return
	}
	c.cfg.Obs.Counter("flexlog_ctrl_plans_done_total",
		"Reconfiguration plans completed successfully.", nil).Inc()
}

func (c *Controller) countFailed() {
	if c.cfg.Obs == nil {
		return
	}
	c.cfg.Obs.Counter("flexlog_ctrl_plans_failed_total",
		"Reconfiguration plans that failed or were rolled back.", nil).Inc()
}
