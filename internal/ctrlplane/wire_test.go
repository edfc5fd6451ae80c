package ctrlplane_test

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/ctrlplane"
	"flexlog/internal/deploy"
	"flexlog/internal/proto"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/storage"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// These tests run the controller where its only way to a replica shows:
// over links that lose its messages, against targets that never answer,
// and over a deployment where every node holds its own copy of the
// layout, as flexlog-cli reconfig finds it.

// hooked is a core.Cluster that tells the test the controller's endpoint
// id and every spawned replica as they appear, and lets it rewrite each
// CtrlAck the controller receives (ack).
type hooked struct {
	*core.Cluster
	attached, spawned func(types.NodeID)
	ack               func(from types.NodeID, ack proto.CtrlAck) proto.CtrlAck
}

func (h *hooked) Attach(hd transport.Handler) (transport.Endpoint, error) {
	if h.ack != nil {
		inner := hd
		hd = func(from types.NodeID, msg transport.Message) {
			if ack, ok := msg.(proto.CtrlAck); ok {
				msg = h.ack(from, ack)
			}
			inner(from, msg)
		}
	}
	ep, err := h.Cluster.Attach(hd)
	if err == nil && h.attached != nil {
		h.attached(ep.ID())
	}
	return ep, err
}

func (h *hooked) SpawnReplica(shard types.ShardID) (types.NodeID, error) {
	id, err := h.Cluster.SpawnReplica(shard)
	if err == nil && h.spawned != nil {
		h.spawned(id)
	}
	return id, err
}

// whenPlan calls act once, with the controller's first plan, as soon as
// that plan reaches state; the returned function ends the watch.
func whenPlan(ctrl *ctrlplane.Controller, state ctrlplane.PlanState, act func(ctrlplane.Plan)) (wait func()) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			if plans := ctrl.Plans(); len(plans) > 0 && plans[0].State == state {
				act(plans[0])
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	return func() { close(stop); <-done }
}

// within fails the test if a plan outlives its bound by a wide margin: a
// hang is the defect these tests exist for.
func within(t *testing.T, bound time.Duration, run func() (ctrlplane.Plan, error)) (ctrlplane.Plan, error) {
	t.Helper()
	start := time.Now()
	plan, err := run()
	if took := time.Since(start); took > bound {
		t.Fatalf("%v took %v, bound %v", &plan, took, bound)
	}
	return plan, err
}

// TestAddReplicaWaitsForAnOperationalDonor: a replica add whose first
// survey finds every member of the shard out of ModeOperational (as
// while another plan's sync-phase runs) surveys again until one is, and
// ends Done. The members read as syncing to the controller until each
// has answered one status request.
func TestAddReplicaWaitsForAnOperationalDonor(t *testing.T) {
	cl := newCluster(t, 1)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, c, types.MasterColor, 20, 1)
	sh := cl.Topology().Snapshot().Shards[0]
	var mu sync.Mutex
	held := map[types.NodeID]bool{}
	h := &hooked{Cluster: cl, ack: func(from types.NodeID, ack proto.CtrlAck) proto.CtrlAck {
		mu.Lock()
		defer mu.Unlock()
		if ack.Op == proto.CtrlOpStatus && slices.Contains(sh.Replicas, from) && len(held) < len(sh.Replicas) {
			held[from] = true
			ack.Mode = uint8(replica.ModeSyncing)
		}
		return ack
	}}
	plan, err := newController(h, nil).AddReplica(sh.ID)
	if err != nil || plan.State != ctrlplane.StateDone {
		t.Fatalf("plan = %v, err = %v; want done", &plan, err)
	}
	if len(held) != len(sh.Replicas) {
		t.Fatalf("held %d of %d members through the first survey", len(held), len(sh.Replicas))
	}
	if got, err := cl.Topology().Shard(sh.ID); err != nil || !slices.Contains(got.Replicas, plan.Node) {
		t.Fatalf("shard after the add = %v, %v; want node %d in it", got.Replicas, err, plan.Node)
	}
}

// TestPlansSurviveLossyControlLinks: with every link of the controller
// dropping, duplicating and reordering messages, an add and a drain still
// reach Done — each control op is retransmitted until acknowledged and is
// idempotent at the replica.
func TestPlansSurviveLossyControlLinks(t *testing.T) {
	cl := newCluster(t, 1)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, c, types.MasterColor, 200, 1)
	net := cl.Network()
	net.SetFaultSeed(7)
	ctrl := newController(&hooked{Cluster: cl, attached: func(id types.NodeID) {
		net.SetNodeFaults(id, transport.FaultModel{DropProb: 0.3, DupProb: 0.2, ReorderProb: 0.2})
	}}, nil)
	sh := cl.Topology().Snapshot().Shards[0]

	plan, err := ctrl.AddReplica(sh.ID)
	if err != nil || plan.State != ctrlplane.StateDone {
		t.Fatalf("add over lossy links: %v, %v", &plan, err)
	}
	sameRecords(t, "joined replica", scanLog(t, cl, plan.Node), scanLog(t, cl, plan.Donor))
	if plan, err = ctrl.DrainReplica(sh.ID, 0); err != nil || plan.State != ctrlplane.StateDone {
		t.Fatalf("drain over lossy links: %v, %v", &plan, err)
	}
	if st := net.FaultStats(); st.Drops == 0 || st.Dups == 0 {
		t.Fatalf("the controller's links injected no faults: %+v", st)
	}
	appendN(t, c, types.MasterColor, 10, 1)
}

// TestPlansEndWhenTheTargetNeverAnswers: an unreachable joiner ends the
// add RolledBack (the spawned node removed, the membership untouched), an
// unreachable leaver ends the drain Failed before anything changed — each
// within its timeout, not never.
func TestPlansEndWhenTheTargetNeverAnswers(t *testing.T) {
	cl := newCluster(t, 1)
	net := cl.Network()
	sh := cl.Topology().Snapshot().Shards[0]
	unchanged := func(what string) {
		t.Helper()
		if now, _ := cl.Topology().Shard(sh.ID); !slices.Equal(now.Replicas, sh.Replicas) {
			t.Fatalf("membership after %s = %v, want %v", what, now.Replicas, sh.Replicas)
		}
	}
	isolateSpawned := &hooked{Cluster: cl, spawned: net.Isolate}
	cfg := ctrlplane.Config{
		PollInterval:   time.Millisecond,
		CatchupTimeout: 200 * time.Millisecond,
		DrainTimeout:   200 * time.Millisecond,
	}

	plan, err := within(t, 5*time.Second, func() (ctrlplane.Plan, error) {
		return ctrlplane.New(isolateSpawned, cfg).AddReplica(sh.ID)
	})
	if err == nil || plan.State != ctrlplane.StateRolledBack || cl.Replica(plan.Node) != nil {
		t.Fatalf("add of an unreachable joiner: %v, %v", &plan, err)
	}
	unchanged("the rolled-back add")

	leaver := sh.Replicas[2]
	net.Isolate(leaver)
	plan, err = within(t, 5*time.Second, func() (ctrlplane.Plan, error) {
		return ctrlplane.New(cl, cfg).DrainReplica(sh.ID, leaver)
	})
	if err == nil || plan.State != ctrlplane.StateFailed || cl.Replica(leaver) == nil {
		t.Fatalf("drain of an unreachable leaver: %v, %v", &plan, err)
	}
	unchanged("the failed drain")
}

// deployment is the example manifest run the way flexlog-server runs it —
// every node on its own copy of the layout — but on an in-process network:
// shard 1 = replicas 1, 2, 3 under sequencers 900-902, node 4 a running
// spare, node 5 a second spare that is declared and never started.
type deployment struct {
	net      *transport.Network
	replicas map[types.NodeID]*replica.Replica
	topos    map[types.NodeID]*topology.Topology // each replica's own
	static   *ctrlplane.Static
	client   *core.Client
}

func newDeployment(t *testing.T) *deployment {
	t.Helper()
	m := deploy.Example()
	m.Nodes[5] = "127.0.0.1:7105"
	m.Spares = append(m.Spares, deploy.SpareSpec{ID: 5, Shard: 1})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	layout := func() *topology.Topology {
		topo, err := m.Topology()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	d := &deployment{
		net:      transport.NewNetwork(transport.ZeroLink()),
		replicas: make(map[types.NodeID]*replica.Replica),
		topos:    make(map[types.NodeID]*topology.Topology),
	}
	t.Cleanup(d.net.Shutdown)
	tc := core.TestClusterConfig()
	for _, id := range []types.NodeID{900, 901, 902} {
		s, err := seq.New(deploy.SequencerConfig(tc.Profile, m.RoleOf(id), layout(), m.Tenants), d.net)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
	}
	for _, id := range []types.NodeID{1, 2, 3, 4} {
		d.topos[id] = layout()
		r, err := replica.New(deploy.ReplicaConfig(tc.Profile, m.RoleOf(id), d.topos[id], storage.TestConfig(), m.Tenants), d.net)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Stop(); r.Store().Close() })
		d.replicas[id] = r
	}
	d.static = &ctrlplane.Static{
		Topo:   layout(),
		Dial:   func(h transport.Handler) (transport.Endpoint, error) { return d.net.Register(501, h) },
		Spares: map[types.ShardID]types.NodeID{1: 4},
	}
	var err error
	if d.client, err = core.NewClient(core.ClientConfig{FID: 1, ID: 500, Topo: layout(), Timeout: 5 * time.Second, RetryInterval: tc.Profile.ReplicaRetry}, d.net); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.client.Close() })
	return d
}

// members fails unless every running node, and the controller, agree
// that shard 1 is want.
func (d *deployment) members(t *testing.T, when string, want ...types.NodeID) {
	t.Helper()
	d.topos[0] = d.static.Topo
	defer delete(d.topos, 0)
	for id, topo := range d.topos {
		sh, err := topo.Shard(1)
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Sorted(slices.Values(sh.Replicas)); !slices.Equal(got, want) {
			t.Fatalf("%s: node %d (0 = the controller) has shard 1 = %v, want %v", when, id, got, want)
		}
	}
}

// TestStaticDeploymentAddAndRemove runs the plans flexlog-cli reconfig
// add-replica / remove-replica run, over a deployment whose nodes have
// moved past the manifest's layout version and which declares a spare
// nobody started: the publication must be stamped above every node's
// version (or it is fenced as stale) and must not wait on the idle spare.
func TestStaticDeploymentAddAndRemove(t *testing.T) {
	d := newDeployment(t)
	appendN(t, d.client, types.MasterColor, 100, 1)
	for _, topo := range d.topos {
		topo.RaiseVersion(40) // as earlier reconfigurations the manifest never saw
	}
	ctrl := newController(d.static, nil)
	defer ctrl.Close()

	plan, err := ctrl.AddReplica(1)
	if err != nil || plan.State != ctrlplane.StateDone || plan.Node != 4 {
		t.Fatalf("add: %v, %v", &plan, err)
	}
	d.members(t, "after the add", 1, 2, 3, 4)
	if v := d.topos[1].Version(); v <= 40 {
		t.Fatalf("published layout has version %d, not above the nodes' 40", v)
	}
	donor, err := d.replicas[plan.Donor].Store().Scan(types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := d.replicas[4].Store().Scan(types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "joined spare", joined, donor)

	plan, err = ctrl.DrainReplica(1, 3)
	if err != nil || plan.State != ctrlplane.StateDone {
		t.Fatalf("remove: %v, %v", &plan, err)
	}
	d.members(t, "after the remove", 1, 2, 4)
	if mode := d.replicas[3].Mode(); mode != replica.ModeDraining {
		t.Fatalf("removed node is %s, want draining (the operator stops it)", mode)
	}

	// What a static deployment cannot do says so, typed.
	if _, err := ctrl.SplitShard(types.MasterColor); !errors.Is(err, ctrlplane.ErrStaticDeployment) {
		t.Fatalf("split on a static deployment: %v", err)
	}
	if _, err := ctrl.AddReplica(1); err == nil {
		t.Fatal("a second add took the spare that is already a member")
	}
}

// TestStaticDeploymentCollapsedJoin: a spare that leaves ModeJoining
// behind the controller's back (restarted, or taken over by an operator —
// either way it reports lag 0 and holds no history) must not enter the
// membership: the shard would wait on its acks.
func TestStaticDeploymentCollapsedJoin(t *testing.T) {
	d := newDeployment(t)
	appendN(t, d.client, types.MasterColor, 50, 1)
	d.net.Partition(1, 4) // the catch-up from donor 1 cannot start

	ctrl := ctrlplane.New(d.static, ctrlplane.Config{PollInterval: time.Millisecond, CatchupTimeout: 10 * time.Second})
	defer ctrl.Close()
	stop := whenPlan(ctrl, ctrlplane.StateCatchingUp, func(ctrlplane.Plan) {
		for d.replicas[4].Mode() != replica.ModeJoining {
			time.Sleep(100 * time.Microsecond)
		}
		d.replicas[4].Drain()
	})
	plan, err := within(t, 5*time.Second, func() (ctrlplane.Plan, error) { return ctrl.AddReplica(1) })
	stop()
	if err == nil || plan.State != ctrlplane.StateRolledBack {
		t.Fatalf("add with a collapsed join: %v, %v", &plan, err)
	}
	d.members(t, "after the collapsed join", 1, 2, 3)
}
