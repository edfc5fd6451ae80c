package ctrlplane

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/topology"
	"flexlog/internal/types"
)

// The autoscaler's caps and pace (DESIGN.md §15.4): it splits a leaf
// into at most maxShardsPerLeaf shards, widens a shard to at most
// maxReplicasPerShard replicas, and acts (or advises) at most once per
// cooldown, so the previous reconfiguration absorbs load before the
// signal is re-read.
const (
	maxShardsPerLeaf    = 4
	maxReplicasPerShard = 5
	cooldown            = 30 * time.Second
)

// Policy is the declarative autoscaling contract (DESIGN.md §15.4): the
// threshold the autoscaler compares against the observability registry,
// and whether it acts on a breach.
type Policy struct {
	// MaxPendingOrders: when any replica's un-flushed order backlog
	// (flexlog_replica_pending_orders) exceeds it, the owning shard is
	// write-saturated — split its leaf, or add a replica when the leaf is
	// at its shard cap. 0 disables the trigger.
	MaxPendingOrders float64
	// Advisory suppresses execution: breaches are recorded as Advice (and
	// in flexlog_ctrl_autoscale_actions_total) but no plan is issued.
	Advisory bool
}

// Advice is one autoscaler conclusion: the action a threshold breach
// calls for, whether or not it was executed.
type Advice struct {
	Time   time.Time
	Kind   PlanKind
	Shard  types.ShardID
	Leaf   types.ColorID
	Reason string
	// Executed is false in advisory mode or when the issued plan failed.
	Executed bool
}

// Autoscaler polls the observability registry against a Policy and issues
// reconfiguration plans through a Controller. One evaluation produces at
// most one action — reconfigurations are deliberately serialized so each
// can settle before the next measurement.
type Autoscaler struct {
	ctrl   *Controller
	reg    *obs.Registry
	policy Policy
	every  time.Duration

	mu     sync.Mutex
	last   time.Time // last action or advice (cooldown anchor)
	advice []Advice
}

// NewAutoscaler builds an autoscaler over the registry the cluster's
// replicas publish into. interval 0 polls every second.
func NewAutoscaler(ctrl *Controller, reg *obs.Registry, p Policy, interval time.Duration) *Autoscaler {
	if interval <= 0 {
		interval = time.Second
	}
	a := &Autoscaler{ctrl: ctrl, reg: reg, policy: p, every: interval}
	return a
}

// Start begins the polling loop; ctx cancellation ends it.
func (a *Autoscaler) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(a.every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				a.Evaluate()
			}
		}
	}()
}

// Advice returns every conclusion reached so far, oldest first.
func (a *Autoscaler) Advice() []Advice {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Advice, len(a.advice))
	copy(out, a.advice)
	return out
}

// Evaluate runs one policy evaluation immediately (the ticker calls this;
// tests may too). It returns the advice produced, if any.
func (a *Autoscaler) Evaluate() *Advice {
	a.countEval()
	adv := a.evaluate()
	if adv == nil {
		return nil
	}
	a.countAction()
	a.mu.Lock()
	a.advice = append(a.advice, *adv)
	a.mu.Unlock()
	return adv
}

// evaluate measures, thresholds, and (unless cooling down) advises or
// executes at most one action.
func (a *Autoscaler) evaluate() *Advice {
	topo := a.ctrl.Cluster().Topology()

	// Write pressure: the hottest replica's order backlog, attributed to
	// its shard through the node label.
	if a.policy.MaxPendingOrders > 0 {
		node, v := hottestNode(a.reg.Samples("flexlog_replica_pending_orders"))
		if v > a.policy.MaxPendingOrders {
			if sh, ok := topo.ShardOfReplica(node); ok {
				if adv, ok := a.writeAction(sh); ok {
					return a.act(adv, "pending orders "+strconv.FormatFloat(v, 'f', 0, 64)+
						" > "+strconv.FormatFloat(a.policy.MaxPendingOrders, 'f', 0, 64))
				}
			}
		}
	}
	return nil
}

// writeAction maps a write-saturated shard to an action under the caps:
// split the leaf while below the shard cap (new shards absorb new
// appends), otherwise widen the shard itself while below the replica cap.
// At both caps there is nothing to do.
func (a *Autoscaler) writeAction(sh topology.ShardInfo) (Advice, bool) {
	topo := a.ctrl.Cluster().Topology()
	switch {
	case len(topo.ShardsInRegion(sh.Leaf)) < maxShardsPerLeaf:
		return Advice{Kind: KindSplitShard, Shard: sh.ID, Leaf: sh.Leaf}, true
	case len(sh.Replicas) < maxReplicasPerShard:
		return Advice{Kind: KindAddReplica, Shard: sh.ID, Leaf: sh.Leaf}, true
	}
	return Advice{}, false
}

// act finalizes an advice: stamp it, honor cooldown and advisory mode,
// execute otherwise.
func (a *Autoscaler) act(adv Advice, reason string) *Advice {
	adv.Time = time.Now()
	adv.Reason = reason
	a.mu.Lock()
	cooling := time.Since(a.last) < cooldown && !a.last.IsZero()
	if !cooling {
		a.last = time.Now()
	}
	a.mu.Unlock()
	if cooling {
		return nil // re-measure after the previous action settles
	}
	if a.policy.Advisory {
		return &adv
	}
	var err error
	switch adv.Kind {
	case KindSplitShard:
		_, err = a.ctrl.SplitShard(adv.Leaf)
	case KindAddReplica:
		_, err = a.ctrl.AddReplica(adv.Shard)
	}
	adv.Executed = err == nil
	return &adv
}

// hottestNode picks the sample with the largest value and parses its node
// label. Returns node 0 when the family is empty.
func hottestNode(samples []obs.Sample) (types.NodeID, float64) {
	var (
		node types.NodeID
		max  float64
	)
	for _, s := range samples {
		if s.Value > max {
			if id, ok := parseNodeLabel(s.Labels); ok {
				node, max = id, s.Value
			}
		}
	}
	return node, max
}

// parseNodeLabel extracts the node id from a rendered label body like
// `node="12"` (possibly among other pairs).
func parseNodeLabel(labels string) (types.NodeID, bool) {
	const key = `node="`
	i := strings.Index(labels, key)
	if i < 0 {
		return 0, false
	}
	rest := labels[i+len(key):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(rest[:j], 10, 64)
	if err != nil {
		return 0, false
	}
	return types.NodeID(n), true
}

func (a *Autoscaler) countEval() {
	if a.reg != nil {
		a.reg.Counter("flexlog_ctrl_autoscale_evals_total",
			"Autoscaler policy evaluations.", nil).Inc()
	}
}

func (a *Autoscaler) countAction() {
	if a.reg != nil {
		a.reg.Counter("flexlog_ctrl_autoscale_actions_total",
			"Autoscaler threshold breaches that produced advice or a plan.", nil).Inc()
	}
}
