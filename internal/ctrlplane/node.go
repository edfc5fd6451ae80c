package ctrlplane

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/replica"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// nodeClient is the controller's one endpoint on the cluster's fabric, and
// the only way it touches a replica: the four control ops of the wire
// (join, promote, drain, status, each answered by a CtrlAck carrying the
// replica's mode, lag and layout version) and topology publication. The
// data-path client is deliberately not used — control operations must work
// against a replica that is joining or draining and therefore rejecting
// data-path traffic.
type nodeClient struct {
	ep     transport.Endpoint
	resend time.Duration

	mu      sync.Mutex
	seq     uint64
	waiting map[uint64]chan proto.CtrlAck // round trips in flight, by Seq
}

// node returns the controller's endpoint, attached on first use: a
// controller that only advises or renders /debug/topology never opens one.
func (c *Controller) node() (*nodeClient, error) {
	c.attach.Do(func() {
		n := &nodeClient{resend: c.cfg.PollInterval, waiting: make(map[uint64]chan proto.CtrlAck)}
		n.ep, c.attachErr = c.cl.Attach(n.deliver)
		c.nc = n
	})
	return c.nc, c.attachErr
}

// Close detaches the controller's endpoint, if it ever attached one; a
// command after Close fails.
func (c *Controller) Close() {
	c.attach.Do(func() { c.attachErr = errors.New("ctrlplane: controller closed") })
	if c.nc != nil && c.nc.ep != nil {
		c.nc.ep.Close()
	}
}

// deliver routes a CtrlAck to the round trip waiting on its Seq. A second
// answer to a retransmitted request finds the slot full or gone and is
// dropped.
func (n *nodeClient) deliver(_ types.NodeID, msg transport.Message) {
	ack, ok := msg.(proto.CtrlAck)
	if !ok {
		return
	}
	n.mu.Lock()
	ch := n.waiting[ack.Seq]
	n.mu.Unlock()
	select {
	case ch <- ack:
	default:
	}
}

// roundTrip sends one control op to node and waits for its CtrlAck,
// retransmitting every resend interval until the deadline: links drop
// messages (a partition, an injected fault, a server answering a fresh CLI
// process over a cached-but-dead reverse connection), every op is
// idempotent at the replica, and answers are matched by Seq. With publish
// set, the layout is (re)sent ahead of the op and only an ack at or above
// its version counts — the node applied it, or already knew a newer one.
func (n *nodeClient) roundTrip(node types.NodeID, op uint8, donor types.NodeID, publish *proto.TopoUpdate, until time.Time) (proto.CtrlAck, error) {
	ch := make(chan proto.CtrlAck, 1)
	n.mu.Lock()
	n.seq++
	req := proto.CtrlReconfig{Seq: n.seq, Op: op, Donor: donor, From: n.ep.ID()}
	n.waiting[req.Seq] = ch
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.waiting, req.Seq)
		n.mu.Unlock()
	}()

	tick := time.NewTicker(n.resend)
	defer tick.Stop()
	deadline := time.NewTimer(time.Until(until))
	defer deadline.Stop()
	if publish != nil {
		publish.From = req.From
	}
	var sendErr error
	behind := ""
	for {
		if publish != nil {
			sendErr = n.ep.Send(node, *publish)
		}
		if err := n.ep.Send(node, req); err != nil {
			sendErr = err
		}
		for waiting := true; waiting; {
			select {
			case ack := <-ch:
				if publish == nil || ack.Version >= publish.Version {
					return ack, nil
				}
				// Answered before the layout arrived (links may reorder),
				// or the node fenced it as stale: wait for the next resend.
				behind = fmt.Sprintf(": still at topology version %d, published %d", ack.Version, publish.Version)
			case <-tick.C:
				waiting = false
			case <-deadline.C:
				if sendErr != nil {
					return proto.CtrlAck{}, fmt.Errorf("ctrlplane: node %d unreachable: %w", node, sendErr)
				}
				return proto.CtrlAck{}, fmt.Errorf("ctrlplane: node %d did not acknowledge in time%s", node, behind)
			}
		}
	}
}

// Command performs one control round trip with a node — proto.CtrlOpJoin
// (naming the donor), CtrlOpPromote, CtrlOpDrain or CtrlOpStatus — waiting
// at most wait for the acknowledgement. Plans are built from these; an
// operator issues one alone to inspect a node or to finish a procedure by
// hand (OPERATIONS.md runbook).
func (c *Controller) Command(node types.NodeID, op uint8, donor types.NodeID, wait time.Duration) (proto.CtrlAck, error) {
	return c.command(node, op, donor, nil, time.Now().Add(wait))
}

// PushTopology sends one node the controller's layout and confirms by a
// status round trip that the node's fencing version reached it.
func (c *Controller) PushTopology(node types.NodeID, wait time.Duration) (proto.CtrlAck, error) {
	upd := topology.SnapshotToWire(c.cl.Topology().Snapshot(), 0)
	return c.command(node, proto.CtrlOpStatus, 0, &upd, time.Now().Add(wait))
}

// command is the round trip every plan step and operator command goes
// through. It keeps the controller's layout version at or above every
// version a node reports: where each process holds its own copy of the
// layout, the controller's (a manifest) may predate earlier
// reconfigurations, and a mutation published below a node's version would
// be fenced as stale. Where nodes share one *topology.Topology there is
// never anything to raise.
func (c *Controller) command(node types.NodeID, op uint8, donor types.NodeID, publish *proto.TopoUpdate, until time.Time) (proto.CtrlAck, error) {
	n, err := c.node()
	if err != nil {
		return proto.CtrlAck{}, err
	}
	ack, err := n.roundTrip(node, op, donor, publish, until)
	if err != nil {
		return ack, err
	}
	c.cl.Topology().RaiseVersion(ack.Version)
	if !ack.OK {
		return ack, fmt.Errorf("ctrlplane: node %d refused control op %d in mode %s", node, op, replica.Mode(ack.Mode))
	}
	return ack, nil
}

// replicasOf lists the replicas of a layout, plus subject when the layout
// does not name it (0 for none).
func replicasOf(snap topology.Snapshot, subject types.NodeID) []types.NodeID {
	var out []types.NodeID
	for _, sh := range snap.Shards {
		out = append(out, sh.Replicas...)
	}
	if subject != 0 && !slices.Contains(out, subject) {
		out = append(out, subject)
	}
	return out
}

// survey asks every replica of the layout for its status before a plan
// changes anything: a plan whose publication could not reach a replica is
// refused while nothing needs undoing, and by command's version rule the
// mutation that follows is newer than every replica's layout.
func (c *Controller) survey(until time.Time) (map[types.NodeID]proto.CtrlAck, error) {
	acks := make(map[types.NodeID]proto.CtrlAck)
	for _, id := range replicasOf(c.cl.Topology().Snapshot(), 0) {
		ack, err := c.command(id, proto.CtrlOpStatus, 0, nil, until)
		if err != nil {
			return nil, err
		}
		acks[id] = ack
	}
	return acks, nil
}

// publish tells the replicas of the layout, plus the node being added or
// removed (subject; 0 for none), what the layout now is, and confirms that
// each reached its version. Replicas sharing the controller's
// *topology.Topology already have: they drop the update as a duplicate and
// the confirmation is immediate.
func (c *Controller) publish(subject types.NodeID, until time.Time) error {
	snap := c.cl.Topology().Snapshot()
	upd := topology.SnapshotToWire(snap, 0)
	for _, id := range replicasOf(snap, subject) {
		if _, err := c.command(id, proto.CtrlOpStatus, 0, &upd, until); err != nil {
			return fmt.Errorf("publishing topology version %d: %w", snap.Version, err)
		}
	}
	return nil
}
