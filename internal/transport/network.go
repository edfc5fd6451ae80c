package transport

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/simclock"
	"flexlog/internal/types"
)

// LinkModel describes the latency of in-process links. The default model is
// calibrated to the paper's testbed: a 10 Gbps datacenter fabric with an
// order-request RTT of ≈110 µs (§9.3), i.e. ≈55 µs one-way per hop.
//
// Delay is pipelined (many messages can be in flight), while ProcCost is
// the serial per-message processing cost at the receiving node — the term
// that bounds a node's message capacity. It is calibrated so a leaf
// sequencer saturates at ≈1.2 M order requests per second, the figure §9.3
// reports, and it is what makes message-heavy protocols (Paxos' quorum
// rounds) pay relative to FlexLog's counter bump (Fig. 4 right).
type LinkModel struct {
	Delay    time.Duration // one-way propagation delay (pipelined)
	ProcCost time.Duration // serial receive-side processing per message
}

// DatacenterLink returns the calibrated 10 Gbps fabric model.
func DatacenterLink() LinkModel {
	return LinkModel{
		Delay:    55 * time.Microsecond,
		ProcCost: 800 * time.Nanosecond, // ≈1.2M msgs/s node capacity
	}
}

// ZeroLink is the latency-free model used by unit tests.
func ZeroLink() LinkModel { return LinkModel{} }

// envelope is one in-flight frame, sender included.
type envelope struct {
	frame     []byte
	deliverAt time.Time
}

// Network is the in-process transport fabric. It carries wire frames, as
// TCP does, and provides registration, per-destination FIFO delivery with
// pipelined delay injection, and fault injection for the recovery and
// chaos tests: partitions and crashed endpoints (clean faults) plus
// per-link message-level fault models (see FaultModel).
type Network struct {
	model LinkModel

	mu       sync.RWMutex
	nodes    map[types.NodeID]*inprocEndpoint
	cut      map[[2]types.NodeID]bool // symmetric partition set
	isolated map[types.NodeID]bool

	faults   faultState  // message-level fault injection (fault.go)
	faultsOn atomic.Bool // fast-path flag: any fault model installed

	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// NewNetwork creates an empty in-process network with the given link model.
func NewNetwork(model LinkModel) *Network {
	return &Network{
		model:    model,
		nodes:    make(map[types.NodeID]*inprocEndpoint),
		cut:      make(map[[2]types.NodeID]bool),
		isolated: make(map[types.NodeID]bool),
		faults:   faultState{seed: 1, links: make(map[[2]types.NodeID]*linkFaults)},
	}
}

// Register attaches a node whose every message runs inline on its single
// delivery goroutine, in arrival order.
func (n *Network) Register(id types.NodeID, h Handler) (Endpoint, error) {
	return n.RegisterWithLanes(id, NewLanes(h, LaneConfig{}, LaneConfig{}))
}

// RegisterWithLanes attaches a node through its dispatcher and starts its
// delivery loop. The loop dequeues in arrival order and offers each
// message to the lanes before running it inline, so a read is handed to
// the shared pool only after every earlier mutation has been handled or
// queued (reads complete late, never early), and a keyed lane keeps the
// per-key order LaneConfig states. The lanes stay the node's: closing the
// endpoint does not close them.
func (n *Network) RegisterWithLanes(id types.NodeID, lanes *Lanes) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[id]; dup {
		return nil, fmt.Errorf("transport: node %v already registered", id)
	}
	for _, l := range []*lane{lanes.read, lanes.write} {
		if l != nil {
			l.procCost = n.model.ProcCost
		}
	}
	ep := &inprocEndpoint{net: n, id: id, lanes: lanes}
	ep.cond = sync.NewCond(&ep.qmu)
	n.nodes[id] = ep
	go ep.deliveryLoop()
	return ep, nil
}

// Deregister removes a node (used when simulating permanent departure).
func (n *Network) Deregister(id types.NodeID) {
	n.mu.Lock()
	ep := n.nodes[id]
	delete(n.nodes, id)
	n.mu.Unlock()
	if ep != nil {
		ep.Close()
	}
}

// Shutdown closes every registered endpoint: delivery loops exit.
// Cluster teardown calls this after stopping the nodes (which close
// their own lanes) — without it every stopped cluster would strand its
// delivery goroutines, which is a real leak for processes that create
// clusters in sequence (benchmarks, chaos soaks, tests).
// Endpoints stay in the registry so per-node delivery counters remain
// readable after shutdown; restarting nodes mid-run uses Deregister.
func (n *Network) Shutdown() {
	n.mu.Lock()
	eps := make([]*inprocEndpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

// Partition cuts the (symmetric) link between a and b.
func (n *Network) Partition(a, b types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[linkKey(a, b)] = true
}

// Heal restores the link between a and b.
func (n *Network) Heal(a, b types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, linkKey(a, b))
}

// Isolate cuts every link of the node (a network partition of one).
func (n *Network) Isolate(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.isolated[id] = true
}

// Rejoin reverses Isolate.
func (n *Network) Rejoin(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.isolated, id)
}

// HealAll removes all partitions and isolations.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = make(map[[2]types.NodeID]bool)
	n.isolated = make(map[types.NodeID]bool)
}

// NodeDelivered returns the per-node count of messages delivered so far.
// The throughput benchmarks use these counts with the link model's
// per-message processing cost to compute each node's modeled busy time.
func (n *Network) NodeDelivered() map[types.NodeID]uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[types.NodeID]uint64, len(n.nodes))
	for id, ep := range n.nodes {
		out[id] = ep.delivered.Load()
	}
	return out
}

// Model returns the network's link model.
func (n *Network) Model() LinkModel { return n.model }

func linkKey(a, b types.NodeID) [2]types.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]types.NodeID{a, b}
}

func (n *Network) reachable(from, to types.NodeID) bool {
	if n.isolated[from] || n.isolated[to] {
		return false
	}
	return !n.cut[linkKey(from, to)]
}

// inprocEndpoint is one node's in-process attachment.
type inprocEndpoint struct {
	net       *Network
	id        types.NodeID
	lanes     *Lanes
	delivered atomic.Uint64
	fd        proto.FrameDecoder // deliveryLoop's alone

	qmu    sync.Mutex
	cond   *sync.Cond
	queue  []envelope
	closed bool
}

func (e *inprocEndpoint) ID() types.NodeID { return e.id }

// Send is a Broadcast to one node.
func (e *inprocEndpoint) Send(to types.NodeID, msg Message) error {
	return e.Broadcast([]types.NodeID{to}, msg)
}

// enqueue queues one frame for the destination through the link's
// partition and fault models: a duplicate is the frame queued twice.
func (e *inprocEndpoint) enqueue(to types.NodeID, frame []byte) error {
	n := e.net
	n.mu.RLock()
	dst, ok := n.nodes[to]
	if !ok {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %v", ErrUnknownNode, to)
	}
	if !n.reachable(e.id, to) {
		n.mu.RUnlock()
		n.dropped.Add(1)
		return ErrPartitioned
	}
	n.mu.RUnlock()

	var fd faultDecision
	if lf := n.faultsFor(e.id, to); lf != nil {
		fd = lf.decide()
		if fd.drop {
			// A lossy-link loss, not a partition: the sender sees success
			// (as with a datagram lost on the wire) and relies on its
			// retry/timeout machinery.
			n.dropped.Add(1)
			n.faults.drops.Add(1)
			return nil
		}
		if fd.dup {
			n.faults.dups.Add(1)
		}
		if fd.reorder {
			n.faults.reorders.Add(1)
		}
		if fd.jitter > 0 {
			n.faults.jittered.Add(1)
		}
	}

	env := envelope{frame: frame}
	var delay time.Duration
	if simclock.Enabled() {
		delay = n.model.Delay
	}
	delay += fd.jitter // jitter applies even without the latency model
	if delay > 0 {
		env.deliverAt = time.Now().Add(delay)
	}
	dst.qmu.Lock()
	if dst.closed {
		dst.qmu.Unlock()
		return ErrClosed
	}
	if fd.reorder && len(dst.queue) > 0 {
		// Overtake the last queued message: this (later-sent) envelope is
		// delivered before it — the FIFO relaxation of FaultModel. Never
		// reorders ahead of messages already handed to the handler, so
		// causality is preserved.
		last := len(dst.queue) - 1
		dst.queue = append(dst.queue, dst.queue[last])
		dst.queue[last] = env
	} else {
		dst.queue = append(dst.queue, env)
	}
	if fd.dup {
		dst.queue = append(dst.queue, env)
	}
	dst.cond.Signal()
	dst.qmu.Unlock()
	return nil
}

// Broadcast encodes msg once, into a pooled buffer copied out at its exact
// size, and queues that frame for every listed node.
func (e *inprocEndpoint) Broadcast(tos []types.NodeID, msg Message) error {
	bp, _ := framePool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	b, err := proto.AppendFrame((*bp)[:0], e.id, msg)
	frame := bytes.Clone(b)
	*bp = b
	putBuf(bp)
	if err != nil {
		return err
	}
	var firstErr error
	for _, to := range tos {
		if err := e.enqueue(to, frame); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (e *inprocEndpoint) Close() error {
	e.qmu.Lock()
	e.closed = true
	e.queue = nil
	e.cond.Broadcast()
	e.qmu.Unlock()
	return nil
}

// deliveryLoop pops frames in arrival order, decodes each (a failure is
// a counted drop), and offers the message to the node's lanes: a lane
// worker then waits out the delivery deadline and pays the processing
// cost, so lane messages overlap. What no lane takes is paid for and
// handled here, serially (deadlines were stamped at send time, so the
// propagation delay is still pipelined).
func (e *inprocEndpoint) deliveryLoop() {
	for {
		e.qmu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if e.closed {
			e.qmu.Unlock()
			return
		}
		env := e.queue[0]
		e.queue[0] = envelope{} // the array keeps no decoded frame alive
		e.queue = e.queue[1:]
		e.qmu.Unlock()

		from, msg, err := e.fd.Decode(env.frame[4:])
		if err != nil {
			e.net.dropped.Add(1)
			continue
		}
		e.net.delivered.Add(1)
		e.delivered.Add(1)
		if e.lanes.dispatch(from, msg, env.deliverAt) {
			continue
		}
		if !env.deliverAt.IsZero() {
			simclock.SpinUntil(env.deliverAt)
			// Serial receive-side processing: unlike the propagation
			// delay this is NOT pipelined — it is the node's CPU. Only
			// modeled when latency injection is on (deliverAt may also be
			// set by fault jitter alone).
			if simclock.Enabled() {
				simclock.Spin(e.net.model.ProcCost)
			}
		}
		e.lanes.handler(from, msg)
	}
}
