package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/simclock"
	"flexlog/internal/types"
)

// LaneQoS tells a lane's client requests from its protocol messages and
// shares the lane's workers among tenants. Every lane queue is one
// weighted-fair queue (wfq) with one overload rule. Client requests wait in
// per-tenant FIFO queues of at most sharedQueueCap (keyedQueueCap on a
// keyed lane), drained by deficit-round-robin in proportion to Weights; a
// full tenant queue sheds the request (invoking Shed, so the owner can
// answer with a typed rejection) instead of blocking the goroutine that
// delivered it. Protocol
// messages wait in one FIFO that workers serve before any client request:
// they are never counted against that bound, never shed and never block.
// Overload is thus an explicit, attributed signal on client traffic only.
type LaneQoS struct {
	// TenantOf reports a client request's tenant (ok=true); ok=false marks
	// a protocol message (order responses, sync, heartbeats). Nil makes
	// every message of the lane a protocol message.
	TenantOf func(Message) (types.TenantID, bool)
	// Weights maps tenant → scheduling weight (requests served per DRR
	// round). Missing or zero entries default to 1.
	Weights map[types.TenantID]uint32
	// Shed, when set, is called (outside the scheduler lock) for each
	// client request rejected because its tenant queue was full. The lane
	// counts the shed either way; without a callback the request is
	// dropped and the sender discovers it by timeout.
	Shed func(from types.NodeID, msg Message, tenant types.TenantID)
}

// protocolOnly is the TenantOf of a lane that carries no client requests.
func protocolOnly(Message) (types.TenantID, bool) { return types.DefaultTenant, false }

// ---- The queue ----

// laneItem is one classified message in flight to a worker.
type laneItem struct {
	from      types.NodeID
	msg       Message
	deliverAt time.Time
	enq       time.Time // stamped only when the lane has an Observe hook
}

// fifo is a slice-backed FIFO of lane items: items[head:] are pending and
// the prefix is already served.
type fifo struct {
	items []laneItem
	head  int
}

func (q *fifo) depth() int { return len(q.items) - q.head }

// pop removes the head item of a non-empty FIFO. An emptied FIFO rewinds,
// so its backing array is reused.
func (q *fifo) pop() laneItem {
	it := q.items[q.head]
	q.items[q.head] = laneItem{} // release references
	q.head++
	if q.depth() == 0 {
		q.items, q.head = q.items[:0], 0
	}
	return it
}

// tenantQ is one tenant's bounded FIFO inside a wfq.
type tenantQ struct {
	fifo
	weight int
	inRing bool
}

// wfq is a lane queue: one FIFO of protocol messages, served first, and
// per-tenant bounded FIFOs of client requests drained by
// deficit-round-robin (quantum = weight, unit cost per request). Safe for
// many producers and many consumers; all state is guarded by mu, and push
// never waits for a consumer. pop blocks while the queue is empty; after
// close it hands out what is left and then reports false.
type wfq struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capPer   int // per-tenant bound on queued client requests
	weights  map[types.TenantID]uint32
	protocol fifo // protocol messages: unbounded, served before any tenant
	queues   map[types.TenantID]*tenantQ
	ring     []*tenantQ // non-empty tenant queues, round-robin order
	cur      int        // ring index currently being served
	credit   int        // remaining quantum of ring[cur]
	closed   bool
}

func newWFQ(capPer int, weights map[types.TenantID]uint32) *wfq {
	w := &wfq{
		capPer:  capPer,
		weights: weights,
		queues:  make(map[types.TenantID]*tenantQ),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// push queues a protocol message, or a client request under its tenant.
// It reports false (shed) for a client request whose tenant queue already
// holds capPer requests.
func (w *wfq) push(it laneItem, tenant types.TenantID, client bool) bool {
	w.mu.Lock()
	q := &w.protocol
	if client {
		tq := w.queues[tenant]
		if tq == nil {
			tq = &tenantQ{weight: max(1, int(w.weights[tenant]))}
			w.queues[tenant] = tq
		}
		if tq.depth() >= w.capPer {
			w.mu.Unlock()
			return false
		}
		if !tq.inRing {
			tq.inRing = true
			w.ring = append(w.ring, tq)
		}
		q = &tq.fifo
	}
	q.items = append(q.items, it)
	w.mu.Unlock()
	w.cond.Signal()
	return true
}

// pop removes the next item: the oldest protocol message, else the next
// client request in DRR order.
func (w *wfq) pop() (laneItem, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.protocol.depth() > 0 {
			return w.protocol.pop(), true
		}
		if len(w.ring) > 0 {
			if w.cur >= len(w.ring) {
				w.cur = 0
			}
			q := w.ring[w.cur]
			if w.credit <= 0 {
				w.credit = q.weight
			}
			it := q.pop()
			w.credit--
			if q.depth() == 0 {
				q.inRing = false
				w.ring = append(w.ring[:w.cur], w.ring[w.cur+1:]...)
				w.credit = 0
			} else if w.credit == 0 {
				w.cur++
			}
			return it, true
		}
		if w.closed {
			return laneItem{}, false
		}
		w.cond.Wait()
	}
}

func (w *wfq) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
}

// ---- The lane ----

// LaneConfig describes one service lane of a node: inbound messages the
// Key function accepts are handed to a pool of workers instead of running
// inline on the goroutine that delivered them. Each worker models one
// extra core of the receiving node: with latency injection enabled the
// per-message processing cost is paid on the worker, so lane messages
// overlap where the delivery loop would serialize them.
//
// The lane's shape is chosen by its slot in NewLanes, not here. The read
// lane is one shared queue served by every worker: its messages give up
// their delivery order in exchange for concurrency — safe for FlexLog
// reads, whose only ordering obligation is against commits already
// delivered when the read was dequeued. The write lane is one queue per
// worker with a key pinned to one of them (key mod Workers), so messages
// of one key never run concurrently, and each key's client requests of
// one tenant, like its protocol messages, are processed in arrival order.
// A protocol message may overtake a client request of its key (LaneQoS):
// the node must not depend on the order between the two classes.
type LaneConfig struct {
	// Workers is the pool size; 0 disables the lane (its traffic runs
	// inline).
	Workers int
	// Key reports whether the message belongs on the lane and, if so, its
	// shard key (the color for FlexLog mutations; ignored by the shared
	// read lane).
	Key func(Message) (uint64, bool)
	// Observe, when set, is called after each lane message with the time
	// it waited in the queue and the time its handler ran — the lane_wait
	// stage of the observability layer. Must be cheap and thread-safe.
	Observe func(queueWait, service time.Duration)
	// QoS classifies the lane's messages and weights its tenants. A key
	// stays pinned to its worker, and a tenant's requests for one key stay
	// FIFO within that worker's tenant queue. See LaneQoS.
	QoS LaneQoS
}

// LaneStats is a point-in-time snapshot of one lane.
type LaneStats struct {
	Enqueued uint64 // messages handed to the lane
	Dequeued uint64 // messages whose handler finished
	// Depth is the messages in the lane right now: queued, in service, or
	// inside a dispatch call. Only its client requests are bounded — at
	// most sharedQueueCap or keyedQueueCap per tenant queue; protocol
	// messages, Workers in service and the concurrent callers come on
	// top. It is its own counter, not
	// Enqueued - Dequeued: those are two loads, and the traffic that flows
	// between them would read as depth.
	Depth    uint64
	MaxDepth uint64        // high-water mark of Depth
	Busy     time.Duration // summed wall time workers spent per message
	Shed     uint64        // client requests rejected by full tenant queues
	// PerWorker lets the modeled-throughput benchmarks charge each worker
	// for the messages it actually processed (the busiest worker bounds a
	// keyed lane). Nil for a disabled lane.
	PerWorker []uint64
}

// lane is the one worker pool behind both lane shapes: worker i serves
// queues[i mod len(queues)], and a message goes to queues[key mod
// len(queues)], so one queue is the shared shape and one queue per worker
// the keyed shape. A nil *lane is a disabled lane: it takes no message.
type lane struct {
	cfg      LaneConfig
	handler  Handler
	procCost time.Duration // modeled receive cost, set by the in-process Network
	queues   []*wfq
	wg       sync.WaitGroup

	closeMu sync.RWMutex
	closed  bool

	enqueued  atomic.Uint64
	dequeued  atomic.Uint64
	depth     atomic.Int64
	maxDepth  atomic.Int64
	busyNs    atomic.Int64
	shed      atomic.Uint64
	perWorker []atomic.Uint64
}

// The client requests each tenant queue of a lane holds; a request beyond
// it is shed (LaneQoS.Shed). Protocol messages are not bounded.
const (
	sharedQueueCap = 4096 // the shared (read) lane's one queue
	keyedQueueCap  = 1024 // each pinned worker's queue of a keyed lane
)

// newLane starts the worker pool, its tenant queues bounded at queueCap,
// or returns nil for a disabled config.
func newLane(cfg LaneConfig, h Handler, queues, queueCap int) *lane {
	if cfg.Workers <= 0 || cfg.Key == nil {
		return nil
	}
	if cfg.QoS.TenantOf == nil {
		cfg.QoS.TenantOf = protocolOnly
	}
	l := &lane{
		cfg:       cfg,
		handler:   h,
		queues:    make([]*wfq, queues),
		perWorker: make([]atomic.Uint64, cfg.Workers),
	}
	for i := range l.queues {
		l.queues[i] = newWFQ(queueCap, cfg.QoS.Weights)
	}
	l.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go l.worker(i)
	}
	return l
}

// dispatch hands the message to the lane if its Key function accepts it.
// It never waits for a worker: a client request whose tenant queue is
// full is shed instead (it is counted, and the Shed hook turns it into a
// typed rejection). It reports false when the message is not the lane's or
// the lane is closed — the caller then handles it inline (where a stopped
// node's mode check drops it).
func (l *lane) dispatch(from types.NodeID, msg Message, deliverAt time.Time) bool {
	if l == nil {
		return false
	}
	key, ok := l.cfg.Key(msg)
	if !ok {
		return false
	}
	it := laneItem{from: from, msg: msg, deliverAt: deliverAt}
	if l.cfg.Observe != nil {
		it.enq = time.Now()
	}
	tenant, client := l.cfg.QoS.TenantOf(msg)
	l.closeMu.RLock()
	if l.closed {
		l.closeMu.RUnlock()
		return false
	}
	// Counted before the push: a worker may finish the message before
	// push returns, and the depth must never go negative.
	l.enqueued.Add(1)
	depth := l.depth.Add(1)
	for {
		cur := l.maxDepth.Load()
		if depth <= cur || l.maxDepth.CompareAndSwap(cur, depth) {
			break
		}
	}
	accepted := l.queues[key%uint64(len(l.queues))].push(it, tenant, client)
	l.closeMu.RUnlock()
	if !accepted {
		l.enqueued.Add(^uint64(0))
		l.depth.Add(-1)
		l.shed.Add(1)
		if l.cfg.QoS.Shed != nil {
			l.cfg.QoS.Shed(from, msg, tenant)
		}
	}
	return true
}

func (l *lane) worker(i int) {
	defer l.wg.Done()
	q := l.queues[i%len(l.queues)]
	for {
		it, ok := q.pop()
		if !ok {
			return
		}
		start := time.Now()
		if !it.deliverAt.IsZero() {
			simclock.SpinUntil(it.deliverAt)
			// The receive-side processing cost is paid here, per worker:
			// this is what a lane buys — its messages use the node's other
			// cores instead of the delivery loop's one. Skipped when only
			// fault jitter stamped the deadline.
			if simclock.Enabled() {
				simclock.Spin(l.procCost)
			}
		}
		l.handler(it.from, it.msg)
		service := time.Since(start)
		l.busyNs.Add(int64(service))
		l.perWorker[i].Add(1)
		l.dequeued.Add(1)
		l.depth.Add(-1)
		if l.cfg.Observe != nil && !it.enq.IsZero() {
			l.cfg.Observe(start.Sub(it.enq), service)
		}
	}
}

// close lets the workers finish what is queued and waits for them; later
// dispatch calls report false. Idempotent.
func (l *lane) close() {
	if l == nil {
		return
	}
	l.closeMu.Lock()
	if !l.closed {
		l.closed = true
		for _, q := range l.queues {
			q.close()
		}
	}
	l.closeMu.Unlock()
	l.wg.Wait()
}

func (l *lane) stats() LaneStats {
	if l == nil {
		return LaneStats{}
	}
	s := LaneStats{
		Enqueued:  l.enqueued.Load(),
		Dequeued:  l.dequeued.Load(),
		Depth:     uint64(l.depth.Load()),
		MaxDepth:  uint64(l.maxDepth.Load()),
		Busy:      time.Duration(l.busyNs.Load()),
		Shed:      l.shed.Load(),
		PerWorker: make([]uint64, len(l.perWorker)),
	}
	for i := range l.perWorker {
		s.PerWorker[i] = l.perWorker[i].Load()
	}
	return s
}

// ---- The dispatcher ----

// Lanes is a node's message dispatcher: built once from the node's
// handler, it owns the node's two lanes and the one decision of where an
// inbound message runs — on the read lane if that takes it, else on the
// write lane, else inline on the goroutine that delivered it. The node
// owns the Lanes (it reads Stats from it and Closes it when it stops) and
// hands it to whichever fabric carries its messages: the in-process
// Network (RegisterWithLanes) or, through Handler, any other endpoint.
type Lanes struct {
	handler     Handler
	read, write *lane
}

// NewLanes starts the lanes the two configs enable: read is the shared
// shape (any-order concurrency), write the keyed shape (per-key order, see
// LaneConfig).
func NewLanes(h Handler, read, write LaneConfig) *Lanes {
	return &Lanes{
		handler: h,
		read:    newLane(read, h, 1, sharedQueueCap),
		write:   newLane(write, h, write.Workers, keyedQueueCap),
	}
}

// dispatch reports whether a lane took the message. deliverAt is the
// in-process Network's modeled arrival time (zero elsewhere); the worker
// waits it out, so lane messages overlap their modeled costs.
func (l *Lanes) dispatch(from types.NodeID, msg Message, deliverAt time.Time) bool {
	return l.read.dispatch(from, msg, deliverAt) || l.write.dispatch(from, msg, deliverAt)
}

// Handler is the dispatcher as an endpoint handler, for endpoints the
// Network does not manage (e.g. the TCP transport).
func (l *Lanes) Handler() Handler {
	return func(from types.NodeID, msg Message) {
		if !l.dispatch(from, msg, time.Time{}) {
			l.handler(from, msg)
		}
	}
}

// Stats snapshots both lanes; a disabled lane reports the zero LaneStats.
func (l *Lanes) Stats() (read, write LaneStats) {
	return l.read.stats(), l.write.stats()
}

// Close drains both worker pools; messages dispatched later run inline.
// Idempotent.
func (l *Lanes) Close() {
	l.read.close()
	l.write.close()
}
