package transport

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/simclock"
	"flexlog/internal/types"
)

// LaneQoS configures multi-tenant quality of service on a lane. When
// enabled (TenantOf set), the lane's single FIFO buffer is replaced by
// per-tenant bounded FIFO queues drained with deficit-round-robin in
// proportion to Weights, and a full tenant queue sheds the message
// (invoking Shed, so the owner can answer with a typed rejection) instead
// of blocking the delivery loop — overload becomes an explicit, attributed
// signal rather than silent queue growth. FIFO order is preserved within a
// tenant's queue; fairness holds across tenants.
type LaneQoS struct {
	// TenantOf extracts the message's tenant. ok=false (internal traffic:
	// order responses, sync, heartbeats) maps to types.DefaultTenant,
	// which always schedules but is never shed ahead of client traffic
	// differently — it is simply one more weighted queue.
	TenantOf func(Message) (types.TenantID, bool)
	// Weights maps tenant → scheduling weight (messages served per DRR
	// round). Missing or zero entries default to 1.
	Weights map[types.TenantID]uint32
	// Shed, when set, is called (outside the scheduler lock) for each
	// message rejected because its tenant queue was full. The lane counts
	// the shed either way; without a callback the message is dropped and
	// the sender discovers it by timeout.
	Shed func(from types.NodeID, msg Message, tenant types.TenantID)
}

// Enabled reports whether QoS scheduling is configured.
func (q LaneQoS) Enabled() bool { return q.TenantOf != nil }

// TenantLaneStats is one tenant's slice of a lane's QoS accounting.
type TenantLaneStats struct {
	Tenant   types.TenantID
	Enqueued uint64 // messages accepted into this tenant's queue
	Shed     uint64 // messages rejected because the queue was full
}

// ---- Queue kinds ----

// laneItem is one classified message in flight to a worker.
type laneItem struct {
	from      types.NodeID
	msg       Message
	deliverAt time.Time
	enq       time.Time // stamped only when the lane has an Observe hook
}

// laneQueue is all a lane needs of a queue, and the seam between its two
// kinds: the bounded FIFO channel, whose push blocks while the queue is
// full (backpressure on the caller, mirroring a busy core), and the
// weighted-fair tenant queue, whose push reports false instead (the
// message is shed). pop blocks while the queue is empty; after close it
// hands out what is left and then reports false. The lane never pushes
// after close.
type laneQueue interface {
	push(it laneItem, tenant types.TenantID) bool
	pop() (laneItem, bool)
	close()
}

type chanQueue chan laneItem

func (q chanQueue) push(it laneItem, _ types.TenantID) bool { q <- it; return true }
func (q chanQueue) pop() (laneItem, bool)                   { it, ok := <-q; return it, ok }
func (q chanQueue) close()                                  { close(q) }

// tenantQ is one tenant's bounded FIFO inside a wfq.
type tenantQ struct {
	weight int
	items  []laneItem
	head   int // items[head:] are pending; the prefix is already served
	inRing bool
	enq    uint64
	shed   uint64
}

func (q *tenantQ) depth() int { return len(q.items) - q.head }

// wfq is a weighted-fair queue of lane items: per-tenant bounded FIFOs
// drained by deficit-round-robin (quantum = weight, unit cost per
// message). Safe for many producers and many consumers; all state is
// guarded by mu.
type wfq struct {
	mu      sync.Mutex
	cond    *sync.Cond
	capPer  int // per-tenant queue bound
	weights map[types.TenantID]uint32
	queues  map[types.TenantID]*tenantQ
	ring    []*tenantQ // non-empty queues, round-robin order
	cur     int        // ring index currently being served
	credit  int        // remaining quantum of ring[cur]
	closed  bool
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

// push appends the item to its tenant's queue, reporting false (shed)
// when that queue is at capacity.
func (w *wfq) push(it laneItem, tenant types.TenantID) bool {
	w.mu.Lock()
	q := w.queues[tenant]
	if q == nil {
		weight := 1
		if wt, ok := w.weights[tenant]; ok && wt > 0 {
			weight = int(wt)
		}
		q = &tenantQ{weight: weight}
		w.queues[tenant] = q
	}
	if q.depth() >= w.capPer {
		q.shed++
		w.mu.Unlock()
		return false
	}
	q.items = append(q.items, it)
	q.enq++
	if !q.inRing {
		q.inRing = true
		w.ring = append(w.ring, q)
	}
	w.mu.Unlock()
	w.cond.Signal()
	return true
}

// pop removes the next item under DRR order.
func (w *wfq) pop() (laneItem, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if len(w.ring) > 0 {
			if w.cur >= len(w.ring) {
				w.cur = 0
			}
			q := w.ring[w.cur]
			if w.credit <= 0 {
				w.credit = q.weight
			}
			it := q.items[q.head]
			q.items[q.head] = laneItem{} // release references
			q.head++
			w.credit--
			if q.depth() == 0 {
				q.items = q.items[:0]
				q.head = 0
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

// addTenantStats folds this queue's per-tenant accounting into acc.
func (w *wfq) addTenantStats(acc map[types.TenantID]TenantLaneStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, q := range w.queues {
		ts := acc[id]
		ts.Tenant = id
		ts.Enqueued += q.enq
		ts.Shed += q.shed
		acc[id] = ts
	}
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
// worker with a key pinned to one of them (key mod Workers), so every
// message of one key is processed in arrival order — the invariant the
// append protocol needs (an AppendReq must reach storage before the
// OrderResp that commits its token, and both carry the same color) —
// while different keys proceed in parallel.
type LaneConfig struct {
	// Workers is the pool size; 0 disables the lane (its traffic runs
	// inline).
	Workers int
	// Key reports whether the message belongs on the lane and, if so, its
	// shard key (the color for FlexLog mutations; ignored by the shared
	// read lane).
	Key func(Message) (uint64, bool)
	// QueueCap bounds each queue of the lane; a full queue backpressures
	// the caller. 0 uses a default of 4096 for the shared queue and 1024
	// per pinned worker.
	QueueCap int
	// Observe, when set, is called after each lane message with the time
	// it waited in the queue and the time its handler ran — the lane_wait
	// stage of the observability layer. Must be cheap and thread-safe.
	Observe func(queueWait, service time.Duration)
	// QoS, when enabled, replaces each FIFO buffer with per-tenant
	// weighted-fair queues that shed on overflow. A key stays pinned to
	// its worker, and a tenant's messages for one key stay FIFO within
	// that worker's tenant queue. See LaneQoS.
	QoS LaneQoS
}

// LaneStats is a point-in-time snapshot of one lane.
type LaneStats struct {
	Enqueued uint64 // messages handed to the lane
	Dequeued uint64 // messages whose handler finished
	// Depth is the messages in the lane right now: queued, in service, or
	// held by a caller blocked on a full queue — at most queues x QueueCap
	// + Workers + the number of concurrent callers. It is its own counter,
	// not Enqueued - Dequeued: those are two loads, and the traffic that
	// flows between them would read as depth.
	Depth    uint64
	MaxDepth uint64        // high-water mark of Depth
	Busy     time.Duration // summed wall time workers spent per message
	Shed     uint64        // messages rejected by QoS queue bounds
	// PerWorker lets the modeled-throughput benchmarks charge each worker
	// for the messages it actually processed (the busiest worker bounds a
	// keyed lane). Nil for a disabled lane.
	PerWorker []uint64
	Tenants   []TenantLaneStats
}

// lane is the one worker pool behind both lane shapes: worker i serves
// queues[i mod len(queues)], and a message goes to queues[key mod
// len(queues)], so one queue is the shared shape and one queue per worker
// the keyed shape. A nil *lane is a disabled lane: it takes no message.
type lane struct {
	cfg      LaneConfig
	handler  Handler
	procCost time.Duration // modeled receive cost, set by the in-process Network
	queues   []laneQueue
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

// newLane starts the worker pool, or returns nil for a disabled config.
func newLane(cfg LaneConfig, h Handler, queues, defaultCap int) *lane {
	if cfg.Workers <= 0 || cfg.Key == nil {
		return nil
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = defaultCap
	}
	l := &lane{
		cfg:       cfg,
		handler:   h,
		queues:    make([]laneQueue, queues),
		perWorker: make([]atomic.Uint64, cfg.Workers),
	}
	for i := range l.queues {
		if cfg.QoS.Enabled() {
			l.queues[i] = newWFQ(cfg.QueueCap, cfg.QoS.Weights)
		} else {
			l.queues[i] = make(chanQueue, cfg.QueueCap)
		}
	}
	l.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go l.worker(i)
	}
	return l
}

// dispatch hands the message to the lane if its Key function accepts it.
// A full channel queue blocks; a full tenant queue sheds the message
// instead (it is counted, and the Shed hook turns it into a typed
// rejection). It reports false when the message is not the lane's or the
// lane is closed — the caller then handles it inline (where a stopped
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
	var tenant types.TenantID
	if l.cfg.QoS.Enabled() {
		tenant, _ = l.cfg.QoS.TenantOf(msg)
	}
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
	accepted := l.queues[key%uint64(len(l.queues))].push(it, tenant)
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
	if l.cfg.QoS.Enabled() {
		acc := make(map[types.TenantID]TenantLaneStats)
		for _, q := range l.queues {
			q.(*wfq).addTenantStats(acc)
		}
		for _, ts := range acc {
			s.Tenants = append(s.Tenants, ts)
		}
		slices.SortFunc(s.Tenants, func(a, b TenantLaneStats) int { return int(a.Tenant) - int(b.Tenant) })
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
// shape (any-order concurrency), write the keyed shape (per-key FIFO).
func NewLanes(h Handler, read, write LaneConfig) *Lanes {
	return &Lanes{
		handler: h,
		read:    newLane(read, h, 1, 4096),
		write:   newLane(write, h, write.Workers, 1024),
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
