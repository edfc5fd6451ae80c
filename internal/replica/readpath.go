package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/proto"
	"flexlog/internal/storage"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// This file implements the replica's fast read lane (§6.1 reads, §6.2
// subscribes). Read-class messages are dispatched to a transport worker
// pool instead of the serialized mutation loop, so the structures they
// touch are engineered for concurrency:
//
//   - per-color commit watermarks are atomics (no r.mu on the read path);
//   - parked reads live in a lock-striped registry keyed by (color, SN),
//     so a commit wakes exactly the reads it can satisfy instead of
//     rescanning every held read;
//   - all replica counters are atomics (see counters).
//
// Linearizability is preserved because the delivery loop still dequeues
// in arrival order: a read is handed to the pool only after every earlier
// mutation has been processed, so reads can complete late, never early —
// and a late read of a committed SN is caught by the watermark re-check
// (or parked and woken by the commit).

// readClass classifies the messages the read lane may serve concurrently
// (its one shared queue ignores the key).
func readClass(msg transport.Message) (uint64, bool) {
	switch msg.(type) {
	case proto.ReadReq, proto.SubscribeReq:
		return 0, true
	}
	return 0, false
}

// ---- Per-color atomic watermarks ----

// watermarks tracks the highest SN observed per color (commit or sync)
// with lock-free reads: the read lane consults it on every miss.
type watermarks struct {
	m sync.Map // types.ColorID -> *atomic.Uint64
}

func (w *watermarks) slot(c types.ColorID) *atomic.Uint64 {
	if v, ok := w.m.Load(c); ok {
		return v.(*atomic.Uint64)
	}
	v, _ := w.m.LoadOrStore(c, new(atomic.Uint64))
	return v.(*atomic.Uint64)
}

// get returns the watermark for the color (InvalidSN if never bumped).
func (w *watermarks) get(c types.ColorID) types.SN {
	if v, ok := w.m.Load(c); ok {
		return types.SN(v.(*atomic.Uint64).Load())
	}
	return types.InvalidSN
}

// bump raises the color's watermark to sn if it is higher.
func (w *watermarks) bump(c types.ColorID, sn types.SN) {
	s := w.slot(c)
	for {
		cur := s.Load()
		if uint64(sn) <= cur || s.CompareAndSwap(cur, uint64(sn)) {
			return
		}
	}
}

// reset forgets every watermark (recovery rebuilds them from storage).
func (w *watermarks) reset() {
	w.m.Range(func(k, _ any) bool {
		w.m.Delete(k)
		return true
	})
}

// ---- Striped held-read registry ----

// heldStripes is the number of independently locked registry stripes.
// Colors hash across stripes, so reads and commits of different colors
// never contend; within a stripe entries are keyed by color then SN.
const heldStripes = 16

type heldStripe struct {
	mu      sync.Mutex
	byColor map[types.ColorID]map[types.SN][]heldRead
}

// heldRegistry parks reads for not-yet-seen SNs (§6.3 Safety). Keying by
// (color, SN) lets a commit wake only the reads its new frontier
// satisfies — the old flat slice was rescanned O(held) on every commit.
type heldRegistry struct {
	stripes [heldStripes]heldStripe
	count   atomic.Int64
}

func (g *heldRegistry) stripe(c types.ColorID) *heldStripe {
	return &g.stripes[uint32(c)%heldStripes]
}

// add parks one read.
func (g *heldRegistry) add(c types.ColorID, sn types.SN, h heldRead) {
	s := g.stripe(c)
	s.mu.Lock()
	if s.byColor == nil {
		s.byColor = make(map[types.ColorID]map[types.SN][]heldRead)
	}
	bySN := s.byColor[c]
	if bySN == nil {
		bySN = make(map[types.SN][]heldRead)
		s.byColor[c] = bySN
	}
	bySN[sn] = append(bySN[sn], h)
	s.mu.Unlock()
	g.count.Add(1)
}

// wake removes and returns every read of the color parked at SN <= upTo —
// exactly the reads the frontier advance can satisfy (record or hole).
func (g *heldRegistry) wake(c types.ColorID, upTo types.SN) []heldRead {
	s := g.stripe(c)
	s.mu.Lock()
	bySN := s.byColor[c]
	if len(bySN) == 0 {
		s.mu.Unlock()
		return nil
	}
	var out []heldRead
	for sn, hs := range bySN {
		if sn <= upTo {
			out = append(out, hs...)
			delete(bySN, sn)
		}
	}
	s.mu.Unlock()
	g.count.Add(-int64(len(out)))
	return out
}

// expire removes and returns every read whose deadline has passed.
func (g *heldRegistry) expire(now time.Time) []heldRead {
	var out []heldRead
	for i := range g.stripes {
		s := &g.stripes[i]
		s.mu.Lock()
		for c, bySN := range s.byColor {
			for sn, hs := range bySN {
				keep := hs[:0]
				for _, h := range hs {
					if now.After(h.deadline) {
						out = append(out, h)
					} else {
						keep = append(keep, h)
					}
				}
				if len(keep) == 0 {
					delete(bySN, sn)
				} else {
					bySN[sn] = keep
				}
			}
			if len(bySN) == 0 {
				delete(s.byColor, c)
			}
		}
		s.mu.Unlock()
	}
	g.count.Add(-int64(len(out)))
	return out
}

// drain removes every parked read (crash: they are dropped, the client
// times out and retries — the pre-lane behavior).
func (g *heldRegistry) drain() {
	for i := range g.stripes {
		s := &g.stripes[i]
		s.mu.Lock()
		for c, bySN := range s.byColor {
			for _, hs := range bySN {
				g.count.Add(-int64(len(hs)))
			}
			delete(s.byColor, c)
		}
		s.mu.Unlock()
	}
}

// size returns the number of parked reads.
func (g *heldRegistry) size() int { return int(g.count.Load()) }

// ---- Read protocol (§6.1) with read-hold (§6.3 Safety) ----

// frontier is the highest SN this replica knows to be assigned for the
// color: the committed watermark or storage's max committed SN.
func (r *Replica) frontier(color types.ColorID) types.SN {
	sn := r.maxSeen.get(color)
	if st := r.st.MaxSN(color); st > sn {
		sn = st
	}
	return sn
}

// onRead may run concurrently on the read lane: it touches only storage
// (internally synchronized), the atomic watermarks, and the held registry.
func (r *Replica) onRead(from types.NodeID, m proto.ReadReq) {
	r.stats.reads.Add(1)
	r.tenantCounters(m.Tenant).reads.Add(1)
	if r.readTr.Enabled() {
		start := time.Now()
		defer func() {
			d := time.Since(start)
			r.readTr.Observe(fmt.Sprintf("color=%d sn=%d", m.Color, m.SN), d,
				[]obs.Span{{Name: "serve", D: d}})
		}()
	}
	data, err := r.st.Get(m.Color, m.SN)
	if errors.Is(err, storage.ErrEvicted) {
		// The record's segment lives on the cold tier and the read failed
		// (eviction/GC race or a crashed tier). Get retries internally, so
		// one more attempt here, then report the transient status.
		if data2, err2 := r.st.Get(m.Color, m.SN); err2 == nil {
			data, err = data2, nil
		} else {
			r.stats.readMisses.Add(1)
			r.ep.Send(from, proto.ReadResp{ID: m.ID, SN: m.SN, Found: false, Status: proto.ReadStatusEvicted})
			return
		}
	}
	if err == nil {
		r.ep.Send(from, proto.ReadResp{ID: m.ID, SN: m.SN, Data: data, Found: true})
		return
	}
	if errors.Is(err, storage.ErrTrimmed) {
		r.ep.Send(from, proto.ReadResp{ID: m.ID, SN: m.SN, Found: false, Status: trimStatus(err)})
		return
	}
	// Not found. If the SN is above everything this replica has seen, the
	// append may still be in flight: hold the request (§6.3, problem 2).
	if m.SN > r.frontier(m.Color) && r.cfg.ReadHoldTimeout > 0 {
		r.stats.heldReads.Add(1)
		r.held.add(m.Color, m.SN, heldRead{req: m, from: from, deadline: time.Now().Add(r.cfg.ReadHoldTimeout)})
		// Close the park/commit race: a commit that advanced the frontier
		// between the failed Get and the registration saw an empty
		// registry, so it could not wake this read.
		if f := r.frontier(m.Color); f >= m.SN {
			r.wakeHeld(m.Color, f)
		}
		return
	}
	// The SN is at or below the frontier. On the serialized loop that
	// proved a hole; on the concurrent lane a commit may have landed
	// between the miss and the frontier check, so re-read before ⊥.
	if data, err := r.st.Get(m.Color, m.SN); err == nil {
		r.ep.Send(from, proto.ReadResp{ID: m.ID, SN: m.SN, Data: data, Found: true})
		return
	}
	r.stats.readMisses.Add(1)
	r.ep.Send(from, proto.ReadResp{ID: m.ID, SN: m.SN, Found: false})
}

// trimStatus distinguishes a checkpoint-truncated trim miss from a plain
// one (the client surfaces the former as a terminal error).
func trimStatus(err error) uint8 {
	if errors.Is(err, storage.ErrCheckpointTruncated) {
		return proto.ReadStatusCkptTruncated
	}
	return proto.ReadStatusTrimmed
}

// wakeHeld releases the color's parked reads the frontier now satisfies.
func (r *Replica) wakeHeld(color types.ColorID, frontier types.SN) {
	if r.held.size() == 0 {
		return
	}
	woken := r.held.wake(color, frontier)
	if len(woken) == 0 {
		return
	}
	r.stats.heldWakeups.Add(uint64(len(woken)))
	for _, h := range woken {
		r.serveHeld(h)
	}
}

// serveHeld answers one woken read: the record, ⊥ for trimmed/hole, or —
// if the frontier receded from under us (it cannot, but defensively) —
// back into the registry.
func (r *Replica) serveHeld(h heldRead) {
	data, err := r.st.Get(h.req.Color, h.req.SN)
	switch {
	case err == nil:
		r.ep.Send(h.from, proto.ReadResp{ID: h.req.ID, SN: h.req.SN, Data: data, Found: true})
	case errors.Is(err, storage.ErrTrimmed):
		r.ep.Send(h.from, proto.ReadResp{ID: h.req.ID, SN: h.req.SN, Found: false, Status: trimStatus(err)})
	case errors.Is(err, storage.ErrEvicted):
		r.ep.Send(h.from, proto.ReadResp{ID: h.req.ID, SN: h.req.SN, Found: false, Status: proto.ReadStatusEvicted})
	default:
		if r.frontier(h.req.Color) >= h.req.SN {
			// A higher SN has appeared: the requested SN is a hole. ⊥.
			r.ep.Send(h.from, proto.ReadResp{ID: h.req.ID, SN: h.req.SN, Found: false})
		} else {
			r.held.add(h.req.Color, h.req.SN, h)
		}
	}
}

// expireHeldReads times out parked reads (the request "times out; that does
// not violate linearizability", §6.3).
func (r *Replica) expireHeldReads(now time.Time) {
	if r.held.size() == 0 {
		return
	}
	expired := r.held.expire(now)
	if len(expired) == 0 {
		return
	}
	r.stats.readMisses.Add(uint64(len(expired)))
	for _, h := range expired {
		r.ep.Send(h.from, proto.ReadResp{ID: h.req.ID, SN: h.req.SN, Found: false})
	}
}

// ---- Subscribe (§6.2) ----

// onSubscribe also runs on the read lane; storage scans are internally
// synchronized and release the store lock across device reads.
func (r *Replica) onSubscribe(from types.NodeID, m proto.SubscribeReq) {
	r.stats.subscribes.Add(1)
	recs, err := r.st.ScanFrom(m.Color, m.From, 0)
	if err != nil {
		// Never leave the subscriber hanging on a failed scan: an empty
		// view is indistinguishable from a lagging replica, so the client
		// merges the other shards and retries — instead of timing out.
		r.ep.Send(from, proto.SubscribeResp{ID: m.ID, Color: m.Color})
		return
	}
	r.ep.Send(from, proto.SubscribeResp{ID: m.ID, Color: m.Color, Records: wireRecords(recs)})
}
