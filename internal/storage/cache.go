package storage

import "sync"

// entryCache is the volatile DRAM tier of the replica storage stack (§5.2),
// consulted before PM. Its unit is an entry (one append batch): Commit
// caches the framed entry whole, and a miss caches the one record it read
// as that entry's unit, replacing whatever the entry held. A unit is
// charged the bytes it pins, so capacity bounds DRAM. Eviction is
// oldest-first ("if the cache size limit is reached, the oldest record is
// evicted"): a record unit ages by use (LRU), a whole entry by its commit,
// since a hit does not refresh it — refreshed, a batch one record of which
// is read now and then keeps all its records cached, and read_mixed's hit
// rate fell by two points. A capacity of 0 disables caching (the
// cache-ablation bench).
//
// Units are striped by token over independently locked LRUs, so the read
// lane's workers hit the cache in parallel (eviction is then approximately
// global LRU). An entry's unit hangs off its entryLoc, guarded by its
// stripe's lock. Hits return the stored bytes without copying: units are
// replaced, never mutated.
type entryCache struct {
	stripes []cacheStripe
}

// A cache has cacheStripes stripes when each share holds stripeMinBytes
// (a few full 64 × 1 KiB batches), else one.
const (
	cacheStripes   = 16
	stripeMinBytes = 256 << 10
)

// wholeEntry is the idx of a unit holding the whole framed entry.
const wholeEntry = -1

type cacheStripe struct {
	mu         sync.Mutex
	capacity   int
	size       int
	head, tail *cacheUnit // most and least recently used
	// free lists evicted units (linked by next) for reuse, so a put into
	// a warm cache allocates nothing.
	free *cacheUnit

	hits, misses uint64
}

// cacheUnit is an entry's cached bytes: the framed entry when idx is
// wholeEntry, else the payload of its record idx.
type cacheUnit struct {
	loc        *entryLoc
	idx        int
	data       []byte
	prev, next *cacheUnit
}

func newEntryCache(capacityBytes int) *entryCache {
	n := cacheStripes
	if capacityBytes/cacheStripes < stripeMinBytes {
		n = 1
	}
	c := &entryCache{stripes: make([]cacheStripe, n)}
	for i := range c.stripes {
		c.stripes[i].capacity = capacityBytes / n
	}
	return c
}

func (c *entryCache) stripe(loc *entryLoc) *cacheStripe {
	h := uint64(loc.token) * 0x9E3779B97F4A7C15
	return &c.stripes[(h>>32)%uint64(len(c.stripes))]
}

// get returns record idx of the entry, if its unit holds it.
func (c *entryCache) get(loc *entryLoc, idx int) ([]byte, bool) {
	s := c.stripe(loc)
	if s.capacity <= 0 {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u := loc.unit
	if u == nil || (u.idx != wholeEntry && u.idx != idx) {
		s.misses++
		return nil, false
	}
	s.hits++
	if u.idx != wholeEntry {
		s.moveToFront(u)
		return u.data, true
	}
	sp := loc.spans[idx]
	off := entryHeaderSize + sp.off
	return u.data[off : off+sp.len : off+sp.len], true
}

// put makes data the entry's unit: its framed entry (idx wholeEntry, the
// commit's fill) or its record idx (a miss's fill).
func (c *entryCache) put(loc *entryLoc, idx int, data []byte) {
	s := c.stripe(loc)
	if s.capacity <= 0 || len(data) > s.capacity {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if u := loc.unit; u != nil {
		s.size += len(data) - len(u.data)
		u.idx, u.data = idx, data
		s.moveToFront(u)
	} else {
		u := s.free
		if u != nil {
			s.free = u.next
		} else {
			u = &cacheUnit{}
		}
		u.loc, u.idx, u.data = loc, idx, data
		loc.unit = u
		s.pushFront(u)
		s.size += len(data)
	}
	for s.size > s.capacity {
		s.evict(s.tail)
	}
}

// drop removes the entry's unit (its records died).
func (c *entryCache) drop(loc *entryLoc) {
	s := c.stripe(loc)
	s.mu.Lock()
	defer s.mu.Unlock()
	if loc.unit != nil {
		s.evict(loc.unit)
	}
}

// reset empties the cache (Recover rebuilds every entry); counters stay.
func (c *entryCache) reset() {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for s.tail != nil {
			s.evict(s.tail)
		}
		s.mu.Unlock()
	}
}

// stats returns hit/miss counters.
func (c *entryCache) stats() (hits, misses uint64) {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

func (s *cacheStripe) pushFront(u *cacheUnit) {
	u.prev, u.next = nil, s.head
	if s.head != nil {
		s.head.prev = u
	}
	s.head = u
	if s.tail == nil {
		s.tail = u
	}
}

func (s *cacheStripe) unlink(u *cacheUnit) {
	if u.prev != nil {
		u.prev.next = u.next
	} else {
		s.head = u.next
	}
	if u.next != nil {
		u.next.prev = u.prev
	} else {
		s.tail = u.prev
	}
	u.prev, u.next = nil, nil
}

func (s *cacheStripe) moveToFront(u *cacheUnit) {
	if s.head != u {
		s.unlink(u)
		s.pushFront(u)
	}
}

func (s *cacheStripe) evict(u *cacheUnit) {
	s.unlink(u)
	u.loc.unit = nil
	s.size -= len(u.data)
	u.loc, u.data, u.next = nil, nil, s.free
	s.free = u
}
