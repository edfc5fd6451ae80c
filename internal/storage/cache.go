package storage

import (
	"sync"

	"flexlog/internal/types"
)

// cacheKey identifies a committed record in the DRAM cache.
type cacheKey struct {
	color types.ColorID
	sn    types.SN
}

// lruCache is the volatile DRAM tier of the replica storage stack (§5.2):
// it holds recently accessed committed records and is consulted before PM.
// Capacity is accounted in payload bytes. The zero value is unusable; use
// newLRUCache. A capacity of 0 disables caching entirely (used by the
// cache-ablation bench).
type lruCache struct {
	mu       sync.Mutex
	capacity int
	size     int
	entries  map[cacheKey]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
	// free lists evicted nodes (linked by next) for reuse, so a put into
	// a warm cache allocates no node; it never outgrows the cache's peak
	// entry count.
	free *lruNode

	hits, misses uint64
}

type lruNode struct {
	key        cacheKey
	data       []byte
	prev, next *lruNode
}

func newLRUCache(capacityBytes int) *lruCache {
	return &lruCache{
		capacity: capacityBytes,
		entries:  make(map[cacheKey]*lruNode),
	}
}

// get returns the cached payload and whether it was present.
func (c *lruCache) get(color types.ColorID, sn types.SN) ([]byte, bool) {
	if c.capacity <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[cacheKey{color, sn}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.moveToFront(n)
	return n.data, true
}

// put inserts (or refreshes) a record, evicting the oldest entries (§5.2:
// "if the cache size limit is reached, the oldest record is evicted").
func (c *lruCache) put(color types.ColorID, sn types.SN, data []byte) {
	if c.capacity <= 0 || len(data) > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{color, sn}
	if n, ok := c.entries[key]; ok {
		c.size += len(data) - len(n.data)
		n.data = data
		c.moveToFront(n)
	} else {
		n := c.free
		if n != nil {
			c.free = n.next
			n.key, n.data = key, data
		} else {
			n = &lruNode{key: key, data: data}
		}
		c.entries[key] = n
		c.pushFront(n)
		c.size += len(data)
	}
	for c.size > c.capacity && c.tail != nil {
		c.evict(c.tail)
	}
}

// drop removes a record (used by trim).
func (c *lruCache) drop(color types.ColorID, sn types.SN) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.entries[cacheKey{color, sn}]; ok {
		c.evict(n)
	}
}

// stats returns hit/miss counters.
func (c *lruCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// len returns the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *lruCache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *lruCache) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *lruCache) evict(n *lruNode) {
	c.unlink(n)
	delete(c.entries, n.key)
	c.size -= len(n.data)
	n.data, n.next = nil, c.free
	c.free = n
}
