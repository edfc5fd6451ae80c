package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"flexlog/internal/types"
)

// testEntry frames records as entry i of color and returns its loc and the
// framed buffer Commit would cache.
func testEntry(color types.ColorID, i int, records ...[]byte) (*entryLoc, []byte) {
	buf := frameEntry(records)
	spans, err := sealEntry(buf, color, tok(i))
	if err != nil {
		panic(err)
	}
	return &entryLoc{token: tok(i), color: color, spans: spans}, buf
}

// recordEntry is entry i holding one record of n bytes of value i.
func recordEntry(i, n int) (*entryLoc, []byte) {
	loc, _ := testEntry(colorA, i, bytes.Repeat([]byte{byte(i)}, n))
	return loc, bytes.Repeat([]byte{byte(i)}, n)
}

// units counts the cached units.
func (c *entryCache) units() int {
	n := 0
	for i := range c.stripes {
		for u := c.stripes[i].head; u != nil; u = u.next {
			n++
		}
	}
	return n
}

// charged returns the bytes the cached units pin.
func (c *entryCache) charged() int {
	n := 0
	for i := range c.stripes {
		n += c.stripes[i].size
	}
	return n
}

// cached returns what the cache holds for (color, sn), looked up in the
// index as Get does.
func (st *Store) cached(color types.ColorID, s types.SN) ([]byte, bool) {
	ci := st.color(color)
	ci.mu.RLock()
	ref, err := ci.lookupLocked(s)
	ci.mu.RUnlock()
	if err != nil {
		return nil, false
	}
	return st.cache.get(ref.loc, ref.idx)
}

func TestLRUBasicPutGet(t *testing.T) {
	c := newEntryCache(1024)
	loc, buf := testEntry(colorA, 1, []byte("a"), []byte("bc"))
	c.put(loc, wholeEntry, buf)
	for i, want := range []string{"a", "bc"} {
		if got, ok := c.get(loc, i); !ok || string(got) != want {
			t.Fatalf("get(%d) = %q, %v; want %q", i, got, ok, want)
		}
	}
	other, _ := testEntry(colorA, 1, []byte("a"))
	if _, ok := c.get(other, 0); ok {
		t.Fatal("the entry, not its token, must be the key")
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c := newEntryCache(30)
	locs := make([]*entryLoc, 5)
	for i := 1; i <= 4; i++ { // 4 * 10 bytes > 30
		loc, rec := recordEntry(i, 10)
		locs[i] = loc
		c.put(loc, 0, rec)
	}
	if _, ok := c.get(locs[1], 0); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, ok := c.get(locs[4], 0); !ok {
		t.Fatal("newest entry missing")
	}
	if got := c.charged(); got > 30 {
		t.Fatalf("charged %d exceeds capacity", got)
	}
}

func TestLRUAccessRefreshes(t *testing.T) {
	c := newEntryCache(30)
	locs := make([]*entryLoc, 5)
	for i := 1; i <= 3; i++ {
		loc, rec := recordEntry(i, 10)
		locs[i] = loc
		c.put(loc, 0, rec)
	}
	c.get(locs[1], 0) // refresh 1 so 2 becomes the eviction victim
	loc, rec := recordEntry(4, 10)
	c.put(loc, 0, rec)
	if _, ok := c.get(locs[1], 0); !ok {
		t.Fatal("refreshed entry evicted")
	}
	if _, ok := c.get(locs[2], 0); ok {
		t.Fatal("LRU victim not evicted")
	}
}

// A whole entry ages by its commit: a hit does not refresh it, so it goes
// before a record unit cached after it, however often it was read.
func TestLRUWholeEntryAgesByCommit(t *testing.T) {
	whole, buf := testEntry(colorA, 1, bytes.Repeat([]byte{1}, 20))
	c := newEntryCache(2 * len(buf))
	c.put(whole, wholeEntry, buf)
	rec, data := recordEntry(2, len(buf))
	c.put(rec, 0, data)
	if _, ok := c.get(whole, 0); !ok {
		t.Fatal("whole entry missing")
	}
	other, data := recordEntry(3, len(buf))
	c.put(other, 0, data)
	if _, ok := c.get(whole, 0); ok {
		t.Fatal("a hit refreshed the whole entry")
	}
	if _, ok := c.get(rec, 0); !ok {
		t.Fatal("the record unit cached after the whole entry was evicted first")
	}
}

// An entry has one unit: a record read replaces the record cached before
// it, and a whole-entry fill replaces both.
func TestLRUUpdateExisting(t *testing.T) {
	c := newEntryCache(100)
	loc, buf := testEntry(colorA, 1, []byte("aa"), []byte("bbbb"))
	c.put(loc, 0, []byte("aa"))
	c.put(loc, 1, []byte("bbbb"))
	if _, ok := c.get(loc, 0); ok {
		t.Fatal("the replaced record unit still hits")
	}
	if got, _ := c.get(loc, 1); string(got) != "bbbb" {
		t.Fatalf("updated value = %q", got)
	}
	if c.charged() != 4 {
		t.Fatalf("charged after update = %d", c.charged())
	}
	c.put(loc, wholeEntry, buf)
	if got, ok := c.get(loc, 0); !ok || string(got) != "aa" {
		t.Fatalf("whole entry: get(0) = %q, %v", got, ok)
	}
	if c.charged() != len(buf) || c.units() != 1 {
		t.Fatalf("whole entry: charged %d in %d units, want %d in 1", c.charged(), c.units(), len(buf))
	}
}

func TestLRUDrop(t *testing.T) {
	c := newEntryCache(100)
	loc, _ := recordEntry(1, 1)
	c.put(loc, 0, []byte("x"))
	c.drop(loc)
	if _, ok := c.get(loc, 0); ok {
		t.Fatal("dropped entry still present")
	}
	missing, _ := recordEntry(99, 1)
	c.drop(missing) // dropping a missing entry is a no-op
	if c.units() != 0 || c.charged() != 0 {
		t.Fatalf("%d units, %d bytes after drop", c.units(), c.charged())
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := newEntryCache(0)
	loc, buf := testEntry(colorA, 1, []byte("x"))
	c.put(loc, wholeEntry, buf)
	c.put(loc, 0, []byte("x"))
	if _, ok := c.get(loc, 0); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
	h, m := c.stats()
	if h != 0 || m != 0 {
		t.Fatal("zero-capacity cache should not count")
	}
}

func TestLRUTooLargeEntrySkipped(t *testing.T) {
	c := newEntryCache(40)
	loc, buf := testEntry(colorA, 1, []byte("12345")) // 32-byte header + 9
	c.put(loc, wholeEntry, buf)
	if c.units() != 0 {
		t.Fatal("oversized entry stored")
	}
	c.put(loc, 0, []byte("12345")) // its record alone fits
	if got, ok := c.get(loc, 0); !ok || string(got) != "12345" {
		t.Fatalf("record of an oversized entry = %q, %v", got, ok)
	}
}

func TestLRUHitMissStats(t *testing.T) {
	c := newEntryCache(100)
	loc, _ := recordEntry(1, 1)
	c.put(loc, 0, []byte("x"))
	c.get(loc, 0)
	c.get(loc, 1)
	h, m := c.stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d hits, %d misses", h, m)
	}
}

func TestLRUSingleEntryChurn(t *testing.T) {
	c := newEntryCache(10)
	for i := 0; i < 100; i++ {
		loc, rec := recordEntry(i+1, 10)
		c.put(loc, 0, rec)
		if _, ok := c.get(loc, 0); !ok {
			t.Fatalf("entry %d missing right after insert", i)
		}
		if c.units() != 1 {
			t.Fatalf("units = %d at step %d", c.units(), i)
		}
	}
}

func TestLRUManyColors(t *testing.T) {
	c := newEntryCache(1 << 20)
	locs := map[[2]int]*entryLoc{}
	for color := 1; color <= 10; color++ {
		for i := 1; i <= 10; i++ {
			loc, buf := testEntry(types.ColorID(color), color*100+i, []byte(fmt.Sprintf("%d/%d", color, i)), []byte("tail"))
			locs[[2]int{color, i}] = loc
			c.put(loc, wholeEntry, buf)
		}
	}
	for color := 1; color <= 10; color++ {
		for i := 1; i <= 10; i++ {
			got, ok := c.get(locs[[2]int{color, i}], 0)
			if !ok || string(got) != fmt.Sprintf("%d/%d", color, i) {
				t.Fatalf("get(%d,%d) = %q, %v", color, i, got, ok)
			}
		}
	}
}

// TestCacheBytesBoundsDRAM: with 64 × 1 KiB batches committed and one
// record of every entry kept hot, the cache charges at most CacheBytes and
// the heap grows by about that much — a hot record does not pin its whole
// batch.
func TestCacheBytesBoundsDRAM(t *testing.T) {
	const entries, batch, cacheBytes = 160, 64, 1 << 20
	cfg := TestConfig()
	cfg.SegmentSize, cfg.NumSegments, cfg.CacheBytes = 4<<20, 4, cacheBytes
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	recs := records(batch, 1024)
	for i := 1; i <= entries; i++ {
		if err := st.PutBatch(colorA, tok(i), recs); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(tok(i), sn(i*batch)); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		for i := 1; i <= entries; i++ {
			if _, err := st.Get(colorA, sn((i-1)*batch+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := st.cache.charged(); got > cacheBytes {
		t.Fatalf("cache charged %d bytes, above CacheBytes %d", got, cacheBytes)
	}
	// The index and the entries' spans cost ≈ 0.6 KiB per entry on top.
	grown := int64(heap()) - int64(before)
	t.Logf("heap grew %d KiB for a %d KiB cache over %d KiB of committed records", grown>>10, cacheBytes>>10, entries*batch)
	if grown > 2*cacheBytes {
		t.Fatalf("heap grew %d bytes with CacheBytes %d: cached records pin more than the cache charges", grown, cacheBytes)
	}
}
