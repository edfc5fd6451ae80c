package storage

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentGetsDuringFlush hammers Get from many goroutines while a
// writer keeps appending, forcing segment flushes that reuse the PM slots
// the readers are reading without the store lock. Every read must return
// either the correct bytes or a clean miss for not-yet-committed SNs —
// never torn data from a reused slot.
func TestConcurrentGetsDuringFlush(t *testing.T) {
	cfg := TestConfig()
	cfg.SegmentSize = 512
	cfg.NumSegments = 3
	cfg.CacheBytes = 0 // force every read to the device tiers
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const total = 400
	var committed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)

	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				max := committed.Load()
				if max == 0 {
					continue
				}
				i = (i*7 + 1) % int(max)
				data, err := st.Get(colorA, sn(i+1))
				if err != nil {
					// Misses can't happen: only committed SNs are probed
					// and nothing is trimmed in this test.
					fail(err)
					return
				}
				if !bytes.Equal(data, payload(i+1)) {
					fail(errTornRead(i+1, data))
					return
				}
			}
		}(g)
	}

	for i := 1; i <= total; i++ {
		if err := st.Put(colorA, tok(i), payload(i)); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(tok(i), sn(i)); err != nil {
			t.Fatal(err)
		}
		committed.Store(int64(i))
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st.Stats().Flushes == 0 {
		t.Fatal("test never flushed a segment; shrink the config")
	}
}

type tornReadError struct {
	sn   int
	data []byte
}

func errTornRead(sn int, data []byte) error { return &tornReadError{sn, data} }
func (e *tornReadError) Error() string {
	return "torn read of sn " + string(rune('0'+e.sn%10)) + ": " + string(e.data)
}

// TestStripedCacheBehavesLikeLRU checks the striped facade preserves the
// cache contract: hits return the stored bytes, drops remove entries, and
// stats aggregate across stripes.
func TestStripedCacheBehavesLikeLRU(t *testing.T) {
	c := newStripedCache(1 << 20)
	if len(c.stripes) != cacheStripes {
		t.Fatalf("large cache has %d stripes, want %d", len(c.stripes), cacheStripes)
	}
	for i := 0; i < 500; i++ {
		c.put(colorA, sn(i+1), payload(i+1))
	}
	for i := 0; i < 500; i++ {
		data, ok := c.get(colorA, sn(i+1))
		if !ok || !bytes.Equal(data, payload(i+1)) {
			t.Fatalf("miss or wrong data for sn %d", i+1)
		}
	}
	if c.len() != 500 {
		t.Fatalf("len = %d, want 500", c.len())
	}
	c.drop(colorA, sn(3))
	if _, ok := c.get(colorA, sn(3)); ok {
		t.Fatal("dropped entry still cached")
	}
	hits, misses := c.stats()
	if hits != 500 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 500 hits / 1 miss", hits, misses)
	}

	// Tiny caches degenerate to one stripe so capacity is not fragmented.
	if tiny := newStripedCache(1024); len(tiny.stripes) != 1 {
		t.Fatalf("tiny cache has %d stripes, want 1", len(tiny.stripes))
	}
	// Disabled cache stays disabled.
	off := newStripedCache(0)
	off.put(colorA, sn(1), payload(1))
	if _, ok := off.get(colorA, sn(1)); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
}
