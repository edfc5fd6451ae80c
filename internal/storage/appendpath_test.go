package storage

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"flexlog/internal/pmem"
	"flexlog/internal/proto"
	"flexlog/internal/simclock"
)

// records returns n records of size bytes, record i filled with byte i.
func records(n, size int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte(i + 1)}, size)
	}
	return recs
}

// TestPutBatchOwnsRecordBytes: PutBatch copies the caller's records into
// the entry it frames, and Commit fills the cache from that entry. So
// scribbling over the caller's slices after PutBatch returns changes
// nothing a reader sees, and every cached record equals its PM bytes.
func TestPutBatchOwnsRecordBytes(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	recs := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma")}
	want := make([][]byte, len(recs))
	for i, r := range recs {
		want[i] = bytes.Clone(r)
	}
	scribble := func() {
		for _, r := range recs {
			for j := range r {
				r[j] = '#'
			}
		}
	}
	if err := st.PutBatch(colorA, tok(1), recs); err != nil {
		t.Fatal(err)
	}
	scribble()
	if un := st.Uncommitted(); len(un) != 1 || fmt.Sprint(un[0].Records) != fmt.Sprint(want) {
		t.Fatalf("uncommitted = %q, want %q", un, want)
	}
	if err := st.Commit(tok(1), sn(3)); err != nil {
		t.Fatal(err)
	}
	scribble()
	loc := st.byToken[tok(1)]
	if loc.buf != nil {
		t.Fatal("the entry buffer outlived its commit")
	}
	for i := range want {
		cached, ok := st.cached(colorA, sn(i+1))
		if !ok || !bytes.Equal(cached, want[i]) {
			t.Fatalf("cached record %d = %q, %v; want %q", i, cached, ok, want[i])
		}
		pm, cold, err := st.readLive(loc, i)
		if err != nil || cold || !bytes.Equal(pm, cached) {
			t.Fatalf("PM record %d = %q (cold %v, %v); cached %q", i, pm, cold, err, cached)
		}
		if got, err := st.Get(colorA, sn(i+1)); err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("get %d = %q, %v; want %q", i, got, err, want[i])
		}
	}
	// A cached record cannot be grown into its neighbour.
	if c, _ := st.cached(colorA, sn(1)); cap(c) != len(c) {
		t.Fatalf("cached record has spare capacity %d", cap(c)-len(c))
	}
}

// TestRecoveredEntryIsCachedByItsFirstRead: an entry Recover rebuilt has
// no entry buffer, so its commit fills no cache; the first Get reads PM.
func TestRecoveredEntryIsCachedByItsFirstRead(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	if err := st.PutBatch(colorA, tok(1), [][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatal(err)
	}
	st.Crash()
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(tok(1), sn(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.cached(colorA, sn(1)); ok {
		t.Fatal("commit of a recovered entry filled the cache")
	}
	if got, err := st.Get(colorA, sn(2)); err != nil || string(got) != "b" {
		t.Fatalf("get = %q, %v", got, err)
	}
	if got, ok := st.cached(colorA, sn(2)); !ok || string(got) != "b" {
		t.Fatalf("first read did not cache the record: %q, %v", got, ok)
	}
}

// TestRollWaitsForInFlightEviction: with two PM slots, one holding a
// committed segment the lifecycle has claimed for eviction and the other
// the active segment, a segment roll has nothing to spill itself. It must
// wait for the eviction to free the slot, not fail with ErrOutOfSpace.
// The eviction is paused between its claim and its copy.
func TestRollWaitsForInFlightEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSegments = 2
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	i := 1
	for ; st.Stats().ResidentSegments < cfg.NumSegments; i++ {
		fill(t, st, colorA, i, i+1)
	}

	claimed, release := make(chan struct{}), make(chan struct{})
	st.evictClaimed = func() {
		close(claimed)
		<-release
	}
	evicted := make(chan error, 1)
	go func() { evicted <- st.ForceEvict() }()
	<-claimed

	// A record that fills an empty segment: the active one cannot take it.
	big := bytes.Repeat([]byte{'x'}, int(cfg.SegmentSize)-segHeaderSize-entryHeaderSize-8)
	put := make(chan error, 1)
	go func() { put <- st.PutBatch(colorA, tok(i), [][]byte{big}) }()
	select {
	case err := <-put:
		t.Fatalf("segment roll returned %v while an eviction held the only spillable segment; want it to wait", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-evicted; err != nil {
		t.Fatalf("eviction: %v", err)
	}
	if err := <-put; err != nil {
		t.Fatalf("put after the eviction freed a slot: %v", err)
	}
	if err := st.Commit(tok(i), sn(i)); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get(colorA, sn(i)); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("get = %d bytes, %v", len(got), err)
	}
	if s := st.Stats(); s.Evictions != 1 || s.Flushes != 1 {
		t.Fatalf("evictions = %d, flushes = %d; want the one lifecycle eviction and no on-demand spill", s.Evictions, s.Flushes)
	}
}

// TestRollWaitRechecksToken: two PutBatch calls of one token both need a
// segment roll while the lifecycle's eviction holds the only spillable
// segment, so both wait. The wait releases the allocator lock, so each
// must check the token again once it wakes: exactly one succeeds, the
// other gets ErrDuplicateToken, and the store keeps one entry for the
// token, before and after recovery.
func TestRollWaitRechecksToken(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSegments = 2
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	i := 1
	for ; st.Stats().ResidentSegments < cfg.NumSegments; i++ {
		fill(t, st, colorA, i, i+1)
	}

	claimed, release := make(chan struct{}), make(chan struct{})
	st.evictClaimed = func() {
		close(claimed)
		<-release
	}
	evicted := make(chan error, 1)
	go func() { evicted <- st.ForceEvict() }()
	<-claimed

	big := bytes.Repeat([]byte{'x'}, int(cfg.SegmentSize)-segHeaderSize-entryHeaderSize-8)
	puts := make(chan error, 2)
	for range 2 {
		go func() { puts <- st.PutBatch(colorA, tok(i), [][]byte{big}) }()
	}
	for waiting := uint64(0); waiting < 2; time.Sleep(time.Millisecond) {
		st.alloc.RLock()
		waiting = st.rollWaits
		st.alloc.RUnlock()
	}
	close(release)
	if err := <-evicted; err != nil {
		t.Fatalf("eviction: %v", err)
	}
	var ok, dup int
	for range 2 {
		switch err := <-puts; {
		case err == nil:
			ok++
		case errors.Is(err, ErrDuplicateToken):
			dup++
		default:
			t.Fatalf("put: %v", err)
		}
	}
	if ok != 1 || dup != 1 {
		t.Fatalf("%d puts succeeded and %d were duplicates; want 1 and 1", ok, dup)
	}
	if un := st.Uncommitted(); len(un) != 1 {
		t.Fatalf("%d uncommitted batches, want 1", len(un))
	}
	if err := st.Commit(tok(i), sn(i)); err != nil {
		t.Fatal(err)
	}
	st.Crash()
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if un := st.Uncommitted(); len(un) != 0 {
		t.Fatalf("recovery found %d uncommitted batches next to the committed one", len(un))
	}
	if got, err := st.Get(colorA, sn(i)); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("get = %d bytes, %v", len(got), err)
	}
}

// TestCrashInFusedWindowLeavesNoEntry: entries reserved back to back in
// one segment are written by one fused PM write. A crash after that write
// but before its transaction commits must leave none of them after
// Recover, and their PM range must hold its pre-image again.
func TestCrashInFusedWindowLeavesNoEntry(t *testing.T) {
	cfg := TestConfig()
	cfg.SegmentSize, cfg.NumSegments = 64<<10, 2
	// Every PM write takes 200 ms once latency injection is on, which
	// holds the window's transaction open long after its data landed.
	cfg.PMModel = pmem.LatencyModel{WriteBase: 200 * time.Millisecond}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := st.pm.Snapshot()
	pmBefore := st.Stats().PM

	// Queue the entries behind a running leader, so they form one window.
	const n = 4
	queued, release := holdWindows(st.gc)
	errs := make([]error, n+1)
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = st.PutBatch(colorA, tok(i), [][]byte{bytes.Repeat([]byte{byte(i)}, 100)})
		}(i)
	}
	queued(n)
	st.alloc.RLock()
	first, last := st.byToken[tok(1)], st.byToken[tok(1)]
	for i := 2; i <= n; i++ {
		if loc := st.byToken[tok(i)]; loc.off < first.off {
			first = loc
		} else if loc.off > last.off {
			last = loc
		}
	}
	st.alloc.RUnlock()
	lo := first.seg.pmOff + first.off
	hi := last.seg.pmOff + last.off + entrySize(last.payloadLen)

	defer simclock.Enable(simclock.Enable(true))
	release()
	// Crash once the fused write is in the arena (the leader is then in
	// its modeled write latency, before the watermark and the commit).
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if snap := st.pm.Snapshot(); !bytes.Equal(snap[lo:hi], before[lo:hi]) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the fused write never reached PM")
		}
	}
	st.Crash()
	simclock.Enable(false)
	wg.Wait()
	for i := 1; i <= n; i++ {
		if errs[i] == nil {
			t.Fatalf("put %d succeeded across the crash", i)
		}
	}
	s := st.Stats()
	if s.GC.Fused != n-1 || s.PM.TxCommits != pmBefore.TxCommits {
		t.Fatalf("fused = %d, tx commits %d -> %d; want %d entries fused into one uncommitted transaction",
			s.GC.Fused, pmBefore.TxCommits, s.PM.TxCommits, n)
	}
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if has(st, tok(i)) {
			t.Fatalf("entry %d of the crashed window survived recovery", i)
		}
	}
	if after := st.pm.Snapshot(); !bytes.Equal(after[lo:hi], before[lo:hi]) {
		t.Fatal("the fused range does not hold its pre-image after recovery")
	}
}

// TestAppendPathAllocsFlat guards the append path's allocation diet:
// PutBatch+Commit allocate per batch, never per record (the same count
// for 1 and for 64 records), and filling a warm cache allocates nothing.
func TestAppendPathAllocsFlat(t *testing.T) {
	perBatch := func(n int) float64 {
		cfg := TestConfig()
		// One segment large enough that no run rolls it: a roll's
		// allocations are per segment, not per batch.
		cfg.SegmentSize, cfg.NumSegments, cfg.CacheBytes = 16<<20, 1, 256<<10
		st, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		recs := records(n, 1024)
		i := 0
		op := func() {
			i++
			if err := st.PutBatch(colorA, tok(i), recs); err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(tok(i), sn(i*n)); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the committer's scratch and fill the cache twice over, so
		// every stripe recycles evicted nodes.
		for range max(16, 2*cfg.CacheBytes/(n*1024)) {
			op()
		}
		return testing.AllocsPerRun(150, op)
	}
	one, many := perBatch(1), perBatch(64)
	t.Logf("allocs per PutBatch+Commit: %v for 1 record, %v for 64", one, many)
	if one != many {
		t.Fatalf("PutBatch+Commit allocate %v times for 1 record and %v for 64: allocations grow with the record count", one, many)
	}

	// A batch that arrived over TCP: the FrameDecoder's AppendBatchReq,
	// persisted as the replica persists it, PutEntry of the decoder's
	// entry, then Commit. Its allocations are per batch too, and it
	// allocates no entry-sized buffer: PM and the cache take the
	// decoder's copy.
	decoded := func(n int) (allocs, bytesPerOp uint64) {
		cfg := TestConfig()
		cfg.SegmentSize, cfg.NumSegments, cfg.CacheBytes = 16<<20, 1, 256<<10
		st, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		frame, err := proto.AppendFrame(nil, 1, proto.AppendBatchReq{Color: colorA, Sets: [][][]byte{records(n, 1024)}})
		if err != nil {
			t.Fatal(err)
		}
		var fd proto.FrameDecoder
		const runs = 150
		warm := max(16, 2*cfg.CacheBytes/(n*1024))
		msgs := make([]proto.AppendBatchReq, warm+runs)
		for i := range msgs {
			_, msg, err := fd.Decode(frame[4:])
			if err != nil {
				t.Fatal(err)
			}
			msgs[i] = msg.(proto.AppendBatchReq)
		}
		op := func(i int) {
			m := msgs[i]
			if err := st.PutEntry(m.Color, tok(i+1), m.Entry); err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(tok(i+1), sn((i+1)*n)); err != nil {
				t.Fatal(err)
			}
		}
		for i := range warm {
			op(i)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := warm; i < len(msgs); i++ {
			op(i)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	var allocs [2]uint64
	for i, n := range []int{1, 64} {
		var perOp uint64
		allocs[i], perOp = decoded(n)
		t.Logf("decoded batch of %d: %d allocs, %d B per PutEntry+Commit", n, allocs[i], perOp)
		if perOp >= uint64(n*1024) {
			t.Errorf("a decoded batch of %d KiB allocates %d B: the store copied the decoder's entry", n, perOp)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a decoded batch allocates %d times for 1 record and %d for 64: allocations grow with the record count", allocs[0], allocs[1])
	}

	c := newEntryCache(64 << 10)
	rec := make([]byte, 1024)
	locs := make([]*entryLoc, 256)
	for i := range locs {
		locs[i], _ = recordEntry(i, 0)
	}
	k := 0
	put := func() { k++; c.put(locs[k%len(locs)], 0, rec) }
	for range 256 {
		put()
	}
	if got := testing.AllocsPerRun(1000, put); got != 0 {
		t.Fatalf("a put into a warm cache allocates %v times, want 0", got)
	}
}

// BenchmarkAppendPath times one PutBatch+Commit, the replica's storage
// work per append batch, under a 32 MiB PM budget on 16 × 4 MiB segments
// (the lifecycle spills segments to the cold tier as the log grows).
func BenchmarkAppendPath(b *testing.B) {
	for _, c := range []struct{ n, size int }{{64, 1024}, {7, 128}} {
		b.Run(fmt.Sprintf("%dx%dB", c.n, c.size), func(b *testing.B) {
			cfg := TestConfig()
			cfg.SegmentSize, cfg.NumSegments = 4<<20, 16
			cfg.CacheBytes, cfg.PMBudget = 16<<20, 32<<20
			st, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			recs := records(c.n, c.size)
			b.SetBytes(int64(c.n * c.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if err := st.PutBatch(colorA, tok(i), recs); err != nil {
					b.Fatal(err)
				}
				if err := st.Commit(tok(i), sn(i*c.n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
