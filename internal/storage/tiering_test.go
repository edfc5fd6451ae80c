package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"flexlog/internal/types"
)

// fill appends and commits records [from, to) of the color, one per SN.
func fill(t *testing.T, st *Store, color types.ColorID, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		token := types.MakeToken(uint32(color), uint32(i))
		if err := st.Put(color, token, payload(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if err := st.Commit(token, sn(i)); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

// evictAll force-evicts until no candidate remains.
func evictAll(t *testing.T, st *Store) int {
	t.Helper()
	n := 0
	for {
		if err := st.ForceEvict(); err != nil {
			return n
		}
		n++
	}
}

func TestOpenOptionsCompose(t *testing.T) {
	cfg := smallConfig()
	cfg.PMBudget, cfg.CheckpointEvery = 1024, 4
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.lc == nil {
		t.Fatal("lifecycle not started despite budget")
	}
	// With no options and no lifecycle fields: fresh devices, SSD cold
	// tier, no background goroutine.
	st2, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.lc != nil {
		t.Fatal("lifecycle started without budget or checkpointing")
	}
	if st2.cold == nil {
		t.Fatal("no default cold tier")
	}
}

func TestBackgroundEvictionUnderBudget(t *testing.T) {
	cfg := smallConfig()
	cfg.PMBudget = cfg.SegmentSize * 2 // of 3 slots, keep at most ~2 resident
	cfg.LifecycleInterval = time.Millisecond
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fill(t, st, colorA, 1, 60) // appends must never stall under the budget
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st.Stats().Evictions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no background eviction under PM budget pressure")
		}
		time.Sleep(time.Millisecond)
	}
	// Every record is still readable; cold ones fall through to the SSD.
	st.cache.drop(st.byToken[types.MakeToken(uint32(colorA), 1)]) // defeat the fill-time cache for one SN
	for i := 1; i < 60; i++ {
		got, err := st.Get(colorA, sn(i))
		if err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("get %d = %q, %v", i, got, err)
		}
	}
	if st.Stats().ColdMissReads == 0 {
		t.Fatal("no read was served from the cold tier")
	}
	if st.Stats().SSD.Writes == 0 {
		t.Fatal("cold tier saw no puts")
	}
}

func TestCheckpointBoundsRecoveryReplay(t *testing.T) {
	cfg := smallConfig()
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	replayAt := func(hi int) RecoveryStats {
		t.Helper()
		st.Crash()
		if err := st.Recover(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < hi; i++ {
			got, err := st.Get(colorA, sn(i))
			if err != nil || !bytes.Equal(got, payload(i)) {
				t.Fatalf("after recover, get %d = %q, %v", i, got, err)
			}
		}
		return st.LastRecovery()
	}

	fill(t, st, colorA, 1, 40)
	evictAll(t, st)
	if err := st.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	r1 := replayAt(40)
	if r1.CheckpointSeq != 1 || r1.RestoredEntries == 0 {
		t.Fatalf("first recovery ignored the checkpoint: %+v", r1)
	}

	// Grow the log 3x; each round re-checkpoints, so the replayed suffix
	// (scanned images) must stay flat instead of growing with the log.
	var prev = r1
	for round, hi := 0, 40; round < 3; round++ {
		fill(t, st, colorA, hi, hi+40)
		hi += 40
		evictAll(t, st)
		if err := st.ForceCheckpoint(); err != nil {
			t.Fatal(err)
		}
		r := replayAt(hi)
		if r.RestoredEntries <= prev.RestoredEntries-5 {
			t.Fatalf("round %d: restored entries shrank: %+v vs %+v", round, r, prev)
		}
		if r.ReplayedEntries > r1.ReplayedEntries+5 {
			t.Fatalf("round %d: replayed suffix grew with the log: %+v (baseline %+v)", round, r, r1)
		}
		prev = r
	}
}

// TestFreedSlotIsNotReplayed pins that releasing a PM slot is durable:
// recovery scans the segments that were resident at the crash and nothing
// else. The image an evicted segment leaves in its freed slot must not
// shadow the segment's checkpoint record (the restore path would never be
// taken), and a fully-trimmed segment dropped from PM must stay dropped —
// whether or not the slot happened to be reused before the crash.
func TestFreedSlotIsNotReplayed(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSegments = 8 // freed slots stay unused until the crash
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recoverAndScan := func() RecoveryStats {
		t.Helper()
		resident := st.Stats().ResidentSegments
		st.Crash()
		if err := st.Recover(); err != nil {
			t.Fatal(err)
		}
		r := st.LastRecovery()
		if r.ScannedSegments != resident {
			t.Fatalf("recovery scanned %d segments, %d were resident at the crash: %+v", r.ScannedSegments, resident, r)
		}
		return r
	}

	fill(t, st, colorA, 1, 40)
	evicted := evictAll(t, st)
	if evicted < 2 {
		t.Fatalf("only %d segments evicted; the test needs several freed slots", evicted)
	}
	if err := st.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if r := recoverAndScan(); r.CoveredSegments != evicted || r.RestoredEntries == 0 {
		t.Fatalf("evicted segments were not restored from the checkpoint: %+v (evicted %d)", r, evicted)
	}
	for i := 1; i < 40; i++ {
		if got, err := st.Get(colorA, sn(i)); err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("after recover, get %d = %q, %v", i, got, err)
		}
	}

	// Dead-segment GC: trim the resident prefix away and reclaim it.
	fill(t, st, colorA, 40, 80)
	if _, _, err := st.Trim(colorA, sn(70)); err != nil {
		t.Fatal(err)
	}
	before := st.Stats().GCSegments
	st.reclaimDeadResident()
	if st.Stats().GCSegments == before {
		t.Fatal("no fully-trimmed resident segment was reclaimed")
	}
	recoverAndScan()
	if _, err := st.Get(colorA, sn(45)); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("trimmed record after recover: %v, want ErrTrimmed", err)
	}
	if got, err := st.Get(colorA, sn(79)); err != nil || !bytes.Equal(got, payload(79)) {
		t.Fatalf("live tail after recover = %q, %v", got, err)
	}
}

func TestCrashMidEviction(t *testing.T) {
	cfg := smallConfig()
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fill(t, st, colorA, 1, 25)
	st.InjectCrash(CrashMidEviction)
	if err := st.ForceEvict(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("ForceEvict with armed failpoint: %v", err)
	}
	// The crash hit between the cold Put and its Sync: the blob may be
	// torn, but the PM copy survived, so recovery must lose nothing.
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 25; i++ {
		got, err := st.Get(colorA, sn(i))
		if err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("get %d after mid-eviction crash = %q, %v", i, got, err)
		}
	}
}

// TestCrashMidOnDemandSpill: with no lifecycle, a segment roll that finds
// every PM slot full spills the oldest segment itself, through the same
// spill as the lifecycle — so the armed failpoint must fire there, and
// recovery must lose nothing because the PM copy wins over the torn blob.
func TestCrashMidOnDemandSpill(t *testing.T) {
	cfg := smallConfig() // PMBudget 0, CheckpointEvery 0: no lifecycle
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	i := 1
	for ; st.Stats().ResidentSegments < cfg.NumSegments; i++ {
		fill(t, st, colorA, i, i+1)
	}
	if f := st.Stats().Flushes; f != 0 {
		t.Fatalf("%d spills before every slot was full", f)
	}
	st.InjectCrash(CrashMidEviction)
	for limit := i + 20; ; i++ {
		if i == limit {
			t.Fatal("no segment roll hit the armed failpoint")
		}
		err := st.Put(colorA, tok(i), payload(i))
		if errors.Is(err, ErrInjectedCrash) {
			break
		}
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if err := st.Commit(tok(i), sn(i)); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if r := st.LastRecovery(); r.ScannedSegments != cfg.NumSegments {
		t.Fatalf("recovery scanned %d segments, want the %d resident ones: %+v", r.ScannedSegments, cfg.NumSegments, r)
	}
	for j := 1; j < i; j++ {
		got, err := st.Get(colorA, sn(j))
		if err != nil || !bytes.Equal(got, payload(j)) {
			t.Fatalf("get %d after mid-spill crash = %q, %v", j, got, err)
		}
	}
}

func TestCrashMidCheckpoint(t *testing.T) {
	cfg := smallConfig()
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fill(t, st, colorA, 1, 20)
	evictAll(t, st)
	if err := st.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	fill(t, st, colorA, 20, 30)
	evictAll(t, st)
	st.InjectCrash(CrashMidCheckpoint)
	if err := st.ForceCheckpoint(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("ForceCheckpoint with armed failpoint: %v", err)
	}
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	r := st.LastRecovery()
	if r.CheckpointSeq != 1 {
		t.Fatalf("recovery did not fall back to the previous checkpoint: %+v", r)
	}
	for i := 1; i < 30; i++ {
		got, err := st.Get(colorA, sn(i))
		if err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("get %d after mid-checkpoint crash = %q, %v", i, got, err)
		}
	}
}

func TestCheckpointTruncatedSentinel(t *testing.T) {
	cfg := smallConfig()
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fill(t, st, colorA, 1, 20)
	if _, _, err := st.Trim(colorA, sn(8)); err != nil {
		t.Fatal(err)
	}
	evictAll(t, st)
	if err := st.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	st.Crash()
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	_, err = st.Get(colorA, sn(3))
	if !errors.Is(err, ErrTrimmed) || !errors.Is(err, ErrCheckpointTruncated) {
		t.Fatalf("read below checkpoint floor: %v", err)
	}
	// Above the floor: plain reads still work.
	if got, err := st.Get(colorA, sn(15)); err != nil || !bytes.Equal(got, payload(15)) {
		t.Fatalf("get above floor = %q, %v", got, err)
	}
}

func TestColdGCReclaimsCoveredDeadSegments(t *testing.T) {
	cfg := smallConfig()
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fill(t, st, colorA, 1, 30)
	evicted := evictAll(t, st)
	if evicted == 0 {
		t.Fatal("nothing evicted")
	}
	if _, _, err := st.Trim(colorA, sn(29)); err != nil {
		t.Fatal(err)
	}
	// GC must refuse until a checkpoint covers the trim markers…
	st.gcCold()
	if st.Stats().GCSegments != 0 {
		t.Fatal("cold GC ran before a checkpoint covered the segments")
	}
	if err := st.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	// …then reclaim the dead cold blobs.
	st.gcCold()
	s := st.Stats()
	if s.GCSegments == 0 {
		t.Fatalf("cold GC reclaimed nothing after checkpoint: %+v", s)
	}
	// Crash-safety of the deletion: the trims survive recovery even though
	// the blobs are gone.
	st.Crash()
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(colorA, sn(10)); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("trimmed record resurfaced after GC+crash: %v", err)
	}
}

// TestTieredLifecycleStress drives appends, cold reads, trims, forced
// evictions and checkpoints concurrently (run with -race).
func TestTieredLifecycleStress(t *testing.T) {
	cfg := TestConfig()
	cfg.SegmentSize = 1024
	cfg.NumSegments = 4
	cfg.CacheBytes = 2048
	cfg.PMBudget = 2048
	cfg.CheckpointEvery = 8
	cfg.LifecycleInterval = time.Millisecond
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const perColor = 300
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for _, color := range []types.ColorID{colorA, colorB} {
		color := color
		wg.Add(1)
		go func() { // writer
			defer wg.Done()
			for i := 1; i <= perColor; i++ {
				token := types.MakeToken(uint32(color), uint32(i))
				if err := st.Put(color, token, payload(i)); err != nil {
					errCh <- fmt.Errorf("put %v/%d: %w", color, i, err)
					return
				}
				if err := st.Commit(token, types.MakeSN(1, uint32(i))); err != nil {
					errCh <- fmt.Errorf("commit %v/%d: %w", color, i, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // reader
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(color)))
			for i := 0; i < 2*perColor; i++ {
				s := types.MakeSN(1, uint32(1+rng.Intn(perColor)))
				data, err := st.Get(color, s)
				switch {
				case err == nil:
					want := payload(int(s.Counter()))
					if !bytes.Equal(data, want) {
						errCh <- fmt.Errorf("get %v/%v = %q, want %q", color, s, data, want)
						return
					}
				case errors.Is(err, ErrNotFound), errors.Is(err, ErrTrimmed):
				default:
					errCh <- fmt.Errorf("get %v/%v: %w", color, s, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // trimmer
			defer wg.Done()
			for i := 0; i < 10; i++ {
				floor := uint32((i + 1) * perColor / 20) // trim the older half
				if floor == 0 {
					continue
				}
				if _, _, err := st.Trim(color, types.MakeSN(1, floor)); err != nil {
					errCh <- fmt.Errorf("trim %v: %w", color, err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Add(1)
	go func() { // lifecycle forcing
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = st.ForceEvict() // "no evictable segment" is fine
			if err := st.ForceCheckpoint(); err != nil && !errors.Is(err, ErrInjectedCrash) {
				errCh <- fmt.Errorf("checkpoint: %w", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Settle and verify the surviving window reads back intact.
	st.Crash()
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, color := range []types.ColorID{colorA, colorB} {
		trimmed := st.Trimmed(color)
		for i := int(trimmed.Counter()) + 1; i <= perColor; i++ {
			got, err := st.Get(color, types.MakeSN(1, uint32(i)))
			if err != nil || !bytes.Equal(got, payload(i)) {
				t.Fatalf("post-stress get %v/%d = %q, %v", color, i, got, err)
			}
		}
	}
}

// TestPendingTrimMarkerKeepsSegmentInPM: Trim reserves its marker under
// the allocator lock but writes it in a later group-commit window. A
// segment that leaves PM before that window commits would copy no marker
// to the cold tier, and the late write would land in a slot the segment
// no longer owns: the trim is lost across a crash. The committer is held
// busy while the marker waits, a put rolls the segment, and an eviction
// runs; the eviction must not copy the segment before the marker is
// durable.
func TestPendingTrimMarkerKeepsSegmentInPM(t *testing.T) {
	st, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fill(t, st, colorA, 1, 4)

	queued, release := holdWindows(st.gc) // a leader busy with another window
	trimmed := make(chan error, 1)
	go func() { _, _, err := st.Trim(colorA, sn(2)); trimmed <- err }()
	queued(1)
	put := make(chan error, 1) // 440 bytes do not fit: the put rolls the segment
	go func() { put <- st.Put(colorB, types.MakeToken(2, 1), make([]byte, 400)) }()
	queued(2)
	evicted := make(chan error, 1)
	go func() { evicted <- st.ForceEvict() }()
	// A store whose victim scan does not drain the committer finishes the
	// eviction here, copying the segment while its marker is queued; one
	// that drains waits for the busy leader instead.
	select {
	case err := <-evicted:
		evicted <- err
	case <-time.After(50 * time.Millisecond):
	}
	release()
	for _, ch := range []chan error{trimmed, put} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-evicted; err != nil {
		t.Fatal(err)
	}

	st.Crash()
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := st.Trimmed(colorA); got < sn(2) {
		t.Fatalf("trim lost across the eviction: trimmed = %v, want >= %v", got, sn(2))
	}
	if data, err := st.Get(colorA, sn(3)); err != nil || !bytes.Equal(data, payload(3)) {
		t.Fatalf("get %v = %q, %v", sn(3), data, err)
	}
}
