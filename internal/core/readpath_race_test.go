package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexlog/internal/types"
)

// TestReadLaneLinearizableUnderStress drives the two-lane replica with
// concurrent readers hammering the committed frontier while batched
// appends land and trims advance the floor. It asserts the §6.1/§6.3
// read semantics survive the concurrent read path:
//
//   - a read of a committed SN above the trim floor returns exactly the
//     record appended there (no stale or torn data from the lock-free
//     watermark/cache/storage paths);
//   - ⊥ for such an SN is a linearizability violation (holes cannot
//     exist in this workload) — unless a trim raced past it;
//   - reads above the frontier are held and legally resolve to the
//     record or ⊥ (read-hold, §6.3).
//
// Run with -race (the Makefile's race target includes this package).
func TestReadLaneLinearizableUnderStress(t *testing.T) {
	cfg := TestClusterConfig()
	cfg.Profile.ReadWorkers = 4
	// No sequencer backups: under stress the leader's heartbeats can starve
	// long enough for a backup to claim epoch+1, which resets the SN counter
	// and invalidates the dense counter space this test samples. Failover
	// has its own tests; this one is about the concurrent read path.
	cfg.SeqBackups = 0
	cl, err := SimpleCluster(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	writer, err := cl.NewClient(WithBatching(BatchConfig{
		MaxBatchBytes: 96, // 8 of the 12-byte records
		MaxBatchDelay: 100 * time.Microsecond,
		MaxInFlight:   4,
	}))
	if err != nil {
		t.Fatal(err)
	}
	trimmer, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}

	const (
		totalAppends = 1200
		inFlight     = 16
		readers      = 4
		readsEach    = 500 // reads per reader, however the scheduler runs it
	)
	// SNs are epoch<<32|counter and the epoch stays 1 in this test (no
	// failover), so the frontier and trim floor are tracked as counters —
	// a dense space the readers can sample uniformly.
	var (
		payloads sync.Map      // types.SN -> []byte
		frontier atomic.Uint64 // highest counter whose predecessors are all in payloads
		floor    atomic.Uint64 // trim floor counter: sn <= floor may be gone
		writerWG sync.WaitGroup
		readerWG sync.WaitGroup
	)
	stop := make(chan struct{})
	errCh := make(chan error, readers+2)
	aborted := make(chan struct{}) // closed by the first failure
	var abortOnce sync.Once
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
		abortOnce.Do(func() { close(aborted) })
	}
	record := func(i int) []byte { return []byte(fmt.Sprintf("rec-%08d", i)) }

	// Writer: pipelined batched appends, futures collected in submission
	// order. SNs are granted in submission order here (single writer,
	// single shard, FIFO links), so once future i resolves every SN up to
	// it is already in the map and the frontier may advance.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		futs := make([]*AppendFuture, 0, inFlight)
		flushOne := func() bool {
			fut := futs[0]
			futs = futs[1:]
			sn, err := fut.Wait(context.Background())
			if err != nil {
				fail(fmt.Errorf("append: %w", err))
				return false
			}
			c := uint64(sn.Counter())
			if prev := frontier.Load(); c <= prev {
				fail(fmt.Errorf("append SNs not monotone: got %v after frontier counter %d", sn, prev))
				return false
			}
			frontier.Store(c)
			return true
		}
		for i := 1; i <= totalAppends; i++ {
			fut := writer.AsyncAppend([][]byte{record(i)}, types.MasterColor)
			// The batch commits as one SN range in submission order, so
			// record i gets SN counter i: index it before the frontier can
			// reach it.
			payloads.Store(types.MakeSN(1, uint32(i)), record(i))
			futs = append(futs, fut)
			if len(futs) >= inFlight {
				if !flushOne() {
					return
				}
			}
		}
		for len(futs) > 0 {
			if !flushOne() {
				return
			}
		}
	}()

	// Trimmer: advances the floor, always publishing it before the trim
	// hits the replicas so readers never mistake a trimmed ⊥ for a hole.
	// Runs until stop, once the writer and the readers are done.
	var trimmerWG sync.WaitGroup
	trimmerWG.Add(1)
	go func() {
		defer trimmerWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
			}
			f := frontier.Load()
			if f < floor.Load()+200 {
				continue
			}
			newFloor := f - 150
			floor.Store(newFloor)
			if _, _, err := trimmer.Trim(types.MakeSN(1, uint32(newFloor)), types.MasterColor); err != nil {
				fail(fmt.Errorf("trim: %w", err))
				return
			}
		}
	}()

	for g := 0; g < readers; g++ {
		rc, err := cl.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		readerWG.Add(1)
		go func(rc *Client, seed int64) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			// Each reader runs until it has done readsEach reads, so
			// the reads happen however the scheduler starves the readers.
			for done := 0; done < readsEach; {
				select {
				case <-aborted:
					return
				default:
				}
				lo, hi := floor.Load(), frontier.Load()
				if hi <= lo {
					continue
				}
				done++
				sn := types.MakeSN(1, uint32(lo+1+uint64(rng.Int63n(int64(hi-lo)))))
				if rng.Intn(16) == 0 {
					// Probe above the frontier: exercises read-hold. The
					// record or ⊥ are both legal (§6.3).
					sn = types.MakeSN(1, uint32(hi+1))
					data, err := rc.Read(sn, types.MasterColor)
					if err != nil && !errors.Is(err, ErrNotFound) {
						fail(fmt.Errorf("held read %v: %w", sn, err))
						return
					}
					if err == nil {
						if want, ok := payloads.Load(sn); ok && !bytes.Equal(data, want.([]byte)) {
							fail(fmt.Errorf("held read %v returned %q, want %q", sn, data, want))
							return
						}
					}
					continue
				}
				data, err := rc.Read(sn, types.MasterColor)
				if err != nil {
					if errors.Is(err, ErrNotFound) && uint64(sn.Counter()) <= floor.Load() {
						continue // trim raced past the SN we picked
					}
					fail(fmt.Errorf("read %v (floor %d, frontier %d): %w", sn, floor.Load(), frontier.Load(), err))
					return
				}
				want, ok := payloads.Load(sn)
				if !ok {
					fail(fmt.Errorf("read %v returned data for an SN never indexed", sn))
					return
				}
				if !bytes.Equal(data, want.([]byte)) {
					fail(fmt.Errorf("read %v returned %q, want %q", sn, data, want))
					return
				}
			}
		}(rc, int64(g+1))
	}

	writerWG.Wait()
	readerWG.Wait()
	close(stop)
	trimmerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if frontier.Load() == 0 {
		t.Fatal("writer made no progress")
	}

	// The lane actually served the reads: every replica of the shard has
	// lane traffic or the cluster silently fell back to the serial path.
	laneSeen := false
	for _, row := range laneSnapshots(cl) {
		if row.Lane == "read" && row.Enqueued > 0 {
			laneSeen = true
			break
		}
	}
	if !laneSeen {
		t.Fatal("no read was served through a replica read lane")
	}
}
