package combine

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

type item struct{ g, i int }

// TestQueueProperties has goroutines add items to one queue, some waiting
// for each item and some only kicking, while the flush takes a random time
// and the batch cap is random. Every item must be flushed exactly once, in
// ticket order, in batches no larger than the cap and one flush at a time;
// Wait must return only after its item's flush call returned; and once the
// callers are done nothing may be left queued.
func TestQueueProperties(t *testing.T) {
	const goroutines, each = 8, 300
	for round := range 12 {
		rng := rand.New(rand.NewPCG(uint64(round), 41))
		max := 1 + rng.IntN(16)
		flushRng := rand.New(rand.NewPCG(uint64(round), 42)) // used inside flush only: calls are serialized
		var (
			q        *Queue[item]
			inFlush  atomic.Int32
			flushed  []item // flush order; appended by the flusher only
			returned [goroutines][each]atomic.Bool
			tickets  [goroutines][each]uint64
		)
		q = New(max, func(batch []item) {
			if inFlush.Add(1) != 1 {
				t.Error("two flush calls ran at once")
			}
			if len(batch) == 0 || len(batch) > max {
				t.Errorf("batch of %d items, cap %d", len(batch), max)
			}
			q.Len() // would deadlock if the queue's lock were held across flush
			for range flushRng.IntN(2000) {
				if flushRng.IntN(200) == 0 {
					runtime.Gosched()
				}
			}
			flushed = append(flushed, batch...)
			inFlush.Add(-1)
			for _, it := range batch {
				returned[it.g][it.i].Store(true)
			}
		})
		waits := make([]bool, goroutines) // which callers Wait; the rest Kick
		for g := range waits {
			waits[g] = rng.IntN(2) == 0
		}
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range each {
					tickets[g][i] = q.Add(item{g, i})
					if !waits[g] {
						q.Kick()
						continue
					}
					q.Wait(tickets[g][i])
					if !returned[g][i].Load() {
						t.Errorf("Wait for item %d/%d returned before its flush did", g, i)
						return
					}
				}
			}()
		}
		wg.Wait()
		if n := q.Len(); n != 0 {
			t.Fatalf("round %d (cap %d, waiters %v): %d items left unflushed after the callers returned", round, max, waits, n)
		}
		if len(flushed) != goroutines*each {
			t.Fatalf("round %d: %d items flushed, want %d", round, len(flushed), goroutines*each)
		}
		for k, it := range flushed {
			if tickets[it.g][it.i] != uint64(k+1) {
				t.Fatalf("round %d: flush #%d carried item %d/%d of ticket %d: not FIFO", round, k+1, it.g, it.i, tickets[it.g][it.i])
			}
		}
		if last := q.Last(); last != goroutines*each {
			t.Fatalf("Last() = %d, want %d", last, goroutines*each)
		}
	}
}

// TestKickBehindRunningFlush: Kicks that find a flush running return at
// once, and the running flusher takes their items, in batches of at most
// max, before it stops.
func TestKickBehindRunningFlush(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var flushed []int
	q := New(2, func(b []int) {
		if len(flushed) == 0 {
			close(entered)
			<-gate // hold the first flush while the rest queue
		}
		flushed = append(flushed, b...)
	})
	q.Add(0)
	done := make(chan struct{})
	go func() {
		q.Kick()
		close(done)
	}()
	<-entered
	for i := 1; i <= 10; i++ {
		q.Add(i)
		q.Kick() // returns at once: a flush is running
	}
	close(gate)
	<-done
	if n := q.Len(); n != 0 || len(flushed) != 11 {
		t.Fatalf("after the flusher stopped: %d items unflushed, flushed %v", n, flushed)
	}
}

// TestQueueSteadyStateAllocs: once its arrays have grown, adding, flushing
// and waiting allocate nothing, also when a backlog is split into several
// batches.
func TestQueueSteadyStateAllocs(t *testing.T) {
	sum := 0
	q := New(4, func(b []int) {
		for _, v := range b {
			sum += v
		}
	})
	op := func() {
		for i := range 10 {
			q.Add(i)
		}
		q.Wait(q.Last())
	}
	op()
	if got := testing.AllocsPerRun(100, op); got != 0 {
		t.Fatalf("%v allocations per 10 items in batches of 4, want 0", got)
	}
	if sum != 102*45 {
		t.Fatalf("flushed sum %d, want %d", sum, 102*45)
	}
}
