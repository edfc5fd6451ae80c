package bench

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// TestBusiestNode pins the modeled-time formula on a hand-built pair of
// snapshots: a replica-like node with a read lane and device time, and a
// sequencer-like node with a skewed order lane.
func TestBusiestNode(t *testing.T) {
	const us = time.Microsecond
	base := snapshot{
		1: {msgs: 100, read: transport.LaneStats{Enqueued: 50}, readDev: 10 * us, writeDev: 5 * us},
		2: {msgs: 10, write: transport.LaneStats{Enqueued: 4, PerWorker: []uint64{3, 1}}},
	}
	now := snapshot{
		// 1000 messages, 800 of them taken by the read lane; 160 µs of
		// device reads and 40 µs of device writes.
		1: {msgs: 1100, read: transport.LaneStats{Enqueued: 850}, readDev: 170 * us, writeDev: 45 * us},
		// 500 messages, 400 of them taken by the order lane, 300 on one
		// worker.
		2: {msgs: 510, write: transport.LaneStats{Enqueued: 404, PerWorker: []uint64{303, 101}}},
	}
	for _, tc := range []struct {
		name  string
		model laneModel
		want  time.Duration
	}{
		// Everything serial: node 1 pays 1000 msgs + all its device time.
		{"serial", laneModel{}, 1200 * us},
		// Read side over 16 workers: node 1 drops to 200 msgs + 40 µs
		// serial plus (800 msgs + 160 µs)/16 = 300 µs, so node 2's 500
		// serial messages become the bottleneck.
		{"read lane / 16", laneModel{readSide, 16}, 500 * us},
		// Same split undivided is the serial sum again.
		{"read lane / 1", laneModel{readSide, 1}, 1200 * us},
		// Write side over 4: node 1 = 1000 msgs + 160 µs + 40 µs/4.
		{"write lane / 4", laneModel{writeSide, 4}, 1170 * us},
		// Busiest worker: node 2 = 100 serial + 300 on its busiest worker;
		// node 1 has no write lane, so it stays at 1200 µs.
		{"write lane, busiest worker", laneModel{side: writeSide}, 1200 * us},
	} {
		if got := busiestNode(base, now, us, tc.model); got != tc.want {
			t.Errorf("%s: busiest node %v, want %v", tc.name, got, tc.want)
		}
	}
	// Node 2 alone under the busiest-worker rule, with a node the baseline
	// has not seen (it counts from zero).
	delete(now, 1)
	now[3] = nodeCounters{msgs: 50}
	if got := busiestNode(base, now, us, laneModel{side: writeSide}); got != 400*us {
		t.Errorf("busiest worker: %v, want 400µs", got)
	}
}

// TestClosedLoopPhases checks the driver's ordering contract: every
// worker finishes its warm-up before afterWarmup runs, and no measured
// operation starts before it returns.
func TestClosedLoopPhases(t *testing.T) {
	const workers, warmOps, ops = 4, 3, 10
	var warm, measured atomic.Int64
	hookRan := false
	err := closedLoop(workers, ops, load{warmOps: warmOps, op: func(w, i int, isWarm bool) error {
		if isWarm {
			warm.Add(1)
		} else {
			measured.Add(1)
		}
		return nil
	}}, func() {
		hookRan = true
		if warm.Load() != workers*warmOps || measured.Load() != 0 {
			t.Errorf("afterWarmup saw %d warm and %d measured operations, want %d and 0", warm.Load(), measured.Load(), workers*warmOps)
		}
	})
	if err != nil || !hookRan || measured.Load() != workers*ops {
		t.Errorf("err=%v hookRan=%v measured=%d, want nil, true, %d", err, hookRan, measured.Load(), workers*ops)
	}
}

// TestClosedLoopFirstError checks that a failing worker stops at its
// first error while the others finish, that the error is returned, and
// that a warm-up error ends the run before afterWarmup.
func TestClosedLoopFirstError(t *testing.T) {
	boom := errors.New("boom")
	var perWorker [3]atomic.Int64
	err := closedLoop(3, 5, load{op: func(w, i int, _ bool) error {
		perWorker[w].Add(1)
		if w == 1 && i == 1 {
			return boom
		}
		return nil
	}}, nil)
	if !errors.Is(err, boom) {
		t.Errorf("closedLoop returned %v, want %v", err, boom)
	}
	if a, b, c := perWorker[0].Load(), perWorker[1].Load(), perWorker[2].Load(); a != 5 || b != 2 || c != 5 {
		t.Errorf("operations per worker %d/%d/%d, want 5/2/5", a, b, c)
	}

	err = closedLoop(2, 5, load{warmOps: 1, op: func(w, _ int, warm bool) error {
		if !warm {
			t.Error("measured phase ran after a warm-up error")
		}
		if w == 0 {
			return boom
		}
		return nil
	}}, func() { t.Error("afterWarmup ran after a warm-up error") })
	if !errors.Is(err, boom) {
		t.Errorf("closedLoop returned %v, want %v", err, boom)
	}
}

// TestFixtureOwnsLoadGeneratorsAndTeardown checks the two things every
// experiment now leaves to the fixture: the snapshot charges exactly the
// nodes that are not its drivers, and stop() releases the network's
// goroutines while the delivery counters stay readable.
func TestFixtureOwnsLoadGeneratorsAndTeardown(t *testing.T) {
	before := runtime.NumGoroutine()
	f, err := newOrderingFixture(orderingSpec{n: 2, drivers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := closedLoop(2, 20, f.orderLoad([]types.ColorID{types.MasterColor}, 0), nil); err != nil {
		f.stop()
		t.Fatal(err)
	}
	f.stop()
	snap := f.snapshot()
	if len(snap) != 3 || snap[f.seqs[0].ID()].msgs == 0 || snap[f.entries[0]].msgs < 40 {
		t.Errorf("snapshot after stop = %+v, want the three sequencers with the run's deliveries", snap)
	}
	for _, d := range f.drivers {
		if _, charged := snap[d.id]; charged {
			t.Errorf("driver %v is charged by the model", d.id)
		}
	}
	checkNoGoroutineLeak(t, "a stopped ordering fixture", before)
}
