package bench

import (
	"errors"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/pmem"
	"flexlog/internal/ssd"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Modeled throughput. The bench host cannot host the paper's testbed in
// real time, so the throughput experiments run the protocols functionally
// (latency injection off), count what every node did, and convert the
// counts into time with the calibrated constants the injection path uses:
// each delivered message costs the link model's ProcCost on the node that
// handled it, each device operation its pmem/ssd model time. Work a node
// does on its delivery loop is serial; work one of its lanes takes runs
// on that lane's workers. The busiest node bounds the run, so
//
//	modeled ops/s = operations / max over nodes of
//	    (serial msgs x ProcCost + serial device time) + laned work
//
// where the laned work is (laned msgs x ProcCost + laned device time) /
// workers, or — for a sequencer's order lane, whose colors pin to workers
// and so can skew — the busiest worker's msgs x ProcCost. Load generators
// (the fixture's clients and order drivers) are not charged: they stand
// for the paper's client fleet, which it scales freely.

// nodeCounters is one reading of what a node has done so far.
type nodeCounters struct {
	msgs              uint64              // messages delivered to the node
	read, write       transport.LaneStats // what its lanes took; a sequencer's order lane is its write lane
	readDev, writeDev time.Duration       // modeled device time (replicas only)
}

// snapshot reads every charged node of a fixture at one moment.
type snapshot map[types.NodeID]nodeCounters

// laneSide picks the lane an experiment's model treats as parallel; the
// zero value picks none.
type laneSide int

const (
	readSide laneSide = iota + 1
	writeSide
)

// laneModel says which lane's work leaves the serial path and how it is
// charged: divided across workers, or with workers == 0 at the lane's
// busiest worker. The zero value charges everything serially.
type laneModel struct {
	side    laneSide
	workers int
}

// snapshot reads the counters of every node that is not a load generator.
// Device time uses the calibrated bench models; TimeOf is linear in the
// Stats fields, so the read half alone splits it into read and write side.
func (f *fixture) snapshot() snapshot {
	models := core.BenchClusterConfig().Storage
	snap := make(snapshot)
	for id, msgs := range f.net.NodeDelivered() {
		if f.loadGens[id] {
			continue
		}
		n := nodeCounters{msgs: msgs}
		if f.cl != nil {
			if r := f.cl.Replica(id); r != nil {
				n.read, n.write = r.LaneStats()
				s := r.Store().Stats()
				n.readDev = models.PMModel.TimeOf(pmem.Stats{Reads: s.PM.Reads, BytesRead: s.PM.BytesRead}) +
					models.SSDModel.TimeOf(ssd.Stats{Reads: s.SSD.Reads, BytesRead: s.SSD.BytesRead})
				n.writeDev = models.PMModel.TimeOf(s.PM) + models.SSDModel.TimeOf(s.SSD) - n.readDev
			} else if s := f.cl.Sequencer(id); s != nil {
				n.write = s.LaneStats()
			}
		}
		snap[id] = n
	}
	for _, s := range f.seqs {
		n := snap[s.ID()]
		n.write = s.LaneStats()
		snap[s.ID()] = n
	}
	return snap
}

// busiestNode is the modeled-time function: the largest modeled busy time
// any node accumulated between base and now.
func busiestNode(base, now snapshot, proc time.Duration, m laneModel) time.Duration {
	var busiest time.Duration
	for id, n := range now {
		was := base[id]
		var lane, laneWas transport.LaneStats
		var lanedDev time.Duration
		serialDev := (n.readDev - was.readDev) + (n.writeDev - was.writeDev)
		switch m.side {
		case readSide:
			lane, laneWas, lanedDev = n.read, was.read, n.readDev-was.readDev
		case writeSide:
			lane, laneWas, lanedDev = n.write, was.write, n.writeDev-was.writeDev
		}
		serialDev -= lanedDev
		laned := lane.Enqueued - laneWas.Enqueued
		busy := time.Duration(n.msgs-was.msgs-laned)*proc + serialDev
		if m.workers > 0 {
			busy += (time.Duration(laned)*proc + lanedDev) / time.Duration(m.workers)
		} else {
			var maxWorker uint64
			for i, c := range lane.PerWorker {
				if i < len(laneWas.PerWorker) {
					c -= laneWas.PerWorker[i]
				}
				maxWorker = max(maxWorker, c)
			}
			busy += time.Duration(maxWorker)*proc + lanedDev
		}
		busiest = max(busiest, busy)
	}
	return busiest
}

// modeledRate runs l closed-loop on the fixture and returns the modeled
// throughput of the measured phase — workers x ops operations over the
// busiest node's modeled time since the warm-up ended — and that phase's
// wall time.
func (f *fixture) modeledRate(workers, ops int, l load, m laneModel) (opsPerSec float64, wall time.Duration, err error) {
	var base snapshot
	var start time.Time
	err = closedLoop(workers, ops, l, func() {
		base = f.snapshot()
		start = time.Now()
	})
	if err != nil {
		return 0, 0, err
	}
	wall = time.Since(start)
	busiest := busiestNode(base, f.snapshot(), f.net.Model().ProcCost, m)
	if busiest <= 0 {
		return 0, 0, errors.New("run produced no modeled busy time")
	}
	return float64(workers*ops) / busiest.Seconds(), wall, nil
}
