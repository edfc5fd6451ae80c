package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/metrics"
	"flexlog/internal/pmem"
	"flexlog/internal/ssd"
	"flexlog/internal/transport"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ablate-readpath",
		Title: "Ablation: parallel replica read path (read lane + striped cache)",
		Run:   runAblateReadPath,
	})
}

// runAblateReadPath measures what the concurrent read/subscribe lane buys:
//
//   - Throughput (modeled, functional run): N reader clients run a read-
//     heavy mix against one shard. With the lane off every ReadReq is
//     processed serially on the replica's delivery loop, competing with
//     the mutation stream; with the lane on, read-class messages fan out
//     across the replica's worker pool and only mutations stay serial.
//     Modeled time charges read-class work at 1/workers of its serial
//     cost on the busiest node (the workers run concurrently) — the same
//     message+device accounting as fig4/fig11, split by message class.
//   - Latency (injected run): a single closed-loop reader, where the lane
//     cannot help — the acceptance bar is that it also does not hurt
//     (dispatch overhead must stay in the noise).
//
// Client-side append batching is ON in both modes — all readers share one
// client handle so concurrent appends actually coalesce — keeping the
// mutation lane equally amortized; the comparison isolates the read path.
func runAblateReadPath(cfg RunConfig) (*Report, error) {
	readerCounts := []int{1, 4, 16, 64}
	opsPerReader := 300
	latOps := 150
	if cfg.Quick {
		readerCounts = []int{1, 64}
		opsPerReader = 80
		latOps = 40
	}

	series := map[int]map[string]*metrics.Series{
		95: {
			"off": metrics.NewSeries("95%R lane off", "kOps/s"),
			"on":  metrics.NewSeries("95%R lane on", "kOps/s"),
		},
		50: {
			"off": metrics.NewSeries("50%R lane off", "kOps/s"),
			"on":  metrics.NewSeries("50%R lane on", "kOps/s"),
		},
	}
	notes := []string{
		"modeled throughput over the busiest node; read-class messages and device reads charged at 1/workers with the lane on",
		"client-side append batching enabled in both modes; reads hit the striped cache zero-copy",
	}

	var laneNote string
	for _, mix := range []int{95, 50} {
		for _, readers := range readerCounts {
			for _, mode := range []string{"off", "on"} {
				ops, note, err := readPathThroughput(mix, readers, opsPerReader, mode == "on")
				if err != nil {
					return nil, err
				}
				series[mix][mode].Add(fmt.Sprint(readers), ops/1e3)
				// Keep the lane counters of the biggest lane-on run.
				if mode == "on" && mix == 95 && readers == readerCounts[len(readerCounts)-1] {
					laneNote = note
				}
			}
		}
	}
	if laneNote != "" {
		notes = append(notes, laneNote)
	}

	// Single-reader injected latency: the lane must not tax a lone reader.
	// One point each, anchored at the 1-reader row (Table is positional).
	latOffS := metrics.NewSeries("1-reader lat off", "usec")
	latOnS := metrics.NewSeries("1-reader lat on", "usec")
	for _, mode := range []string{"off", "on"} {
		var lat time.Duration
		err := withLatencyInjection(func() error {
			var err error
			lat, err = readPathLatency(latOps, mode == "on")
			return err
		})
		if err != nil {
			return nil, err
		}
		s := latOffS
		if mode == "on" {
			s = latOnS
		}
		s.Add(fmt.Sprint(readerCounts[0]), float64(lat)/1e3)
	}

	return &Report{
		ID:      "ablate-readpath",
		Title:   "read-path ablation: the read lane unserializes replica reads; a lone reader pays nothing",
		XHeader: "readers",
		Series: []*metrics.Series{
			series[95]["off"], series[95]["on"],
			series[50]["off"], series[50]["on"],
			latOffS, latOnS,
		},
		Notes: notes,
	}, nil
}

// readPathTuning is clientBatchTuning with a 10x MaxBatchDelay. The runs
// here are functional (modeled time, not wall time), but coalescing happens
// in real time: on a loaded CI machine a 100 µs cap on how long appends are
// held behind unacknowledged batches cuts ragged small batches, which makes
// the serial mutation share — and so the lane-off/lane-on ratio — noisy
// across runs. With the longer cap batches leave on acknowledgements and on
// size, not on scheduling luck, in both lane modes alike.
func readPathTuning() core.BatchConfig {
	t := clientBatchTuning()
	t.MaxBatchDelay = time.Millisecond
	return t
}

// readPathCluster builds the 1-shard deployment with the lane on or off.
func readPathCluster(laneOn bool) (*core.Cluster, int, error) {
	ccfg := core.BenchClusterConfig()
	ccfg.SeqBackups = 0
	workers := ccfg.ReadWorkers
	if !laneOn {
		ccfg.ReadWorkers = 0
		workers = 1
	}
	cl, err := core.SimpleCluster(ccfg, 1)
	return cl, workers, err
}

// readPathWorkload drives the mix: all readers share one batched client
// handle (so concurrent appends coalesce), each reader appends a small
// warm-up working set, then runs mix% reads against it. afterWarmup fires
// once all readers are warm.
func readPathWorkload(cl *core.Cluster, mix, readers, opsPerReader int, appendH, readH *metrics.Histogram, afterWarmup func()) error {
	payload := workload.Payload(128, 7)
	var firstErr error
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	c, err := cl.NewClient(core.WithBatching(readPathTuning()))
	if err != nil {
		return err
	}
	type workerState struct {
		c   *core.Client
		own []types.SN
	}
	workers := make([]*workerState, readers)
	var warm sync.WaitGroup
	for w := 0; w < readers; w++ {
		workers[w] = &workerState{c: c}
		warm.Add(1)
		go func(ws *workerState) {
			defer warm.Done()
			for i := 0; i < 8; i++ {
				sn, err := ws.c.Append([][]byte{payload}, types.MasterColor)
				if err != nil {
					fail(fmt.Errorf("warmup append: %w", err))
					return
				}
				ws.own = append(ws.own, sn)
			}
		}(workers[w])
	}
	warm.Wait()
	if firstErr != nil {
		return firstErr
	}
	if afterWarmup != nil {
		afterWarmup()
	}

	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int, ws *workerState) {
			defer wg.Done()
			m := workload.NewMix(mix, int64(w)+5)
			rng := rand.New(rand.NewSource(int64(w) + 23))
			for i := 0; i < opsPerReader; i++ {
				if m.NextIsRead() {
					sn := ws.own[rng.Intn(len(ws.own))]
					t0 := time.Now()
					if _, err := ws.c.Read(sn, types.MasterColor); err != nil {
						fail(fmt.Errorf("read: %w", err))
						return
					}
					if readH != nil {
						readH.Record(time.Since(t0))
					}
					continue
				}
				t0 := time.Now()
				sn, err := ws.c.Append([][]byte{payload}, types.MasterColor)
				if err != nil {
					fail(fmt.Errorf("append: %w", err))
					return
				}
				if appendH != nil {
					appendH.Record(time.Since(t0))
				}
				ws.own = append(ws.own, sn)
				if len(ws.own) > 64 {
					ws.own = ws.own[1:]
				}
			}
		}(w, workers[w])
	}
	wg.Wait()
	return firstErr
}

// readPathBaseline snapshots per-node counters at the start of the
// measured phase: total and read-class message counts, and replica device
// time split into its read and write components.
type readPathBaseline struct {
	msgs     map[types.NodeID]uint64
	readMsgs map[types.NodeID]uint64
	readDev  map[types.NodeID]time.Duration
	writeDev map[types.NodeID]time.Duration
}

func snapshotReadPath(cl *core.Cluster) readPathBaseline {
	rd, wr := replicaDeviceSplit(cl)
	readMsgs, _ := laneMsgs(cl)
	return readPathBaseline{
		msgs:     cl.Network().NodeDelivered(),
		readMsgs: readMsgs,
		readDev:  rd,
		writeDev: wr,
	}
}

// laneMsgs returns, per node, how many messages its read lane and its
// write lane (for a sequencer, its order lane) have taken so far. The
// counts come from the nodes, which own their lanes; a node without the
// lane reports 0.
func laneMsgs(cl *core.Cluster) (read, write map[types.NodeID]uint64) {
	read, write = make(map[types.NodeID]uint64), make(map[types.NodeID]uint64)
	for id := range cl.Network().NodeDelivered() {
		var rd, wr transport.LaneStats
		if r := cl.Replica(id); r != nil {
			rd, wr = r.LaneStats()
		} else if s := cl.Sequencer(id); s != nil {
			wr = s.LaneStats()
		}
		read[id], write[id] = rd.Enqueued, wr.Enqueued
	}
	return read, write
}

// replicaDeviceSplit returns per-replica modeled device time split into
// the read side and the write side, using the calibrated bench models.
// TimeOf is linear in the Stats fields, so zeroing one half splits it.
func replicaDeviceSplit(cl *core.Cluster) (readDev, writeDev map[types.NodeID]time.Duration) {
	storageCfg := core.BenchClusterConfig().Storage
	readDev = make(map[types.NodeID]time.Duration)
	writeDev = make(map[types.NodeID]time.Duration)
	for _, sh := range cl.Topology().ShardsInRegion(types.MasterColor) {
		for _, id := range sh.Replicas {
			r := cl.Replica(id)
			if r == nil {
				continue
			}
			s := r.Store().Stats()
			readDev[id] = storageCfg.PMModel.TimeOf(pmem.Stats{Reads: s.PM.Reads, BytesRead: s.PM.BytesRead}) +
				storageCfg.SSDModel.TimeOf(ssd.Stats{Reads: s.SSD.Reads, BytesRead: s.SSD.BytesRead})
			writeDev[id] = storageCfg.PMModel.TimeOf(s.PM) + storageCfg.SSDModel.TimeOf(s.SSD) - readDev[id]
		}
	}
	return readDev, writeDev
}

// readPathBusiestTime is busiestNodeTime made lane-aware: on each node the
// mutation stream (messages and device writes) stays serial, while the
// read-class messages and device reads divide across the lane workers.
func readPathBusiestTime(cl *core.Cluster, base readPathBaseline, laneWorkers int) time.Duration {
	proc := cl.Network().Model().ProcCost
	msgs := cl.Network().NodeDelivered()
	readMsgs, _ := laneMsgs(cl)
	readDev, writeDev := replicaDeviceSplit(cl)
	var busiest time.Duration
	for id, n := range msgs {
		if id >= 100_000 {
			continue // clients model the paper's load-generating fleet
		}
		reads := readMsgs[id] - base.readMsgs[id]
		mut := (n - base.msgs[id]) - reads
		serial := time.Duration(mut)*proc + (writeDev[id] - base.writeDev[id])
		par := time.Duration(reads)*proc + (readDev[id] - base.readDev[id])
		busy := serial + par/time.Duration(laneWorkers)
		if busy > busiest {
			busiest = busy
		}
	}
	return busiest
}

// readPathThroughput returns the modeled ops/s of one functional run, plus
// a lane-counter note for lane-on runs.
func readPathThroughput(mix, readers, opsPerReader int, laneOn bool) (float64, string, error) {
	cl, laneWorkers, err := readPathCluster(laneOn)
	if err != nil {
		return 0, "", err
	}
	defer cl.Stop()
	var base readPathBaseline
	err = readPathWorkload(cl, mix, readers, opsPerReader, nil, nil, func() {
		base = snapshotReadPath(cl)
	})
	if err != nil {
		return 0, "", err
	}
	busiest := readPathBusiestTime(cl, base, laneWorkers)
	if busiest <= 0 {
		return 0, "", fmt.Errorf("readpath: no modeled busy time")
	}

	note := ""
	if laneOn {
		var enq, maxDepth, wakeups uint64
		var busy time.Duration
		for _, sh := range cl.Topology().ShardsInRegion(types.MasterColor) {
			for _, id := range sh.Replicas {
				if r := cl.Replica(id); r != nil {
					ls, _ := r.LaneStats()
					enq += ls.Enqueued
					busy += ls.Busy
					maxDepth = max(maxDepth, ls.MaxDepth)
					wakeups += r.Stats().HeldWakeups
				}
			}
		}
		note = fmt.Sprintf("lane counters at %d readers / %d%%R: %d enqueued, max queue depth %d, worker busy %v, %d held-read wakeups",
			readers, mix, enq, maxDepth, busy.Round(time.Microsecond), wakeups)
	}
	return float64(readers*opsPerReader) / busiest.Seconds(), note, nil
}

// readPathLatency returns the measured mean read latency of one lone
// closed-loop reader under calibrated injection.
func readPathLatency(ops int, laneOn bool) (time.Duration, error) {
	cl, _, err := readPathCluster(laneOn)
	if err != nil {
		return 0, err
	}
	defer cl.Stop()
	h := metrics.NewHistogram()
	if err := readPathWorkload(cl, 95, 1, ops, nil, h, nil); err != nil {
		return 0, err
	}
	if h.Count() == 0 {
		return 0, fmt.Errorf("readpath: latency run recorded no reads")
	}
	return h.Mean(), nil
}
