package bench

import (
	"fmt"
	"sync"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/metrics"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ablate-writepath",
		Title: "Ablation: parallel replica write path (write lanes + group commit + order coalescing)",
		Run:   runAblateWritePath,
	})
}

// writePathChainDepth is the depth of the region chain under the master
// color. With the single shard attached to the deepest leaf, the shard
// lies in every ancestor's region, so chainDepth+1 distinct colors all
// land on the same replicas — the worst case for a serialized write path.
const writePathChainDepth = 7

// writePathModes are the ablation steps, cumulative left to right.
var writePathModes = []string{"serial", "+lanes", "+group-commit", "full"}

// runAblateWritePath measures what each layer of the parallel write path
// buys, on a deployment designed to stress it: a region chain
// master←c1←…←c7 with one shard at the deepest leaf, so 8 colors' append
// streams converge on one replica set.
//
//   - serial:        WriteWorkers=0, GroupCommit=false, OrderCoalesce=false
//     — every mutation runs on the replica's delivery loop and every PM
//     batch is its own transaction, the pre-PR behavior.
//   - +lanes:        the keyed write lane spreads mutation-class messages
//     (and their PM work) across the worker pool by color.
//   - +group-commit: concurrent PM batches fold into shared transactions.
//   - full:          order requests additionally coalesce per color on the
//     replica→sequencer edge.
//
// Throughput is modeled from a functional run — the same busiest-node
// message+device accounting as fig11/ablate-readpath, with write-class
// messages and device writes charged at 1/workers when the lane is on.
// Latency is a separate injected run with one closed-loop writer, where
// none of the three mechanisms can help; the bar is that they also do
// not hurt. Drop counters (appends abandoned by storage hard-failures,
// order requests dropped before reaching a sequencer) are reported for
// the full mode and must stay zero.
func runAblateWritePath(cfg RunConfig) (*Report, error) {
	writerCounts := []int{1, 4, 16, 64}
	opsPerWriter := 300
	latOps := 150
	if cfg.Quick {
		writerCounts = []int{1, 64}
		opsPerWriter = 60
		latOps = 40
	}

	series := make(map[string]*metrics.Series, len(writePathModes))
	for _, mode := range writePathModes {
		series[mode] = metrics.NewSeries(mode, "kOps/s")
	}
	appendDrops := metrics.NewSeries("append drops (full)", "msgs")
	oreqDrops := metrics.NewSeries("oreq drops (full)", "msgs")
	notes := []string{
		fmt.Sprintf("region chain of depth %d, one shard at the deepest leaf: %d colors share one replica set",
			writePathChainDepth, writePathChainDepth+1),
		"modeled throughput over the busiest node; write-class messages and device writes charged at 1/workers with the lane on",
	}

	var laneNote string
	for _, writers := range writerCounts {
		label := fmt.Sprint(writers)
		for _, mode := range writePathModes {
			ops, drops, note, err := writePathThroughput(mode, writers, opsPerWriter)
			if err != nil {
				return nil, err
			}
			series[mode].Add(label, ops/1e3)
			if mode == "full" {
				appendDrops.Add(label, float64(drops.appends))
				oreqDrops.Add(label, float64(drops.oreqs))
				if writers == writerCounts[len(writerCounts)-1] {
					laneNote = note
				}
			}
		}
	}
	if laneNote != "" {
		notes = append(notes, laneNote)
	}

	// Single-writer injected latency: serial vs full. The lane dispatch,
	// the group commit and the order coalescer must all stay in the noise
	// for a lone writer (the last two add no hand-off when nothing is
	// in flight).
	latSerial := metrics.NewSeries("1-writer lat serial", "usec")
	latFull := metrics.NewSeries("1-writer lat full", "usec")
	for _, mode := range []string{"serial", "full"} {
		var lat time.Duration
		err := withLatencyInjection(func() error {
			var err error
			lat, err = writePathLatency(mode, latOps)
			return err
		})
		if err != nil {
			return nil, err
		}
		s := latSerial
		if mode == "full" {
			s = latFull
		}
		s.Add(fmt.Sprint(writerCounts[0]), float64(lat)/1e3)
	}

	return &Report{
		ID:      "ablate-writepath",
		Title:   "write-path ablation: lanes unserialize per-color appends, group commit folds PM transactions, coalescing thins the sequencer edge",
		XHeader: "writers",
		Series: []*metrics.Series{
			series["serial"], series["+lanes"], series["+group-commit"], series["full"],
			latSerial, latFull, appendDrops, oreqDrops,
		},
		Notes: notes,
	}, nil
}

// writePathColors returns the chain's colors, root first.
func writePathColors() []types.ColorID {
	colors := make([]types.ColorID, 0, writePathChainDepth+1)
	colors = append(colors, types.MasterColor)
	for i := 1; i <= writePathChainDepth; i++ {
		colors = append(colors, types.ColorID(i))
	}
	return colors
}

// writePathCluster builds the chain deployment with the given ablation
// mode and returns it plus the effective write-lane worker count (1 when
// the lane is off, for the modeled-time accounting).
func writePathCluster(mode string) (*core.Cluster, int, error) {
	ccfg := core.BenchClusterConfig()
	ccfg.SeqBackups = 0
	workers := ccfg.WriteWorkers
	switch mode {
	case "serial":
		ccfg.WriteWorkers = 0
		ccfg.GroupCommit = false
		ccfg.OrderCoalesce = false
		workers = 1
	case "+lanes":
		ccfg.GroupCommit = false
		ccfg.OrderCoalesce = false
	case "+group-commit":
		ccfg.OrderCoalesce = false
	case "full":
	default:
		return nil, 0, fmt.Errorf("writepath: unknown mode %q", mode)
	}
	cl := core.NewCluster(ccfg)
	parent := types.MasterColor
	for _, color := range writePathColors() {
		if err := cl.AddRegion(color, parent); err != nil {
			return nil, 0, err
		}
		parent = color
	}
	if _, err := cl.AddShard(parent); err != nil {
		return nil, 0, err
	}
	return cl, workers, nil
}

// writePathWorkload drives the append-only load: each writer owns the
// chain color writers[w] = colors[w mod len(colors)] and appends its ops
// there through its own unbatched client — the comparison isolates the
// replica-side write path, not client coalescing. afterWarmup fires once
// every writer has placed its first records.
func writePathWorkload(cl *core.Cluster, writers, opsPerWriter int, h *metrics.Histogram, afterWarmup func()) error {
	payload := workload.Payload(128, 11)
	colors := writePathColors()
	var firstErr error
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	clients := make([]*core.Client, writers)
	var warm sync.WaitGroup
	for w := 0; w < writers; w++ {
		c, err := cl.NewClient()
		if err != nil {
			return err
		}
		clients[w] = c
		warm.Add(1)
		go func(w int, c *core.Client) {
			defer warm.Done()
			color := colors[w%len(colors)]
			for i := 0; i < 2; i++ {
				if _, err := c.Append([][]byte{payload}, color); err != nil {
					fail(fmt.Errorf("warmup append color %v: %w", color, err))
					return
				}
			}
		}(w, c)
	}
	warm.Wait()
	if firstErr != nil {
		return firstErr
	}
	if afterWarmup != nil {
		afterWarmup()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int, c *core.Client) {
			defer wg.Done()
			color := colors[w%len(colors)]
			for i := 0; i < opsPerWriter; i++ {
				t0 := time.Now()
				if _, err := c.Append([][]byte{payload}, color); err != nil {
					fail(fmt.Errorf("append color %v: %w", color, err))
					return
				}
				if h != nil {
					h.Record(time.Since(t0))
				}
			}
		}(w, clients[w])
	}
	wg.Wait()
	return firstErr
}

// writePathBaseline snapshots the counters of the measured phase's start:
// per-node total and write-class message counts, and the replica device
// time split (readpath.go's replicaDeviceSplit).
type writePathBaseline struct {
	msgs      map[types.NodeID]uint64
	writeMsgs map[types.NodeID]uint64
	readDev   map[types.NodeID]time.Duration
	writeDev  map[types.NodeID]time.Duration
}

func snapshotWritePath(cl *core.Cluster) writePathBaseline {
	rd, wr := replicaDeviceSplit(cl)
	_, writeMsgs := laneMsgs(cl)
	return writePathBaseline{
		msgs:      cl.Network().NodeDelivered(),
		writeMsgs: writeMsgs,
		readDev:   rd,
		writeDev:  wr,
	}
}

// writePathBusiestTime is readPathBusiestTime mirrored onto the write
// side: per node, read-class traffic and everything without a lane stays
// serial, while write-class messages and the device write time divide
// across the write-lane workers (a sequencer's order lane counts as its
// write lane). Order-request coalescing shows up as fewer delivered
// messages.
func writePathBusiestTime(cl *core.Cluster, base writePathBaseline, laneWorkers int) time.Duration {
	proc := cl.Network().Model().ProcCost
	msgs := cl.Network().NodeDelivered()
	_, writeMsgs := laneMsgs(cl)
	readDev, writeDev := replicaDeviceSplit(cl)
	var busiest time.Duration
	for id, n := range msgs {
		if id >= 100_000 {
			continue // clients model the paper's load-generating fleet
		}
		wr := writeMsgs[id] - base.writeMsgs[id]
		serialMsgs := (n - base.msgs[id]) - wr
		serial := time.Duration(serialMsgs)*proc + (readDev[id] - base.readDev[id])
		par := time.Duration(wr)*proc + (writeDev[id] - base.writeDev[id])
		busy := serial + par/time.Duration(laneWorkers)
		if busy > busiest {
			busiest = busy
		}
	}
	return busiest
}

// writePathDrops sums the replica-side drop counters after a run — the
// silent-loss modes this PR made countable.
type writePathDrops struct {
	appends uint64
	oreqs   uint64
}

func sumWritePathDrops(cl *core.Cluster) writePathDrops {
	var d writePathDrops
	for _, sh := range cl.Topology().ShardsInRegion(types.MasterColor) {
		for _, id := range sh.Replicas {
			if r := cl.Replica(id); r != nil {
				s := r.Stats()
				d.appends += s.AppendDrops
				d.oreqs += s.OReqDrops
			}
		}
	}
	return d
}

// writePathThroughput runs one functional point and returns the modeled
// ops/s, the drop counters, and (for lane-on runs) a lane-counter note.
func writePathThroughput(mode string, writers, opsPerWriter int) (float64, writePathDrops, string, error) {
	cl, laneWorkers, err := writePathCluster(mode)
	if err != nil {
		return 0, writePathDrops{}, "", err
	}
	defer cl.Stop()
	var base writePathBaseline
	err = writePathWorkload(cl, writers, opsPerWriter, nil, func() {
		base = snapshotWritePath(cl)
	})
	if err != nil {
		return 0, writePathDrops{}, "", err
	}
	busiest := writePathBusiestTime(cl, base, laneWorkers)
	if busiest <= 0 {
		return 0, writePathDrops{}, "", fmt.Errorf("writepath: no modeled busy time")
	}
	drops := sumWritePathDrops(cl)

	note := ""
	if mode != "serial" {
		var enq, maxDepth uint64
		var busy time.Duration
		var gcWindows, gcOps uint64
		for _, sh := range cl.Topology().ShardsInRegion(types.MasterColor) {
			for _, id := range sh.Replicas {
				if r := cl.Replica(id); r != nil {
					_, ws := r.LaneStats()
					enq += ws.Enqueued
					busy += ws.Busy
					maxDepth = max(maxDepth, ws.MaxDepth)
					gs := r.Store().Stats().GC
					gcWindows += gs.Windows
					gcOps += gs.Ops
				}
			}
		}
		note = fmt.Sprintf("write-lane counters at %d writers (%s): %d enqueued, max queue depth %d, worker busy %v; group commit folded %d ops into %d windows",
			writers, mode, enq, maxDepth, busy.Round(time.Microsecond), gcOps, gcWindows)
	}
	return float64(writers*opsPerWriter) / busiest.Seconds(), drops, note, nil
}

// writePathLatency returns the measured mean append latency of one lone
// closed-loop writer under calibrated injection.
func writePathLatency(mode string, ops int) (time.Duration, error) {
	cl, _, err := writePathCluster(mode)
	if err != nil {
		return 0, err
	}
	defer cl.Stop()
	h := metrics.NewHistogram()
	if err := writePathWorkload(cl, 1, ops, h, nil); err != nil {
		return 0, err
	}
	if h.Count() == 0 {
		return 0, fmt.Errorf("writepath: latency run recorded no appends")
	}
	return h.Mean(), nil
}
