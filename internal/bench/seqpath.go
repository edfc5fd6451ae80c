package bench

import (
	"fmt"
	"sync"
	"time"

	"flexlog/internal/metrics"
	"flexlog/internal/seq"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

func init() {
	register(Experiment{
		ID:    "ablate-seq",
		Title: "Ablation: lock-free sequencer hot path (order lanes + pipelined flush)",
		Run:   runAblateSeq,
	})
}

// seqPathModes are the ablation steps, cumulative left to right.
//
//   - serial: OrderWorkers=0, PipelinedFlush=false — every order message
//     runs on the sequencer's single delivery loop and the flusher sends
//     one upward frame per color, the pre-lock-free behavior.
//   - +lanes: the keyed order lane delivers different colors on different
//     workers (one color stays FIFO on one worker), so the atomic SN word
//     and the striped dedup/pending structures actually run concurrently.
//   - full:   the flusher additionally pipelines upward rounds and packs
//     multiple colors into one AggOrderReqBatch frame to the parent.
var seqPathModes = []string{"serial", "+lanes", "full"}

// seqPathWorkers sizes the order lane in the lane-on modes.
const seqPathWorkers = 16

// runAblateSeq measures what the lock-free hot path buys on the topology
// built to stress it: a sequencer chain root(c0)←c1←…←cN where the
// deepest node is the shard's entry leaf, so order requests for N
// distinct colors all enter at ONE sequencer and climb to their owners.
// With the serialized delivery loop every color contends on that one
// goroutine; with the order lane they only share atomics.
//
// Throughput is modeled from a functional run, like the other ablations:
// per sequencer node, unlaned messages are serial while laned messages
// charge the busiest lane worker (colors pin to workers, so the busiest
// worker bounds the lane). Latency is a separate injected run with one
// closed-loop driver on the paper's 3-sequencer chain, where neither the
// lane nor pipelining can help; the bar is that they also do not hurt.
func runAblateSeq(cfg RunConfig) (*Report, error) {
	colorCounts := []int{4, 16, 64}
	opsPerDriver := 300
	latOps := 150
	if cfg.Quick {
		opsPerDriver = 60
		latOps = 40
	}

	series := make(map[string]*metrics.Series, len(seqPathModes))
	for _, mode := range seqPathModes {
		series[mode] = metrics.NewSeries(mode, "kReqs/s")
	}
	notes := []string{
		fmt.Sprintf("sequencer chain of depth N: N colors' order requests enter at one leaf and climb to their owners; lane-on modes run %d order workers", seqPathWorkers),
		"modeled throughput over the busiest sequencer node; laned messages charge the busiest lane worker, everything else stays serial",
	}

	var statNote string
	for _, colors := range colorCounts {
		label := fmt.Sprint(colors)
		for _, mode := range seqPathModes {
			ops, note, err := seqPathThroughput(mode, colors, opsPerDriver)
			if err != nil {
				return nil, err
			}
			series[mode].Add(label, ops/1e3)
			if mode == "full" && colors == colorCounts[len(colorCounts)-1] {
				statNote = note
			}
		}
	}
	if statNote != "" {
		notes = append(notes, statNote)
	}

	// Single-driver injected latency on the 3-node chain: serial vs full.
	// The lane dispatch and the flush pipeline must stay in the noise for
	// one closed-loop requester.
	latSerial := metrics.NewSeries("1-driver lat serial", "usec")
	latFull := metrics.NewSeries("1-driver lat full", "usec")
	for _, mode := range []string{"serial", "full"} {
		var lat time.Duration
		err := withLatencyInjection(func() error {
			var err error
			lat, err = seqPathLatency(mode, latOps)
			return err
		})
		if err != nil {
			return nil, err
		}
		s := latSerial
		if mode == "full" {
			s = latFull
		}
		s.Add("1", float64(lat)/1e3)
	}

	return &Report{
		ID:      "ablate-seq",
		Title:   "sequencer hot-path ablation: order lanes unserialize concurrent colors, pipelined flush overlaps and packs upward rounds",
		XHeader: "concurrent colors",
		Series: []*metrics.Series{
			series["serial"], series["+lanes"], series["full"],
			latSerial, latFull,
		},
		Notes: notes,
	}, nil
}

// seqPathConfig resolves one ablation mode into the seq knobs.
func seqPathConfig(mode string) (workers int, pipelined bool, err error) {
	switch mode {
	case "serial":
		return 0, false, nil
	case "+lanes":
		return seqPathWorkers, false, nil
	case "full":
		return seqPathWorkers, true, nil
	default:
		return 0, false, fmt.Errorf("seqpath: unknown mode %q", mode)
	}
}

// buildSeqChain constructs the depth-N sequencer chain root(color 0) ←
// color 1 ← … ← color N. The deepest node (owning color N) is the entry
// leaf; every other color's owner is one of its ancestors, so a request
// for color c entering at the leaf climbs N-c aggregation stages.
func buildSeqChain(net *transport.Network, colors, workers int, pipelined bool) (leafID types.NodeID, seqs []*seq.Sequencer, stop func(), err error) {
	topo := topology.New()
	for c := 0; c <= colors; c++ {
		parent := types.ColorID(0)
		if c > 0 {
			parent = types.ColorID(c - 1)
		}
		if err := topo.AddRegion(types.ColorID(c), parent, types.NodeID(9000+10*c), nil); err != nil {
			return 0, nil, nil, err
		}
	}
	for c := 0; c <= colors; c++ {
		scfg := benchSeqConfig(types.NodeID(9000+10*c), types.ColorID(c), topo, throughputBatchWindow)
		scfg.OrderWorkers = workers
		scfg.PipelinedFlush = pipelined
		s, err := seq.New(scfg, net)
		if err != nil {
			for _, prev := range seqs {
				prev.Stop()
			}
			return 0, nil, nil, err
		}
		seqs = append(seqs, s)
	}
	stop = func() {
		for _, s := range seqs {
			s.Stop()
		}
	}
	return types.NodeID(9000 + 10*colors), seqs, stop, nil
}

// seqPathBaseline snapshots the sequencer-side counters at the start of
// the measured phase: per-node delivered message counts, plus each
// sequencer's order-lane counters, read from the node that owns the lane.
type seqPathBaseline struct {
	msgs  map[types.NodeID]uint64
	lanes map[types.NodeID]transport.LaneStats
}

func snapshotSeqPath(net *transport.Network, seqs []*seq.Sequencer) seqPathBaseline {
	base := seqPathBaseline{
		msgs:  net.NodeDelivered(),
		lanes: make(map[types.NodeID]transport.LaneStats),
	}
	for _, s := range seqs {
		base.lanes[s.ID()] = s.LaneStats()
	}
	return base
}

// seqBusiestTime models the run's cost at its most loaded sequencer (the
// drivers model the load-generating client fleet and are not charged):
// unlaned deliveries are serial at ProcCost each; laned deliveries run on
// the order-lane pool, where the busiest worker (colors are pinned, so
// workers can skew) bounds the lane.
func seqBusiestTime(net *transport.Network, seqs []*seq.Sequencer, base seqPathBaseline) time.Duration {
	proc := net.Model().ProcCost
	msgs := net.NodeDelivered()
	var busiest time.Duration
	for _, s := range seqs {
		id := s.ID()
		lane, was := s.LaneStats(), base.lanes[id]
		serial := (msgs[id] - base.msgs[id]) - (lane.Enqueued - was.Enqueued)
		var maxWorker uint64
		for i, c := range lane.PerWorker {
			maxWorker = max(maxWorker, c-was.PerWorker[i])
		}
		busiest = max(busiest, time.Duration(serial+maxWorker)*proc)
	}
	return busiest
}

// seqPathThroughput runs one functional point: `colors` closed-loop
// drivers, each pinned to its own color, all hammering the entry leaf.
func seqPathThroughput(mode string, colors, opsPerDriver int) (float64, string, error) {
	workers, pipelined, err := seqPathConfig(mode)
	if err != nil {
		return 0, "", err
	}
	net := transport.NewNetwork(transport.DatacenterLink())
	leafID, seqs, stop, err := buildSeqChain(net, colors, workers, pipelined)
	if err != nil {
		return 0, "", err
	}
	defer stop()

	ds := make([]*orderDriver, colors)
	for i := range ds {
		d, err := newOrderDriver(net, types.NodeID(100+i))
		if err != nil {
			return 0, "", err
		}
		ds[i] = d
	}

	var firstErr error
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	run := func(ops int) {
		var wg sync.WaitGroup
		for w := 0; w < colors; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				color := types.ColorID(w + 1)
				for i := 0; i < ops; i++ {
					if _, err := ds[w].request(leafID, color, 1, 30*time.Second); err != nil {
						fail(fmt.Errorf("order color %v: %w", color, err))
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	run(2) // warmup: fault in queues, token stripes, lane workers
	if firstErr != nil {
		return 0, "", firstErr
	}
	base := snapshotSeqPath(net, seqs)
	run(opsPerDriver)
	if firstErr != nil {
		return 0, "", firstErr
	}

	busiest := seqBusiestTime(net, seqs, base)
	if busiest <= 0 {
		return 0, "", fmt.Errorf("seqpath: no modeled busy time")
	}

	note := ""
	if mode == "full" {
		st := seqs[len(seqs)-1].Stats() // the entry leaf
		note = fmt.Sprintf("leaf flusher at %d colors (full): %d flush rounds (%d urgent) carried %d upward batches, %d pipelined on top of an unanswered round",
			colors, st.FlushRounds, st.UrgentFlushes, st.BatchesSent, st.PipelinedBatches)
	}
	return float64(colors*opsPerDriver) / busiest.Seconds(), note, nil
}

// seqPathLatency returns the measured mean order round-trip of one lone
// closed-loop driver on the 3-sequencer chain under calibrated injection.
// The driver asks for master-color SNs at the leaf — the full two-stage
// climb, so every mechanism under test sits on its critical path.
func seqPathLatency(mode string, ops int) (time.Duration, error) {
	workers, pipelined, err := seqPathConfig(mode)
	if err != nil {
		return 0, err
	}
	net := transport.NewNetwork(transport.DatacenterLink())
	leafID, _, stop, err := buildSeqChain(net, 2, workers, pipelined)
	if err != nil {
		return 0, err
	}
	defer stop()
	d, err := newOrderDriver(net, 100)
	if err != nil {
		return 0, err
	}
	h := metrics.NewHistogram()
	for i := 0; i < ops; i++ {
		lat, err := d.request(leafID, types.MasterColor, 1, 30*time.Second)
		if err != nil {
			return 0, err
		}
		h.Record(lat)
	}
	if h.Count() == 0 {
		return 0, fmt.Errorf("seqpath: latency run recorded no requests")
	}
	return h.Mean(), nil
}
