package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/histcheck"
	"flexlog/internal/types"
)

// WorkloadConfig sizes the recorded load that runs under the nemesis.
type WorkloadConfig struct {
	// Seed derives every workload rng (payload ids are seed-tagged too, so
	// two runs never alias payloads across colors).
	Seed int64
	// Colors are the leaf colors written, read and trimmed.
	Colors []types.ColorID
	// Writers / Readers are goroutine counts per color. Writers append one
	// to three records per call, and every second one runs on a batching
	// client — the deployed default — so the history holds tokens of
	// several records, the unit replicas persist, order and transfer.
	Writers int
	Readers int
	// Trims enables one trimmer per color.
	Trims bool
	// Multi enables one multi-color appender spanning all Colors, staged
	// via the MultiBroker region (Alg. 2).
	Multi       bool
	MultiBroker types.ColorID
	// OpTimeout bounds each operation; expired operations are recorded as
	// indeterminate (they may still apply — the checker tolerates both).
	OpTimeout time.Duration
}

// Stats aggregates workload outcomes, including the availability signal:
// the longest wall-clock window in which no append was acknowledged.
type Stats struct {
	Appends, AppendFails uint64
	Reads, ReadFails     uint64
	NotFounds            uint64
	Trims, TrimFails     uint64
	Multis, MultiFails   uint64
	MaxAppendGap         time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("appends=%d/%d reads=%d/%d (⊥=%d) trims=%d/%d multis=%d/%d maxAppendGap=%s",
		s.Appends, s.Appends+s.AppendFails,
		s.Reads, s.Reads+s.ReadFails, s.NotFounds,
		s.Trims, s.Trims+s.TrimFails,
		s.Multis, s.Multis+s.MultiFails,
		s.MaxAppendGap.Round(time.Millisecond))
}

// Workload is a running set of recorded client goroutines.
type Workload struct {
	rec *histcheck.Recorder
	cfg WorkloadConfig

	appends, appendFails atomic.Uint64
	reads, readFails     atomic.Uint64
	notFounds            atomic.Uint64
	trims, trimFails     atomic.Uint64
	multis, multiFails   atomic.Uint64

	mu      sync.Mutex
	acked   map[types.ColorID][]types.SN // read targets, pruned by trims
	lastAck time.Time
	maxGap  time.Duration

	wg sync.WaitGroup
}

// StartWorkload launches the workload goroutines against the cluster.
// Each goroutine owns a dedicated client. The workload stops when ctx is
// cancelled; call Wait to join it.
func StartWorkload(ctx context.Context, cl *core.Cluster, cfg WorkloadConfig) (*Workload, error) {
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Second
	}
	w := &Workload{
		rec:     histcheck.NewRecorder(),
		cfg:     cfg,
		acked:   make(map[types.ColorID][]types.SN),
		lastAck: time.Now(),
	}
	spawn := func(fn func(cli *core.Client, rng *rand.Rand), salt int64, opts ...core.Option) error {
		cli, err := cl.NewClient(opts...)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(cfg.Seed ^ salt*-0x61c8864680b583eb))
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			fn(cli, rng)
		}()
		return nil
	}
	salt := int64(1)
	for _, color := range cfg.Colors {
		color := color
		for i := 0; i < cfg.Writers; i++ {
			id := salt
			var opts []core.Option
			if i%2 == 1 {
				opts = append(opts, core.WithBatching(core.DefaultBatchConfig()))
			}
			if err := spawn(func(cli *core.Client, rng *rand.Rand) {
				w.writer(ctx, cli, rng, color, id)
			}, salt, opts...); err != nil {
				return nil, err
			}
			salt++
		}
		for i := 0; i < cfg.Readers; i++ {
			if err := spawn(func(cli *core.Client, rng *rand.Rand) {
				w.reader(ctx, cli, rng, color)
			}, salt); err != nil {
				return nil, err
			}
			salt++
		}
		if cfg.Trims {
			if err := spawn(func(cli *core.Client, rng *rand.Rand) {
				w.trimmer(ctx, cli, rng, color)
			}, salt); err != nil {
				return nil, err
			}
			salt++
		}
	}
	if cfg.Multi && len(cfg.Colors) >= 2 {
		if err := spawn(func(cli *core.Client, rng *rand.Rand) {
			w.multiAppender(ctx, cli, rng)
		}, salt); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Wait joins every workload goroutine.
func (w *Workload) Wait() { w.wg.Wait() }

// Recorder exposes the history for checking.
func (w *Workload) Recorder() *histcheck.Recorder { return w.rec }

// Stats snapshots the aggregate outcome counters.
func (w *Workload) Stats() Stats {
	w.mu.Lock()
	gap := w.maxGap
	if tail := time.Since(w.lastAck); tail > gap {
		gap = tail
	}
	w.mu.Unlock()
	return Stats{
		Appends: w.appends.Load(), AppendFails: w.appendFails.Load(),
		Reads: w.reads.Load(), ReadFails: w.readFails.Load(),
		NotFounds: w.notFounds.Load(),
		Trims:     w.trims.Load(), TrimFails: w.trimFails.Load(),
		Multis: w.multis.Load(), MultiFails: w.multiFails.Load(),
		MaxAppendGap: gap,
	}
}

func (w *Workload) noteAck(color types.ColorID, sn types.SN) {
	now := time.Now()
	w.mu.Lock()
	if gap := now.Sub(w.lastAck); gap > w.maxGap {
		w.maxGap = gap
	}
	w.lastAck = now
	lst := w.acked[color]
	if len(lst) < 1<<14 {
		w.acked[color] = append(lst, sn)
	}
	w.mu.Unlock()
}

func (w *Workload) randomAcked(color types.ColorID, rng *rand.Rand) (types.SN, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lst := w.acked[color]
	if len(lst) == 0 {
		return types.InvalidSN, false
	}
	return lst[rng.Intn(len(lst))], true
}

// trimFrontier picks a conservative trim point — the first-quartile acked
// SN — so readers keep mostly-live targets, and prunes the target list.
func (w *Workload) trimFrontier(color types.ColorID) (types.SN, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lst := w.acked[color]
	if len(lst) < 16 {
		return types.InvalidSN, false
	}
	sorted := append([]types.SN(nil), lst...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	frontier := sorted[len(sorted)/4]
	kept := lst[:0]
	for _, sn := range lst {
		if sn > frontier {
			kept = append(kept, sn)
		}
	}
	w.acked[color] = kept
	return frontier, true
}

// writer appends one to three records per call. The history records a call
// of n records as n appends over the same interval — the call returns the
// SN of its last record, and a batch occupies consecutive SNs — so the
// checker needs no notion of a batch.
func (w *Workload) writer(ctx context.Context, cli *core.Client, rng *rand.Rand, color types.ColorID, id int64) {
	n := 0
	for ctx.Err() == nil {
		records := make([][]byte, 1+rng.Intn(3))
		pending := make([]*histcheck.PendingOp, len(records))
		for i := range records {
			n++
			records[i] = []byte(fmt.Sprintf("s%x-c%d-w%d-%06d", w.cfg.Seed, color, id, n))
			pending[i] = w.rec.BeginAppend(color, records[i])
		}
		opCtx, cancel := context.WithTimeout(ctx, w.cfg.OpTimeout)
		last, err := cli.AppendCtx(opCtx, records, color)
		cancel()
		if err != nil {
			for _, p := range pending {
				p.Fail()
			}
			w.appendFails.Add(1)
			sleepJitter(ctx, rng, 2*time.Millisecond)
			continue
		}
		for i, p := range pending {
			sn := last - types.SN(len(records)-1-i)
			p.Ack(sn)
			w.noteAck(color, sn)
		}
		w.appends.Add(1)
		sleepJitter(ctx, rng, time.Millisecond)
	}
}

func (w *Workload) reader(ctx context.Context, cli *core.Client, rng *rand.Rand, color types.ColorID) {
	for ctx.Err() == nil {
		sn, ok := w.randomAcked(color, rng)
		if !ok {
			sleepJitter(ctx, rng, 2*time.Millisecond)
			continue
		}
		p := w.rec.BeginRead(color, sn)
		opCtx, cancel := context.WithTimeout(ctx, w.cfg.OpTimeout)
		data, err := cli.ReadCtx(opCtx, sn, color)
		cancel()
		switch {
		case err == nil:
			p.ReadOK(data)
			w.reads.Add(1)
		case errors.Is(err, core.ErrNotFound):
			p.ReadNotFound()
			w.reads.Add(1)
			w.notFounds.Add(1)
		default:
			p.Fail()
			w.readFails.Add(1)
		}
		sleepJitter(ctx, rng, time.Millisecond)
	}
}

func (w *Workload) trimmer(ctx context.Context, cli *core.Client, rng *rand.Rand, color types.ColorID) {
	for ctx.Err() == nil {
		sleepJitter(ctx, rng, 120*time.Millisecond)
		frontier, ok := w.trimFrontier(color)
		if !ok {
			continue
		}
		p := w.rec.BeginTrim(color, frontier)
		opCtx, cancel := context.WithTimeout(ctx, 2*w.cfg.OpTimeout)
		_, _, err := cli.TrimCtx(opCtx, frontier, color)
		cancel()
		if err != nil {
			p.Fail()
			w.trimFails.Add(1)
			continue
		}
		p.Ack(frontier)
		w.trims.Add(1)
	}
}

func (w *Workload) multiAppender(ctx context.Context, cli *core.Client, rng *rand.Rand) {
	n := 0
	for ctx.Err() == nil {
		sleepJitter(ctx, rng, 40*time.Millisecond)
		n++
		colors := append([]types.ColorID(nil), w.cfg.Colors...)
		datas := make([][]byte, len(colors))
		sets := make([][][]byte, len(colors))
		for i, c := range colors {
			datas[i] = []byte(fmt.Sprintf("s%x-multi-%06d-c%d", w.cfg.Seed, n, c))
			sets[i] = [][]byte{datas[i]}
		}
		p := w.rec.BeginMulti(colors, datas)
		opCtx, cancel := context.WithTimeout(ctx, 2*w.cfg.OpTimeout)
		err := cli.MultiAppendCtx(opCtx, sets, colors, w.cfg.MultiBroker)
		cancel()
		if err != nil {
			p.Fail()
			w.multiFails.Add(1)
			continue
		}
		p.Ack(types.InvalidSN)
		w.multis.Add(1)
	}
}

// sleepJitter pauses for [d/2, 3d/2), or until ctx is cancelled.
func sleepJitter(ctx context.Context, rng *rand.Rand, d time.Duration) {
	if d <= 0 {
		return
	}
	pause := d/2 + time.Duration(rng.Int63n(int64(d)))
	select {
	case <-ctx.Done():
	case <-time.After(pause):
	}
}

// CollectFinal takes the quiesced end-of-run view the checker validates
// against: one full subscribe per color — any single replica must be able
// to serve the complete committed log (Alg. 1 acks require all replicas),
// so one subscribe per color is the strongest faithful read — and, in
// process, every color of every replica of the colors' shards, which the
// checker compares token by token.
func CollectFinal(cl *core.Cluster, colors []types.ColorID) (histcheck.FinalState, error) {
	cli, err := cl.NewClient()
	if err != nil {
		return histcheck.FinalState{}, err
	}
	final := histcheck.FinalState{
		Logs:     make(map[types.ColorID][]types.Record, len(colors)),
		Replicas: make(map[types.NodeID][]types.Record),
	}
	for _, c := range colors {
		recs, err := cli.Subscribe(c, types.InvalidSN)
		if err != nil {
			return histcheck.FinalState{}, fmt.Errorf("chaos: final subscribe of color %d: %w", c, err)
		}
		final.Logs[c] = recs
		for _, sh := range cl.Topology().ShardsInRegion(c) {
			for _, r := range cl.Replicas(sh.ID) {
				if _, done := final.Replicas[r.ID()]; done {
					continue
				}
				var all []types.Record
				for _, held := range cl.Topology().Colors() {
					recs, err := r.Store().Scan(held)
					if err != nil {
						return histcheck.FinalState{}, fmt.Errorf("chaos: scanning color %d on replica %d: %w", held, r.ID(), err)
					}
					all = append(all, recs...)
				}
				final.Replicas[r.ID()] = all
			}
		}
	}
	return final, nil
}
