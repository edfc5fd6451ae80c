package storage

import (
	"fmt"
	"sync"

	"flexlog/internal/pmem"
	"flexlog/internal/ssd"
	"flexlog/internal/types"
)

// Option configures Open beyond the sizing knobs in Config: which devices
// back the hot and cold tiers, and whether the store formats fresh media
// or attaches to a surviving layout.
type Option func(*openConfig)

type openConfig struct {
	pool   *pmem.Pool
	cold   *ssd.Device
	attach bool
}

// WithPMTier backs the hot tier with an existing persistent-memory pool
// (instead of allocating a fresh one from cfg.PMModel). Used by tests and
// recovery flows that re-open surviving media.
func WithPMTier(pool *pmem.Pool) Option {
	return func(oc *openConfig) { oc.pool = pool }
}

// WithSSDTier backs the cold tier with an existing SSD device (one blob
// per device file).
func WithSSDTier(dev *ssd.Device) Option {
	return func(oc *openConfig) { oc.cold = dev }
}

// WithAttach re-opens a store over media holding a previous incarnation's
// data (e.g. snapshots restored by cmd/flexlog-server): the PM slots are
// located at their canonical offsets — the same layout a fresh Open
// creates — and every volatile index is rebuilt by Recover's scan.
// Requires WithPMTier (there is nothing to attach to otherwise).
func WithAttach() Option {
	return func(oc *openConfig) { oc.attach = true }
}

// Open creates a Store per cfg and the given options. With no options it
// formats fresh devices (a pmem pool sized for cfg and an SSD cold tier);
// WithPMTier/WithSSDTier substitute existing media, and
// WithAttach recovers a previous layout instead of formatting.
func Open(cfg Config, opts ...Option) (*Store, error) {
	var oc openConfig
	for _, opt := range opts {
		opt(&oc)
	}
	if cfg.SegmentSize < segHeaderSize+entryHeaderSize {
		return nil, fmt.Errorf("storage: segment size %d too small", cfg.SegmentSize)
	}
	if cfg.NumSegments < 1 {
		return nil, fmt.Errorf("storage: need at least one segment")
	}
	if oc.attach && oc.pool == nil {
		return nil, fmt.Errorf("storage: WithAttach requires WithPMTier")
	}
	pool := oc.pool
	if pool == nil {
		pmSize := int(cfg.SegmentSize)*cfg.NumSegments + 64
		p, err := pmem.New(pmSize, cfg.PMModel)
		if err != nil {
			return nil, err
		}
		pool = p
	}
	cold := oc.cold
	if cold == nil {
		cold = ssd.New(cfg.SSDModel)
	}

	st := &Store{
		cfg:         cfg,
		pm:          pool,
		cold:        cold,
		cache:       newEntryCache(cfg.CacheBytes),
		segs:        make(map[uint64]*segment),
		byToken:     make(map[types.Token]*entryLoc),
		nextSeg:     1,
		ckptTrimmed: make(map[types.ColorID]types.SN),
	}
	st.evicted = sync.NewCond(&st.alloc)

	if oc.attach {
		// Attach path: locate the slots at their canonical offsets and
		// validate that the pool actually holds that layout.
		need := pmem.DataStart + uint64(cfg.NumSegments)*cfg.SegmentSize
		if uint64(pool.Size()) < need {
			return nil, fmt.Errorf("storage: pool of %d bytes cannot hold %d segments of %d", pool.Size(), cfg.NumSegments, cfg.SegmentSize)
		}
		if got := pool.Allocated(); got < need {
			return nil, fmt.Errorf("storage: pool allocation watermark %d below expected layout %d — not a store snapshot", got, need)
		}
		for i := 0; i < cfg.NumSegments; i++ {
			st.slots = append(st.slots, pmem.DataStart+uint64(i)*cfg.SegmentSize)
			st.slotSeg = append(st.slotSeg, nil)
		}
		if err := st.Recover(); err != nil {
			return nil, err
		}
	} else {
		// Fresh path: carve the slots out of the pool's bump allocator.
		for i := 0; i < cfg.NumSegments; i++ {
			off, err := pool.Alloc(int(cfg.SegmentSize))
			if err != nil {
				return nil, fmt.Errorf("storage: allocating slot %d: %w", i, err)
			}
			st.slots = append(st.slots, off)
			st.slotSeg = append(st.slotSeg, nil)
		}
		if err := st.newActiveSegment(); err != nil {
			return nil, err
		}
	}

	txH, windowH := st.initObs()
	st.gc = newGroupCommitter(pool, txH, windowH)
	if cfg.PMBudget > 0 || cfg.CheckpointEvery > 0 {
		st.lc = newLifecycle(st, cfg.LifecycleInterval)
	}
	return st, nil
}
