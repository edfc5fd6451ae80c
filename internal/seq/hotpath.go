package seq

import (
	"sync"
	"sync/atomic"

	"flexlog/internal/types"
)

// This file holds the lock-free machinery of the sequencer hot path
// (DESIGN.md §14): the packed epoch/counter SN word, the striped token
// dedup cache, the per-color upward batches, the striped child-batch
// dedup map, and the all-atomic counter block. An ordering round touches
// only these structures; the big s.mu survives solely for the cold
// election/failover paths in failover.go.

// ---- Packed SN word ----
//
// snWord packs (servingEpoch<<32)|counter into one atomic word. A nonzero
// epoch half means this node is an initialized serving leader; every
// stand-down path stores 0 ("poison"), so a racing fetch-add that lands on
// a poisoned word is detected by its zero epoch half and dropped. The word
// only ever holds THIS node's own serving epoch — adopting another
// leader's epoch into it would let a deposed leader's in-flight add mint
// an SN inside the successor's epoch, colliding with the successor's
// counter. Epochs start at 1 and SN 0 is invalid (types.InvalidSN), so 0
// is unambiguous as the not-serving sentinel.

// servingEpoch returns the epoch this node currently serves, or 0 when it
// is not an initialized leader. This is the hot path's only role check.
func (s *Sequencer) servingEpoch() types.Epoch {
	return types.Epoch(s.snWord.Load() >> 32)
}

// assignFast reserves n sequence numbers with a single atomic fetch-add
// and returns the last SN of the range. ok=false means the node was not
// serving at the instant of the add (stand-down raced the request); the
// caller drops the request like the pre-lock-free role check did.
func (s *Sequencer) assignFast(n uint32) (types.SN, bool) {
	v := s.snWord.Add(uint64(n))
	if v>>32 == 0 {
		// Poisoned word: not serving. Best-effort undo of the counter
		// creep — only the last racing adder's CAS can succeed, and any
		// leftover creep is overwritten when service next begins.
		s.snWord.CompareAndSwap(v, 0)
		return 0, false
	}
	if uint32(v) < n {
		// The per-epoch counter wrapped into the epoch half. 2^32 SNs per
		// epoch is the design envelope (§5.2 packs epoch and counter into
		// one 64-bit SN); crossing it would silently corrupt the epoch, so
		// fail loudly instead.
		panic("seq: per-epoch SN counter overflow (>2^32 SNs in one epoch)")
	}
	s.c.assigned.Add(uint64(n))
	return types.SN(v), true
}

// beginServingLocked publishes the current epoch into the SN word with a
// zeroed counter — the moment the hot path starts assigning. Caller holds
// s.mu and has set role/epoch/serving.
func (s *Sequencer) beginServingLocked() {
	s.serving = true
	s.snWord.Store(uint64(s.epoch) << 32)
}

// stopServingLocked poisons the SN word so racing fast-path adds fail.
// Caller holds s.mu.
func (s *Sequencer) stopServingLocked() {
	s.serving = false
	s.snWord.Store(0)
}

// setEpochLocked updates the epoch and its wait-free mirror (Epoch() and
// the obs gauge read the mirror without taking s.mu). Caller holds s.mu.
func (s *Sequencer) setEpochLocked(e types.Epoch) {
	s.epoch = e
	s.epochMirror.Store(uint32(e))
}

// ---- Striped bounded dedup: tokens (Alg. 1 lines 28–31), child batches ----

// dedupStripes is the number of independent shards of each dedup map. 64
// keeps cross-core contention negligible at a few cache lines of overhead.
const dedupStripes = 64

// dedupStripe is one shard of a bounded dedup map with its own FIFO
// eviction ring. The sequencer keeps two striped maps of it, each
// budgeted TokenCacheSize entries (cap = TokenCacheSize/dedupStripes per
// stripe): token → assignment at the entry, and (child, batch id) →
// assigned SN at a region owner. A caller holds mu across its whole
// check-assign-remember sequence, so a duplicate racing the original can
// never burn a second SN range.
type dedupStripe[K comparable, V any] struct {
	mu    sync.Mutex
	m     map[K]V
	order []K
	head  int // order[head:] are live, in insertion order
}

// remember inserts or overwrites dedup state with FIFO eviction. Caller
// holds st.mu.
func (st *dedupStripe[K, V]) remember(k K, v V, cap int) {
	if _, exists := st.m[k]; !exists {
		st.order = append(st.order, k)
	}
	st.m[k] = v
	for len(st.m) > cap && st.head < len(st.order) {
		old := st.order[st.head]
		st.head++
		delete(st.m, old)
	}
	if st.head > len(st.order)/2 {
		// Compact, so the ring's memory follows the live entries and not
		// every key ever inserted.
		st.order = st.order[:copy(st.order, st.order[st.head:])]
		st.head = 0
	}
}

// tokenEntry is the dedup state for one token, stamped with the serving
// epoch it was created under. Entries from older epochs are treated as
// absent (and lazily deleted), which replicates the pre-lock-free
// clear-the-map-on-election semantics without a global lock: a new
// leadership never trusts dedup state from a previous term.
type tokenEntry struct {
	epoch    types.Epoch
	assigned bool
	lastSN   types.SN
}

// tokenStripe is one shard of the token cache.
type tokenStripe = dedupStripe[types.Token, tokenEntry]

// lookupToken returns the entry for t unless it predates the serving
// epoch se, in which case it is deleted (a new leadership never trusts
// dedup state from a previous term). Entries stamped NEWER than se are
// hits: epochs only grow, so a newer stamp means the caller's se read is
// the stale side of an in-flight epoch bump and the entry belongs to the
// current term. Caller holds st.mu.
func lookupToken(st *tokenStripe, t types.Token, se types.Epoch) (tokenEntry, bool) {
	e, ok := st.m[t]
	if !ok {
		return tokenEntry{}, false
	}
	if e.epoch < se {
		delete(st.m, t) // stale term; its order slot ages out naturally
		return tokenEntry{}, false
	}
	return e, true
}

// tokenStripeFor hashes a token onto its stripe.
func (s *Sequencer) tokenStripeFor(t types.Token) *tokenStripe {
	return &s.tokens[mix64(uint64(t))%dedupStripes]
}

// mix64 is a splitmix64-style finalizer: cheap, and good enough to spread
// the (fid<<32|counter) token structure across stripes.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// ---- Per-color upward batches ----

// colorBatch is one color's upward batching state — the client batcher's
// rule applied per color: a member that finds no unanswered round ships at
// once, otherwise it is held here until that round's answer (or its
// discard) ships everything held as the next round. FIFO within a color
// holds because a color's messages arrive on one lane worker (or the
// single delivery loop) and held members ship in arrival order.
type colorBatch struct {
	color types.ColorID

	mu    sync.Mutex
	held  []member
	round uint64 // batch id of the color's unanswered round; 0 = none

	// nrec is the held record count, read by the obs pending gauge.
	nrec atomic.Int64
}

// batchFor returns color's batch, creating it on first use (one lock-free
// sync.Map hit after that).
func (s *Sequencer) batchFor(color types.ColorID) *colorBatch {
	if v, ok := s.batches.Load(color); ok {
		return v.(*colorBatch)
	}
	v, _ := s.batches.LoadOrStore(color, &colorBatch{color: color})
	return v.(*colorBatch)
}

// heldRecords sums the records held behind unanswered rounds (wait-free:
// one atomic load per color).
func (s *Sequencer) heldRecords() int64 {
	var n int64
	s.batches.Range(func(_, v any) bool {
		n += v.(*colorBatch).nrec.Load()
		return true
	})
	return n
}

// aggStripe is one shard of the owner-side (from, batchID) → assigned-SN
// dedup map. Entries deliberately survive epoch changes: a resend after
// failover must get the ORIGINAL assignment back.
type aggStripe = dedupStripe[childKey, types.SN]

func (s *Sequencer) aggStripeFor(k childKey) *aggStripe {
	return &s.aggSeen[mix64(uint64(k.from)^k.batchID<<17)%dedupStripes]
}

// ---- Atomic counter block ----

// counters is the all-atomic backing of Stats(): every hot-path increment
// is a single uncontended-in-practice atomic add, and a scrape is a plain
// load — nothing on the ordering path ever blocks on accounting.
type counters struct {
	assigned     atomic.Uint64
	directReqs   atomic.Uint64
	reqBatches   atomic.Uint64
	childReqs    atomic.Uint64
	batchesSent  atomic.Uint64
	resends      atomic.Uint64
	elections    atomic.Uint64
	epochGrants  atomic.Uint64
	dupTokens    atomic.Uint64
	droppedStale atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Assigned:     c.assigned.Load(),
		DirectReqs:   c.directReqs.Load(),
		ReqBatches:   c.reqBatches.Load(),
		ChildReqs:    c.childReqs.Load(),
		BatchesSent:  c.batchesSent.Load(),
		Resends:      c.resends.Load(),
		Elections:    c.elections.Load(),
		EpochGrants:  c.epochGrants.Load(),
		DupTokens:    c.dupTokens.Load(),
		DroppedStale: c.droppedStale.Load(),
		FlushRounds:  c.batchesSent.Load(),
	}
}

// ---- Striped per-tenant accounting ----

// buildTenantCounters constructs the read-only color→counter table from
// the deployment's tenant declarations. Counters are shared per tenant;
// after construction the maps are never mutated, so the hot path reads
// them without synchronization and bumps a per-tenant atomic.
func (s *Sequencer) buildTenantCounters() {
	if len(s.cfg.TenantOf) == 0 {
		return
	}
	s.tenantTotals = map[types.TenantID]*atomic.Uint64{
		types.DefaultTenant: new(atomic.Uint64),
	}
	s.tenantByColor = make(map[types.ColorID]*atomic.Uint64, len(s.cfg.TenantOf))
	for color, tenant := range s.cfg.TenantOf {
		ctr := s.tenantTotals[tenant]
		if ctr == nil {
			ctr = new(atomic.Uint64)
			s.tenantTotals[tenant] = ctr
		}
		s.tenantByColor[color] = ctr
	}
}

// noteTenant attributes n ordered records to the tenant owning color —
// one map read plus one atomic add, no locks.
func (s *Sequencer) noteTenant(color types.ColorID, n uint64) {
	if s.tenantTotals == nil {
		return
	}
	ctr := s.tenantByColor[color]
	if ctr == nil {
		ctr = s.tenantTotals[types.DefaultTenant]
	}
	ctr.Add(n)
}
