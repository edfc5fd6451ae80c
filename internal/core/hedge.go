package core

import (
	"sort"
	"sync"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/types"
)

// Hedged reads (DESIGN.md §13.4): when a read round's primary replicas are
// slow, the client clones the outstanding ReadReq to a second replica of
// each shard and takes whichever response arrives first. The hedge fires
// after a delay derived from the client's observed read latency (P99 of
// recent rounds), so hedges target genuine stragglers, and total hedge
// volume is budget-capped so a degraded cluster sees at most a bounded
// request amplification.

// HedgeConfig tunes client-side read hedging. The zero value disables it;
// enable with WithHedging.
type HedgeConfig struct {
	// Delay is the straggler threshold: how long a read round may stay
	// unanswered before the request is cloned to backup replicas. 0 derives
	// the threshold from the observed read P99 (no hedging until enough
	// rounds have been sampled).
	Delay time.Duration
	// BudgetPercent caps hedged rounds as a percentage of all read rounds
	// (≤0 defaults to 10 when hedging is enabled via WithHedging). The
	// budget keeps a uniformly slow cluster from doubling its read load.
	BudgetPercent int
}

// enabled reports whether hedging was configured at all.
func (h HedgeConfig) enabled() bool { return h.Delay > 0 || h.BudgetPercent > 0 }

// latencyRingSize bounds the read-latency sample ring backing the adaptive
// hedge delay.
const latencyRingSize = 128

// minHedgeSamples is how many completed rounds the adaptive delay needs
// before it trusts its P99 (a cold client never hedges).
const minHedgeSamples = 16

// latencyTracker is a fixed ring of recent read-round latencies.
type latencyTracker struct {
	mu   sync.Mutex
	ring [latencyRingSize]time.Duration
	n    int // total samples recorded (ring index = n % size)
}

func (t *latencyTracker) record(d time.Duration) {
	t.mu.Lock()
	t.ring[t.n%latencyRingSize] = d
	t.n++
	t.mu.Unlock()
}

// p99 returns the 99th-percentile recent latency, or 0 while fewer than
// minHedgeSamples rounds have completed.
func (t *latencyTracker) p99() time.Duration {
	t.mu.Lock()
	n := t.n
	if n > latencyRingSize {
		n = latencyRingSize
	}
	if n < minHedgeSamples {
		t.mu.Unlock()
		return 0
	}
	buf := make([]time.Duration, n)
	copy(buf, t.ring[:n])
	t.mu.Unlock()
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := n * 99 / 100
	if idx >= n {
		idx = n - 1
	}
	return buf[idx]
}

// hedgeDelay resolves the straggler threshold for the next read round; 0
// means "do not hedge this round".
func (c *Client) hedgeDelay() time.Duration {
	h := c.cfg.Hedge
	if !h.enabled() {
		return 0
	}
	if h.Delay > 0 {
		return h.Delay
	}
	return c.readLat.p99()
}

// hedgeAllowed checks the hedge budget: hedged rounds must stay under
// BudgetPercent of all read rounds.
func (c *Client) hedgeAllowed() bool {
	pct := c.cfg.Hedge.BudgetPercent
	if pct <= 0 {
		return false
	}
	return c.hedges.Load()*100 < c.readRounds.Load()*uint64(pct)
}

// HedgedReads returns how many read rounds this client has hedged.
func (c *Client) HedgedReads() uint64 { return c.hedges.Load() }

// sendHedges clones an outstanding read to one extra replica per shard
// (distinct from the round's primary target). The backups are registered
// in the round's shard map first, so their responses participate in the
// round's per-shard accounting: the first response per shard counts,
// duplicates are absorbed.
func (c *Client) sendHedges(w *call, r *readRound, req proto.ReadReq, shards []topology.ShardInfo, primary []types.NodeID) {
	var backups []types.NodeID
	c.mu.Lock()
	if w.closed || c.closed {
		c.mu.Unlock()
		return
	}
	for i, sh := range shards {
		if len(sh.Replicas) < 2 {
			continue
		}
		var alt types.NodeID
		off := c.rng.Intn(len(sh.Replicas))
		for j := 0; j < len(sh.Replicas); j++ {
			cand := sh.Replicas[(off+j)%len(sh.Replicas)]
			if cand != primary[i] {
				alt = cand
				break
			}
		}
		if alt == 0 {
			continue
		}
		if _, dup := r.shardOf[alt]; dup {
			continue
		}
		r.shardOf[alt] = i
		backups = append(backups, alt)
	}
	c.mu.Unlock()
	if len(backups) == 0 {
		return
	}
	c.hedges.Add(1)
	for _, t := range backups {
		c.ep.Send(t, req)
	}
}
