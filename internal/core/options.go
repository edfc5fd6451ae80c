package core

import (
	"time"

	"flexlog/internal/types"
)

// BatchConfig tunes the client-side append batching & pipelining layer,
// which every append goes through. The zero value is DefaultBatchConfig;
// zero fields of an otherwise non-zero config are filled from it.
type BatchConfig struct {
	// MaxBatchBytes is a batch's one size bound: a batch leaves once its
	// payload reaches it, and takes no set that would carry it past it. A
	// set larger than the bound leaves alone, so 1 sends every set as its
	// own batch.
	MaxBatchBytes int
	// MaxBatchDelay is a cap, not a delay: appends leave at once while no
	// batch of their (color, shard) is unacknowledged, and behind
	// unacknowledged batches they leave when the last of those is
	// acknowledged or when they fill a batch. MaxBatchDelay bounds how long
	// the oldest of them is held back for that (timer granularity; 0 never
	// holds).
	MaxBatchDelay time.Duration
	// MaxInFlight is the number of unacknowledged batches pipelined per
	// (color, shard) before the batcher applies backpressure — the window
	// behind which appends combine.
	MaxInFlight int
}

// DefaultBatchConfig returns the tuning of a client built without
// WithBatching: device-friendly batches, four batches in flight, appends
// held behind them for at most 100 µs.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{
		MaxBatchBytes: 256 << 10,
		MaxBatchDelay: 100 * time.Microsecond,
		MaxInFlight:   4,
	}
}

// withDefaults resolves a config: the zero value is DefaultBatchConfig,
// and zero fields of any other are filled from it.
func (b BatchConfig) withDefaults() BatchConfig {
	def := DefaultBatchConfig()
	if b == (BatchConfig{}) {
		return def
	}
	if b.MaxBatchBytes <= 0 {
		b.MaxBatchBytes = def.MaxBatchBytes
	}
	if b.MaxBatchDelay < 0 {
		b.MaxBatchDelay = 0
	}
	if b.MaxInFlight <= 0 {
		b.MaxInFlight = def.MaxInFlight
	}
	return b
}

// Option customizes a client handle at construction time. Options are the
// v2 replacement for hand-built ClientConfig values; unspecified settings
// keep the documented defaults (see the package godoc).
type Option func(*ClientConfig)

// WithTimeout bounds every blocking operation. Default 10s.
func WithTimeout(d time.Duration) Option {
	return func(c *ClientConfig) { c.Timeout = d }
}

// WithBatching tunes the client-side append batching & pipelining layer
// (zero fields are filled from DefaultBatchConfig). It does not switch
// batching on: every append is batched, with DefaultBatchConfig unless
// this option says otherwise.
func WithBatching(b BatchConfig) Option {
	return func(c *ClientConfig) { c.Batch = b }
}

// WithTenant sets the tenant identity carried in this client's append and
// read requests. Replicas map it onto the tenant's QoS envelope — fair-
// share weight, admission rate, per-tenant accounting. The default is
// tenant 0, which is never throttled.
func WithTenant(t types.TenantID) Option {
	return func(c *ClientConfig) { c.Tenant = t }
}

// WithHedging enables hedged reads: a read round that outlives the
// straggler threshold (cfg.Delay, or the observed read P99 when 0) is
// cloned to a backup replica per shard and the first response wins.
// cfg.BudgetPercent caps hedged rounds (≤0 means 10%).
func WithHedging(cfg HedgeConfig) Option {
	return func(c *ClientConfig) {
		if cfg.BudgetPercent <= 0 {
			cfg.BudgetPercent = 10
		}
		c.Hedge = cfg
	}
}
