package core

import (
	"sync/atomic"
	"time"

	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// BatchConfig tunes the client-side append batching & pipelining layer.
// The zero value disables batching (every Append is its own round trip,
// the seed behaviour); enable it with WithBatching(DefaultBatchConfig())
// or a custom configuration. Zero fields of an otherwise non-zero config
// are filled from DefaultBatchConfig.
type BatchConfig struct {
	// MaxBatchRecords flushes a batch once it holds this many records.
	MaxBatchRecords int
	// MaxBatchBytes flushes a batch once its payload reaches this size.
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

// DefaultBatchConfig returns the tuning used by the benchmark harness:
// device-friendly batches, four batches in flight, appends held behind
// them for at most 100 µs.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{
		MaxBatchRecords: 64,
		MaxBatchBytes:   256 << 10,
		MaxBatchDelay:   100 * time.Microsecond,
		MaxInFlight:     4,
	}
}

// enabled reports whether any batching field is set.
func (b BatchConfig) enabled() bool { return b != (BatchConfig{}) }

// withDefaults fills zero fields of an enabled config.
func (b BatchConfig) withDefaults() BatchConfig {
	def := DefaultBatchConfig()
	if b.MaxBatchRecords <= 0 {
		b.MaxBatchRecords = def.MaxBatchRecords
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

// WithFID sets the client's distinct function id (Alg. 1: token =
// (FID<<32)+counter). Defaults to a value derived from the node id.
func WithFID(fid uint32) Option {
	return func(c *ClientConfig) { c.FID = fid }
}

// WithRetryInterval sets how often an unanswered (idempotent) request is
// re-broadcast. Default 50ms.
func WithRetryInterval(d time.Duration) Option {
	return func(c *ClientConfig) { c.RetryInterval = d }
}

// WithTimeout bounds every blocking operation. Default 10s.
func WithTimeout(d time.Duration) Option {
	return func(c *ClientConfig) { c.Timeout = d }
}

// WithBatching enables the client-side append batching & pipelining layer
// with the given tuning (zero fields are filled from DefaultBatchConfig).
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

// autoClientID allocates node ids for Connect-created clients. The band
// is far above the Cluster allocator's (clientIDBase) so the two never
// collide on one network.
var autoClientID atomic.Uint64

const autoClientIDBase types.NodeID = 1_000_000

// Connect attaches a v2 client to an in-process network using functional
// options:
//
//	c, err := core.Connect(cl.Topology(), cl.Network(),
//	    core.WithBatching(core.DefaultBatchConfig()),
//	    core.WithTimeout(2*time.Second))
//
// The node id is auto-allocated, and so is the function id unless WithFID
// gives one. Cluster.NewClient accepts the same options and is the usual
// entry point for in-process deployments.
func Connect(topo *topology.Topology, net *transport.Network, opts ...Option) (*Client, error) {
	cfg := ClientConfig{Topo: topo}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.ID = autoClientIDBase + types.NodeID(autoClientID.Add(1))
	if cfg.FID == 0 {
		cfg.FID = uint32(cfg.ID)
	}
	return NewClient(cfg, net)
}
