// Package qos implements the building blocks of FlexLog's multi-tenant
// quality of service (ROADMAP item 4, DESIGN.md §13): the tenant
// configuration shared by the deploy manifest, the cluster builder and the
// replicas, and per-tenant token-bucket admission control at the replica
// ingress. Scheduling fairness itself lives in the transport lanes
// (transport.LaneQoS); this package decides what is admitted at all.
package qos

import (
	"math"
	"sync"
	"time"

	"flexlog/internal/types"
)

// TenantConfig declares one tenant's QoS envelope. It is also a manifest
// entry (deploy.Manifest.Tenants), hence the JSON tags.
type TenantConfig struct {
	// ID is the tenant identity carried in append/read requests.
	ID types.TenantID `json:"id"`
	// Weight is the tenant's weighted-fair scheduling share across the
	// replica service lanes (messages per DRR round). 0 means 1.
	Weight uint32 `json:"weight,omitempty"`
	// Rate is the admitted append throughput in records per second; 0
	// disables admission control for the tenant (unlimited).
	Rate float64 `json:"rate,omitempty"`
	// Burst is the token-bucket depth in records; 0 defaults to one
	// second's worth of Rate (min 1).
	Burst float64 `json:"burst,omitempty"`
	// Colors lists the log regions this tenant owns, used to attribute
	// ordering-layer work (sequencer stats) to tenants without widening
	// the order-request wire messages. Optional; colors not claimed by
	// any tenant attribute to the default tenant.
	Colors []types.ColorID `json:"colors,omitempty"`
}

// Weights extracts the transport-lane weight map from a tenant list.
func Weights(tenants []TenantConfig) map[types.TenantID]uint32 {
	if len(tenants) == 0 {
		return nil
	}
	m := make(map[types.TenantID]uint32, len(tenants))
	for _, t := range tenants {
		w := t.Weight
		if w == 0 {
			w = 1
		}
		m[t.ID] = w
	}
	return m
}

// ColorMap inverts the tenant declarations into a color→tenant lookup for
// the ordering layer. Nil when no tenant claims a color.
func ColorMap(tenants []TenantConfig) map[types.ColorID]types.TenantID {
	var m map[types.ColorID]types.TenantID
	for _, t := range tenants {
		for _, c := range t.Colors {
			if m == nil {
				m = make(map[types.ColorID]types.TenantID)
			}
			m[c] = t.ID
		}
	}
	return m
}

// TokenBucket is a thread-safe token bucket with float refill, so
// fractional per-request costs and sub-second windows accumulate exactly.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a full bucket refilling at rate tokens/second up
// to burst.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Take attempts to remove n tokens at time now. On success it returns
// (true, 0); on failure the bucket is untouched and the returned duration
// is the retry-after hint a throttled client should honor: a caller that
// waits it out (and finds no one ahead of it) is admitted.
//
// A request larger than the bucket can ever hold is admitted against a
// full bucket and leaves it in debt: tokens go negative, later callers
// wait the debt out, so the long-run rate still holds. Refusing it would
// throttle it forever, however long its sender backs off.
func (b *TokenBucket) Take(n float64, now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.last = now
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	need := min(n, b.burst)
	if b.tokens >= need {
		b.tokens -= n
		return true, 0
	}
	// In whole microseconds (the unit the hint travels in), rounded up and
	// one more, so float error in the refill cannot leave a caller that
	// waited out the hint a hair short.
	us := math.Ceil((need - b.tokens) / b.rate * 1e6)
	return false, (time.Duration(us) + 1) * time.Microsecond
}

// Admission is per-tenant token-bucket admission control. Tenants without
// a configured rate — including the default tenant 0 — are always
// admitted; admission bounds only the tenants an operator declared limits
// for.
type Admission struct {
	buckets map[types.TenantID]*TokenBucket // built once, read-only after
}

// NewAdmission builds admission state from the tenant declarations.
// Returns nil when no tenant declares a rate, so callers can gate the
// ingress check on a nil receiver.
func NewAdmission(tenants []TenantConfig) *Admission {
	var buckets map[types.TenantID]*TokenBucket
	for _, t := range tenants {
		if t.Rate <= 0 {
			continue
		}
		burst := t.Burst
		if burst <= 0 {
			burst = t.Rate
		}
		if buckets == nil {
			buckets = make(map[types.TenantID]*TokenBucket)
		}
		buckets[t.ID] = NewTokenBucket(t.Rate, burst)
	}
	if buckets == nil {
		return nil
	}
	return &Admission{buckets: buckets}
}

// Admit charges n records against the tenant's bucket. ok=false comes
// with the retry-after hint. A nil receiver or an unconfigured tenant
// admits everything.
func (a *Admission) Admit(t types.TenantID, n int, now time.Time) (bool, time.Duration) {
	if a == nil {
		return true, 0
	}
	b := a.buckets[t]
	if b == nil {
		return true, 0
	}
	return b.Take(float64(n), now)
}
