package core

import (
	"math/rand/v2"
	"time"
)

// backoff paces the client's re-broadcast loops: a capped exponential
// envelope with full jitter. Attempt n waits uniformly in
// [base/2, min(cap, base·2^n)] — the jitter decorrelates the retry storms
// of many clients hammering a recovering shard in lockstep, the cap keeps
// a long outage probed every few intervals rather than minutes apart, and
// the base/2 floor keeps each wait a meaningful response window (the same
// timer doubles as the ack wait in every retry loop).
type backoff struct {
	base time.Duration
	cap  time.Duration
	env  time.Duration // current envelope: min(cap, base·2^attempt)
	rng  rand.PCG
}

// backoffCapFactor bounds the envelope at this multiple of the base
// retry interval.
const backoffCapFactor = 16

// backoffStream is the fixed second word of every backoff's PCG seed.
const backoffStream = 0x9E3779B97F4A7C15

// newBackoff derives a per-operation backoff from the client's seeded
// rng: pacing is reproducible for a fixed client seed, yet decorrelated
// across concurrent operations of the same client. One is made per append
// batch and per read, so the jitter source is a PCG held by value (two
// words of state, seeded in O(1), nothing on the heap), not math/rand's
// 607-word lagged-Fibonacci source.
func (c *Client) newBackoff() backoff {
	c.mu.Lock()
	seed := c.rng.Int63()
	c.mu.Unlock()
	return newBackoff(c.cfg.RetryInterval, seed)
}

func newBackoff(base time.Duration, seed int64) backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	return backoff{
		base: base,
		cap:  backoffCapFactor * base,
		env:  base,
		rng:  *rand.NewPCG(uint64(seed), backoffStream),
	}
}

// next returns the wait before the following re-broadcast and widens the
// envelope for the attempt after it.
func (b *backoff) next() time.Duration {
	floor := b.base / 2
	wait := floor + time.Duration(b.rng.Uint64()%uint64(b.env-floor+1)) // modulo bias is noise in a jitter
	if b.env < b.cap {
		b.env *= 2
		if b.env > b.cap {
			b.env = b.cap
		}
	}
	return wait
}

// nextAfter is next with a server retry-after hint folded in: the wait is
// max(hint, jittered backoff). The envelope still widens — a hint defers
// the retry, it does not reset the client's own pacing.
func (b *backoff) nextAfter(hint time.Duration) time.Duration {
	wait := b.next()
	if hint > wait {
		return hint
	}
	return wait
}
