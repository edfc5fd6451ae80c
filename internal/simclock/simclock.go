// Package simclock provides calibrated latency injection for device and
// network simulation.
//
// The FlexLog reproduction models persistent-memory accesses (hundreds of
// nanoseconds) and datacenter network hops (tens of microseconds). OS sleep
// granularity is far too coarse for either, so sub-millisecond waits are
// realized as busy-waits on the monotonic clock, while longer waits sleep
// for the bulk of the duration and spin only for the remainder.
//
// Latency injection can be disabled globally (the default for unit tests):
// with injection disabled Wait returns immediately, so the protocol stack
// runs at full speed while preserving identical code paths.
package simclock

import (
	"runtime"
	"sync/atomic"
	"time"
)

// spinThreshold is the longest duration realized purely by spinning.
// Above it, Wait sleeps for all but the final spinThreshold and spins the
// remainder, trading a little CPU for accuracy.
const spinThreshold = 200 * time.Microsecond

// enabled gates all latency injection. Benchmarks enable it; unit tests
// leave it off so the suite stays fast.
var enabled atomic.Bool

// Enable turns latency injection on or off process-wide and returns the
// previous setting so callers can restore it.
func Enable(on bool) (previous bool) {
	return enabled.Swap(on)
}

// Enabled reports whether latency injection is currently active.
func Enabled() bool { return enabled.Load() }

// Wait injects a delay of d if latency injection is enabled.
// It is a no-op for non-positive d or when injection is disabled.
func Wait(d time.Duration) {
	if d <= 0 || !enabled.Load() {
		return
	}
	Spin(d)
}

// Spin unconditionally delays for d with sub-microsecond accuracy,
// regardless of the global enable flag. Most callers want Wait.
func Spin(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	if d > spinThreshold {
		time.Sleep(d - spinThreshold)
	}
	for time.Since(start) < d {
		// Busy-wait. time.Now uses the vDSO on Linux (~tens of ns per
		// call), which bounds the overshoot to well under a microsecond.
		// Yield so concurrent goroutines make progress even when the
		// runtime has few Ps (spinning must not starve the simulation).
		runtime.Gosched()
	}
}

// SpinUntil unconditionally delays until deadline (no-op if already past).
func SpinUntil(deadline time.Time) {
	d := time.Until(deadline)
	if d <= 0 {
		return
	}
	if d > spinThreshold {
		time.Sleep(d - spinThreshold)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
