package simclock

import (
	"testing"
	"time"
)

func TestWaitDisabledIsInstant(t *testing.T) {
	prev := Enable(false)
	defer Enable(prev)
	start := time.Now()
	Wait(50 * time.Millisecond)
	if el := time.Since(start); el > 5*time.Millisecond {
		t.Fatalf("Wait with injection disabled took %v, want ~0", el)
	}
}

func TestWaitEnabledDelays(t *testing.T) {
	prev := Enable(true)
	defer Enable(prev)
	const d = 2 * time.Millisecond
	start := time.Now()
	Wait(d)
	if el := time.Since(start); el < d {
		t.Fatalf("Wait(%v) returned after %v", d, el)
	}
}

func TestSpinAccuracy(t *testing.T) {
	for _, d := range []time.Duration{500 * time.Nanosecond, 10 * time.Microsecond, 300 * time.Microsecond} {
		start := time.Now()
		Spin(d)
		el := time.Since(start)
		if el < d {
			t.Errorf("Spin(%v) returned early after %v", d, el)
		}
		// Generous upper bound: scheduling noise can add a few ms in CI,
		// but a gross overshoot indicates a calibration bug.
		if el > d+20*time.Millisecond {
			t.Errorf("Spin(%v) overshot to %v", d, el)
		}
	}
}

func TestSpinNonPositive(t *testing.T) {
	start := time.Now()
	Spin(0)
	Spin(-time.Second)
	if el := time.Since(start); el > time.Millisecond {
		t.Fatalf("Spin(<=0) took %v", el)
	}
}

func TestSpinUntilPastDeadline(t *testing.T) {
	start := time.Now()
	SpinUntil(time.Now().Add(-time.Second))
	if el := time.Since(start); el > time.Millisecond {
		t.Fatalf("SpinUntil(past) took %v", el)
	}
}

func TestSpinUntilFuture(t *testing.T) {
	deadline := time.Now().Add(1 * time.Millisecond)
	SpinUntil(deadline)
	if time.Now().Before(deadline) {
		t.Fatal("SpinUntil returned before deadline")
	}
}

func TestEnableReturnsPrevious(t *testing.T) {
	prev := Enable(true)
	defer Enable(prev)
	if !Enable(false) {
		t.Fatal("Enable(false) should report previous=true")
	}
	if Enabled() {
		t.Fatal("Enabled() should be false after Enable(false)")
	}
}
