//go:build shape

// The Table-1 shape tests assert a compute/storage split timed on the wall
// clock, which full-parallel `go test ./...` load distorts (one failed that
// way in PR 20). They build only with -tags shape: `make shape-check`, part
// of `make verify`, runs them alone.

package workload

import (
	"testing"

	"flexlog/internal/simclock"
	"flexlog/internal/ssd"
)

func TestProfileVideoShape(t *testing.T) {
	if raceEnabled {
		t.Skip("compute/storage split distorted by the race detector")
	}
	prev := simclock.Enable(true)
	defer simclock.Enable(prev)
	dev := ssd.New(ssd.NVMe())
	rep, err := ProfileVideo(dev, 20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	pct := rep.StoragePercent()
	// Table 1 reports ≈41% for video; the synthetic pipeline must land in
	// the same regime (storage is a major but not dominant cost).
	if pct < 15 || pct > 75 {
		t.Fatalf("video storage share = %.1f%%, outside the Table-1 regime", pct)
	}
	for _, class := range []string{"open", "read", "write", "fstat", "close"} {
		if rep.PerClass[class] <= 0 {
			t.Errorf("class %q unaccounted", class)
		}
	}
	if rep.ClassPercent("read") <= rep.ClassPercent("fstat") {
		t.Error("reads should dominate fstat time")
	}
}

func TestProfileGzipShape(t *testing.T) {
	if raceEnabled {
		t.Skip("compute/storage split distorted by the race detector")
	}
	prev := simclock.Enable(true)
	defer simclock.Enable(prev)
	dev := ssd.New(ssd.NVMe())
	rep, err := ProfileGzip(dev, 20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 48.1%. The compute side is measured in real time, so the share
	// drifts up on hosts that compress faster; keep the band wide enough
	// for that while still requiring compute to be visible at all.
	pct := rep.StoragePercent()
	if pct < 15 || pct > 90 {
		t.Fatalf("gzip storage share = %.1f%%, outside the Table-1 regime", pct)
	}
	// Gzip writes compressed output: write time must be nonzero.
	if rep.PerClass["write"] <= 0 {
		t.Error("write time unaccounted")
	}
}
