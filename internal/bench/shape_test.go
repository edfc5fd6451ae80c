//go:build shape

// The reconfiguration shape test bars a wall-clock throughput dip, which
// full-parallel `go test ./...` load distorts. It builds only with
// -tags shape: `make shape-check`, part of `make verify`, runs it alone.
// TestReconfigUnderLoad (internal/ctrlplane), histcheck-gated, keeps the
// reconfiguration path in tier-1.

package bench

import (
	"fmt"
	"testing"
)

func TestAblateReconfigShape(t *testing.T) {
	shapeTest(t, "ablate-reconfig", 2, reconfigShapeGates)
}

// reconfigShapeGates checks one ablate-reconfig report against the
// DESIGN.md §15 availability bars: the dip while the split + drain run is
// bounded (no stall — clients ride typed rejections and re-resolution),
// and post-split throughput recovers to >= 95% of pre-split.
func reconfigShapeGates(rep *Report) error {
	pre, ok1 := rep.Value("append throughput", "pre")
	during, ok2 := rep.Value("append throughput", "during")
	post, ok3 := rep.Value("append throughput", "post")
	if !ok1 || !ok2 || !ok3 || pre <= 0 {
		return fmt.Errorf("missing phase values: pre=%v during=%v post=%v", pre, during, post)
	}
	if during < 0.5*pre {
		return fmt.Errorf("reconfiguration dip not bounded: during=%.1fk pre=%.1fk (<50%%)", during, pre)
	}
	if post < 0.95*pre {
		return fmt.Errorf("post-split throughput did not recover: post=%.1fk pre=%.1fk (<95%%)", post, pre)
	}
	return nil
}
