package obs

import (
	"strings"
	"testing"
)

type devStats struct {
	Reads  uint64 `obs:"flexlog_dev_ops_total{op=read}" help:"Device operations, by op."`
	Writes uint64 `obs:"flexlog_dev_ops_total{op=write}" help:"Device operations, by op."`
}

type nodeStats struct {
	Depth    int      `obs:"flexlog_node_depth" help:"Queue depth."`
	Ratio    float64  `obs:"flexlog_node_ratio" help:"A ratio."`
	Internal uint64   `obs:"-"`
	Name     string   // not a number: never published
	Dev      devStats `obs:"{tier=ssd}"`
}

// TestPublishFromTags publishes a Stats-like struct and checks the
// exposition: _total names are counters and the rest gauges, a nested
// struct's tag labels every field inside it, obs:"-" fields are left out,
// and every scrape reads a fresh snapshot.
func TestPublishFromTags(t *testing.T) {
	reg := NewRegistry()
	st := nodeStats{Depth: 3, Ratio: 0.5, Internal: 9, Dev: devStats{Reads: 7, Writes: 2}}
	Publish(reg, Labels{"node": "1"}, func() nodeStats { return st })
	st.Dev.Writes = 4
	want := strings.Join([]string{
		`# HELP flexlog_dev_ops_total Device operations, by op.`,
		`# TYPE flexlog_dev_ops_total counter`,
		`flexlog_dev_ops_total{node="1",op="read",tier="ssd"} 7`,
		`flexlog_dev_ops_total{node="1",op="write",tier="ssd"} 4`,
		`# HELP flexlog_node_depth Queue depth.`,
		`# TYPE flexlog_node_depth gauge`,
		`flexlog_node_depth{node="1"} 3`,
		`# HELP flexlog_node_ratio A ratio.`,
		`# TYPE flexlog_node_ratio gauge`,
		`flexlog_node_ratio{node="1"} 0.5`,
		``,
	}, "\n")
	if got := reg.Snapshot(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPublishUntaggedPanics checks that a numeric field nobody decided on
// fails at registration, not silently off /metrics.
func TestPublishUntaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("publishing an untagged numeric field should panic")
		}
	}()
	Publish(NewRegistry(), nil, func() struct{ N uint64 } { return struct{ N uint64 }{} })
}
