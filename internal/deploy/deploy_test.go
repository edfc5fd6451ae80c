package deploy

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"flexlog/internal/types"
)

func TestExampleValidates(t *testing.T) {
	m := Example()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	topo, err := m.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := topo.Leader(0); l != 900 {
		t.Fatalf("leader = %v", l)
	}
	book := m.AddressBook()
	if a, ok := book.Lookup(1); !ok || a == "" {
		t.Fatal("address book missing node 1")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	m := Example()
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(m.Nodes) || len(got.Shards) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
	if _, err := Parse([]byte("{not json")); err == nil {
		t.Fatal("bad json should error")
	}
}

// TestExampleManifestBytes pins the manifest format: `flexlog-server
// -example` prints Example() exactly as testdata/example.json (tenants
// included, now that a manifest entry is a qos.TenantConfig), and that file
// parses back into a manifest that prints the same bytes.
func TestExampleManifestBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "example.json"))
	if err != nil {
		t.Fatal(err)
	}
	print := func(m *Manifest) []byte {
		raw, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(raw, '\n') // flexlog-server prints it with Println
	}
	if got := print(Example()); !bytes.Equal(got, golden) {
		t.Fatalf("Example() prints\n%s\nwant\n%s", got, golden)
	}
	m, err := Parse(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := print(m); !bytes.Equal(got, golden) {
		t.Fatalf("parsed example prints\n%s\nwant\n%s", got, golden)
	}
	if len(m.Tenants) != 2 || m.Tenants[1].Rate != 50_000 || m.Tenants[1].Burst != 10_000 {
		t.Fatalf("tenants did not survive the round trip: %+v", m.Tenants)
	}
}

func TestValidationRejects(t *testing.T) {
	cases := map[string]func(*Manifest){
		"no regions":       func(m *Manifest) { m.Regions = nil },
		"no nodes":         func(m *Manifest) { m.Nodes = nil },
		"unknown leader":   func(m *Manifest) { m.Regions[0].Leader = 999 },
		"unknown backup":   func(m *Manifest) { m.Regions[0].Backups = []types.NodeID{999} },
		"unknown replica":  func(m *Manifest) { m.Shards[0].Replicas = []types.NodeID{999} },
		"empty shard":      func(m *Manifest) { m.Shards[0].Replicas = nil },
		"unknown leaf":     func(m *Manifest) { m.Shards[0].Leaf = 42 },
		"duplicate region": func(m *Manifest) { m.Regions = append(m.Regions, m.Regions[0]) },
		"duplicate shard":  func(m *Manifest) { m.Shards = append(m.Shards, m.Shards[0]) },
		"orphan parent": func(m *Manifest) {
			m.Regions = append(m.Regions, RegionSpec{Color: 5, Parent: 42, Leader: 900})
		},
		"unknown spare":        func(m *Manifest) { m.Spares = []SpareSpec{{ID: 999, Shard: 1}} },
		"spare orphan shard":   func(m *Manifest) { m.Spares = []SpareSpec{{ID: 4, Shard: 42}} },
		"duplicate spare":      func(m *Manifest) { m.Spares = []SpareSpec{{ID: 4, Shard: 1}, {ID: 4, Shard: 1}} },
		"spare already member": func(m *Manifest) { m.Spares = []SpareSpec{{ID: 1, Shard: 1}} },
	}
	for name, mutate := range cases {
		m := Example()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

func TestRoleOf(t *testing.T) {
	m := Example()
	if r := m.RoleOf(1); r.Kind != "replica" || r.Shard != 1 {
		t.Fatalf("role of 1 = %+v", r)
	}
	if r := m.RoleOf(901); r.Kind != "sequencer" || r.Region != 0 || r.Leader {
		t.Fatalf("role of 901 = %+v", r)
	}
	if r := m.RoleOf(900); r.Kind != "sequencer" || !r.Leader {
		t.Fatalf("role of 900 = %+v", r)
	}
	if r := m.RoleOf(12345); r.Kind != "unknown" {
		t.Fatalf("role of 12345 = %+v", r)
	}
	// The example's spare runs as a replica for its target shard, but the
	// topology must NOT list it as a member until it is promoted.
	if r := m.RoleOf(4); r.Kind != "replica" || r.Shard != 1 {
		t.Fatalf("role of spare 4 = %+v", r)
	}
	topo, err := m.Topology()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := topo.Shard(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sh.Replicas {
		if id == 4 {
			t.Fatal("spare 4 leaked into shard 1's membership")
		}
	}
}

func TestNodeIDsSorted(t *testing.T) {
	ids := Example().NodeIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("ids not sorted")
		}
	}
}
