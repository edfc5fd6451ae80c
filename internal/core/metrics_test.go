package core

import (
	"fmt"
	"net"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"flexlog/internal/deploy"
	"flexlog/internal/obs"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/storage"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// observedNodes deploys what flexlog-server runs, over loopback TCP: the
// sequencer 900 of color 0 and the one replica 1 of shard 1, both
// publishing into reg, plus the replica's endpoint (a server publishes
// its own endpoint only). client builds a TCP client as node 500.
type observedNodes struct {
	reg    *obs.Registry
	seq    *seq.Sequencer
	rep    *replica.Replica
	repEP  *transport.TCPEndpoint
	client func() *Client
}

func newObservedNodes(t *testing.T) *observedNodes {
	t.Helper()
	ids := []types.NodeID{1, 900, 500}
	addrs := make(map[types.NodeID]string, len(ids))
	var lns []net.Listener
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs[id] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	m := &deploy.Manifest{
		Nodes:   addrs,
		Regions: []deploy.RegionSpec{{Color: 0, Leader: 900}},
		Shards:  []deploy.ShardSpec{{ID: 1, Leaf: 0, Replicas: []types.NodeID{1}}},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	topo, err := m.Topology()
	if err != nil {
		t.Fatal(err)
	}
	book := m.AddressBook()
	n := &observedNodes{reg: obs.NewRegistry()}
	attach := func(id types.NodeID, publish bool) func(h transport.Handler) (transport.Endpoint, error) {
		return func(h transport.Handler) (transport.Endpoint, error) {
			ep, err := transport.ListenTCP(id, book, h)
			if err != nil {
				return nil, err
			}
			if publish {
				ep.PublishObs(n.reg)
				n.repEP = ep
			}
			t.Cleanup(func() { ep.Close() })
			return ep, nil
		}
	}
	scfg := deploy.SequencerConfig(deploy.Deployed(), m.RoleOf(900), topo, m.Tenants)
	if n.seq, err = seq.NewWithEndpoint(scfg, attach(900, false)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.seq.Stop)
	n.seq.PublishObs(n.reg)
	rcfg := deploy.ReplicaConfig(deploy.Deployed(), m.RoleOf(1), topo, storage.TestConfig(), m.Tenants)
	rcfg.Obs = n.reg
	if n.rep, err = replica.NewWithEndpoint(rcfg, attach(1, true)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.rep.Stop)
	n.client = func() *Client {
		c, err := NewClientWithEndpoint(ClientConfig{
			FID: 500, ID: 500, Topo: topo,
			Timeout:       15 * time.Second,
			RetryInterval: 300 * time.Millisecond,
		}, attach(500, false))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return n
}

// familyLines renders one line per metric instance of an exposition:
// family, kind, label set and HELP, sorted. Summaries are listed by their
// _count line, so each instance appears once.
func familyLines(exposition string) []string {
	help := map[string]string{}
	kind := map[string]string{}
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, text, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			help[name] = text
		case strings.HasPrefix(line, "# TYPE "):
			name, k, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			kind[name] = k
		case line != "":
			series, _, _ := strings.Cut(line, " ")
			name, labels, _ := strings.Cut(series, "{")
			labels = "{" + strings.TrimSuffix(labels, "}") + "}"
			if kind[name] == "" {
				name = strings.TrimSuffix(name, "_count")
				if kind[name] != "summary" {
					continue // a summary's _sum line
				}
			} else if kind[name] == "summary" {
				continue // a quantile line
			}
			out = append(out, name+" "+kind[name]+" "+labels+" "+help[name])
		}
	}
	sort.Strings(out)
	return out
}

// TestMetricFamiliesGolden pins every metric family, kind, label set and
// HELP string that a replica with its store, a sequencer and a TCP
// endpoint publish: the autoscaler and OPERATIONS.md read these series by
// name. After a deliberate change, replace the file with the list the
// failure prints.
func TestMetricFamiliesGolden(t *testing.T) {
	n := newObservedNodes(t)
	got := strings.Join(familyLines(n.reg.Snapshot()), "\n") + "\n"
	const path = "testdata/metric_families.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("published metric families differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestPublishedMetricsMatchStats runs traffic through the observed nodes
// and, at a quiescent point, checks that every counter and gauge the
// replica, its store, the sequencer and the TCP endpoint publish equals
// the matching field of their Stats(): /metrics and Stats() read one
// computation.
func TestPublishedMetricsMatchStats(t *testing.T) {
	n := newObservedNodes(t)
	c := n.client()
	// Scrapes run beside the traffic, as a Prometheus server's would.
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				n.reg.Snapshot()
			}
		}
	}()
	var last types.SN
	for i := 0; i < 20; i++ {
		sn, err := c.Append([][]byte{[]byte("stats")}, 0)
		if err != nil {
			t.Fatal(err)
		}
		last = sn
	}
	if _, err := c.Read(last, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Trim(last-1, 0); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-scraped

	type stats struct {
		rep replica.Stats
		st  storage.Stats
		seq seq.Stats
		tcp transport.TCPStats
	}
	take := func() stats {
		return stats{n.rep.Stats(), n.rep.Store().Stats(), n.seq.Stats(), n.repEP.Stats()}
	}
	// Quiescent: the same Stats before and after the scrape.
	var snap stats
	var scrape string
	for i := 0; ; i++ {
		before := take()
		scrape = n.reg.Snapshot()
		if snap = take(); reflect.DeepEqual(before, snap) {
			break
		}
		if i == 100 {
			t.Fatal("the nodes never went quiet")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.rep.Appends+snap.rep.BatchAppends == 0 || snap.seq.Assigned < 20 || snap.st.GC.Ops == 0 || snap.tcp.FramesIn == 0 {
		t.Fatalf("traffic did not reach every layer: %+v", snap)
	}

	// Every series the Stats publish, valued from the one snapshot, is in
	// the scrape with that value.
	want := obs.NewRegistry()
	obs.Publish(want, obs.Labels{"node": "1"}, func() replica.Stats { return snap.rep })
	obs.Publish(want, obs.Labels{"node": "1"}, func() storage.Stats { return snap.st })
	obs.Publish(want, obs.Labels{"node": "900"}, func() seq.Stats { return snap.seq })
	obs.Publish(want, obs.Labels{"node": "1"}, func() transport.TCPStats { return snap.tcp })
	for _, line := range strings.Split(want.Snapshot(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(scrape, "\n"+line+"\n") {
			t.Errorf("scrape lacks %q", line)
		}
	}

	// And field by field, for the series other code reads by name.
	for series, field := range map[string]uint64{
		`flexlog_replica_appends_total{node="1"}`:              snap.rep.Appends,
		`flexlog_replica_pending_orders{node="1"}`:             uint64(snap.rep.PendingOrders),
		`flexlog_replica_held_reads{node="1"}`:                 uint64(snap.rep.HeldNow),
		`flexlog_store_records{node="1"}`:                      uint64(snap.st.Records),
		`flexlog_gc_ops_total{node="1"}`:                       snap.st.GC.Ops,
		`flexlog_pm_tx_total{node="1",outcome="commit"}`:       snap.st.PM.TxCommits,
		`flexlog_tier_ops_total{node="1",op="put",tier="ssd"}`: snap.st.SSD.Writes,
		`flexlog_seq_assigned_total{node="900"}`:               snap.seq.Assigned,
		`flexlog_seq_leader{node="900"}`:                       1,
		`flexlog_tcp_frames_total{dir="in",node="1"}`:          snap.tcp.FramesIn,
		`flexlog_checkpoint_uncovered_entries{node="1"}`:       snap.st.UncoveredEntries,
	} {
		if line := fmt.Sprintf("\n%s %d\n", series, field); !strings.Contains(scrape, line) {
			t.Errorf("scrape lacks %q", strings.TrimSpace(line))
		}
	}
}

// TestStatsFieldsTagged checks that every numeric field of the published
// Stats structs says how it is published: a family name with HELP text,
// or obs:"-".
func TestStatsFieldsTagged(t *testing.T) {
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			tag, ok := f.Tag.Lookup("obs")
			switch k := f.Type.Kind(); {
			case k == reflect.Struct:
				walk(f.Type)
			case k < reflect.Int || k > reflect.Float64 || tag == "-":
			case !ok || !strings.HasPrefix(tag, "flexlog_"):
				t.Errorf("%v.%s: obs tag %q, want a flexlog_ family or \"-\"", typ, f.Name, tag)
			case f.Tag.Get("help") == "":
				t.Errorf("%v.%s: no help tag", typ, f.Name)
			}
		}
	}
	for _, v := range []any{replica.Stats{}, storage.Stats{}, seq.Stats{}, transport.TCPStats{}} {
		walk(reflect.TypeOf(v))
	}
}
