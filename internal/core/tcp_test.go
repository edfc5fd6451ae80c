package core

import (
	"fmt"
	"net"
	"testing"
	"time"

	"flexlog/internal/deploy"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/storage"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// TestTCPClusterEndToEnd deploys a complete FlexLog — a sequencer group
// and one shard of three replicas, each configured as flexlog-server
// configures it — over real TCP sockets on loopback and exercises the
// public API through a TCP client, validating that the protocols (and
// their wire encodings) survive a real network.
func TestTCPClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP deployment test skipped in -short mode")
	}
	// Reserve loopback ports.
	ids := []types.NodeID{1, 2, 3, 900, 500}
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
		Shards:  []deploy.ShardSpec{{ID: 1, Leaf: 0, Replicas: []types.NodeID{1, 2, 3}}},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	topo, err := m.Topology()
	if err != nil {
		t.Fatal(err)
	}
	book := m.AddressBook()
	attach := func(id types.NodeID) func(h transport.Handler) (transport.Endpoint, error) {
		return func(h transport.Handler) (transport.Endpoint, error) {
			return transport.ListenTCP(id, book, h)
		}
	}

	s, err := seq.NewWithEndpoint(deploy.SequencerConfig(deploy.Deployed(), m.RoleOf(900), topo, m.Tenants), attach(900))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for _, id := range []types.NodeID{1, 2, 3} {
		r, err := replica.NewWithEndpoint(deploy.ReplicaConfig(deploy.Deployed(), m.RoleOf(id), topo, storage.TestConfig(), m.Tenants), attach(id))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
	}

	// Client over TCP.
	client, err := NewClientWithEndpoint(ClientConfig{
		FID: 500, ID: 500, Topo: topo,
		Timeout:       15 * time.Second,
		RetryInterval: 300 * time.Millisecond,
	}, attach(500))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Append / read / subscribe / trim over the wire.
	var sns []types.SN
	for i := 0; i < 5; i++ {
		sn, err := client.Append([][]byte{fmt.Appendf(nil, "tcp-%d", i)}, 0)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		sns = append(sns, sn)
	}
	got, err := client.Read(sns[3], 0)
	if err != nil || string(got) != "tcp-3" {
		t.Fatalf("read = %q, %v", got, err)
	}
	recs, err := client.Subscribe(0, types.InvalidSN)
	if err != nil || len(recs) != 5 {
		t.Fatalf("subscribe = %d records, %v", len(recs), err)
	}
	head, tail, err := client.Trim(sns[1], 0)
	if err != nil {
		t.Fatalf("trim: %v", err)
	}
	if head != sns[2] || tail != sns[4] {
		t.Fatalf("bounds after trim = %v, %v", head, tail)
	}
	if _, err := client.Read(sns[0], 0); err == nil {
		t.Fatal("trimmed record still readable")
	}
}
