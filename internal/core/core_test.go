package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"flexlog/internal/types"
)

// newSimple builds a single-region cluster with the given shard count and
// one client.
func newSimple(t *testing.T, shards int) (*Cluster, *Client) {
	t.Helper()
	cl, err := SimpleCluster(TestClusterConfig(), shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return cl, c
}

func TestAppendReadRoundTrip(t *testing.T) {
	_, c := newSimple(t, 1)
	sn, err := c.Append([][]byte{[]byte("hello")}, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	if !sn.Valid() {
		t.Fatal("append returned invalid SN")
	}
	got, err := c.Read(sn, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("read = %q", got)
	}
}

// TestReadResultIsTheClients: the bytes Read returns are the client's
// own. Writing into them changes no replica's record: every replica, and
// a later read, still return the appended bytes (a cached unit is
// replaced, never mutated: DESIGN.md §7).
func TestReadResultIsTheClients(t *testing.T) {
	cl, c := newSimple(t, 1)
	sn, err := c.Append([][]byte{[]byte("hello")}, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(sn, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 'Y'
	shard := cl.Topology().ShardsInRegion(types.MasterColor)[0].ID
	for _, r := range cl.Replicas(shard) {
		if data, err := r.Store().Get(types.MasterColor, sn); err != nil || string(data) != "hello" {
			t.Fatalf("replica %v holds %q, %v after the client wrote into its read; want \"hello\"", r.ID(), data, err)
		}
	}
	if again, err := c.Read(sn, types.MasterColor); err != nil || string(again) != "hello" {
		t.Fatalf("second read = %q, %v; want \"hello\"", again, err)
	}
}

func TestAppendBatchGetsLastSN(t *testing.T) {
	_, c := newSimple(t, 1)
	records := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	last, err := c.Append(records, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	// The batch occupies [last-2, last]; each record is readable.
	for i := 0; i < 3; i++ {
		snI := last - types.SN(2-i)
		got, err := c.Read(snI, types.MasterColor)
		if err != nil {
			t.Fatalf("read %v: %v", snI, err)
		}
		if !bytes.Equal(got, records[i]) {
			t.Fatalf("record %d = %q", i, got)
		}
	}
}

func TestAppendEmptyRejected(t *testing.T) {
	_, c := newSimple(t, 1)
	if _, err := c.Append(nil, types.MasterColor); err == nil {
		t.Fatal("empty append should fail")
	}
}

func TestSNsStrictlyIncreasePerColor(t *testing.T) {
	_, c := newSimple(t, 1)
	var prev types.SN
	for i := 0; i < 20; i++ {
		sn, err := c.Append([][]byte{[]byte(fmt.Sprintf("r%d", i))}, types.MasterColor)
		if err != nil {
			t.Fatal(err)
		}
		if sn <= prev {
			t.Fatalf("SN %v not above previous %v", sn, prev)
		}
		prev = sn
	}
}

func TestConcurrentAppendsDistinctSNs(t *testing.T) {
	cl, _ := newSimple(t, 2)
	const clients, per = 4, 25
	var mu sync.Mutex
	seen := make(map[types.SN][]byte)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c, err := cl.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Client, i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				data := []byte(fmt.Sprintf("c%d-%d", i, j))
				sn, err := c.Append([][]byte{data}, types.MasterColor)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				if prev, dup := seen[sn]; dup {
					t.Errorf("SN %v assigned to both %q and %q", sn, prev, data)
				}
				seen[sn] = data
				mu.Unlock()
			}
		}(c, i)
	}
	wg.Wait()
	if len(seen) != clients*per {
		t.Fatalf("got %d distinct SNs, want %d", len(seen), clients*per)
	}
}

func TestReadNotFound(t *testing.T) {
	_, c := newSimple(t, 2)
	sn, _ := c.Append([][]byte{[]byte("x")}, types.MasterColor)
	// An SN far above the committed frontier: ⊥ after the read hold.
	if _, err := c.Read(sn+1000, types.MasterColor); !errors.Is(err, ErrNotFound) {
		t.Fatalf("future read: %v", err)
	}
}

func TestSubscribeReturnsSortedLog(t *testing.T) {
	_, c := newSimple(t, 3)
	want := make(map[types.SN][]byte)
	for i := 0; i < 30; i++ {
		data := []byte(fmt.Sprintf("rec%02d", i))
		sn, err := c.Append([][]byte{data}, types.MasterColor)
		if err != nil {
			t.Fatal(err)
		}
		want[sn] = data
	}
	recs, err := c.Subscribe(types.MasterColor, types.InvalidSN)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("subscribe returned %d records, want %d", len(recs), len(want))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].SN <= recs[i-1].SN {
			t.Fatal("subscribe output not sorted")
		}
	}
	for _, r := range recs {
		if !bytes.Equal(want[r.SN], r.Data) {
			t.Fatalf("record %v = %q, want %q", r.SN, r.Data, want[r.SN])
		}
	}
}

// Property 2 (Stability): s1 from an earlier subscribe is a substring of s2
// from a later subscribe, absent trims.
func TestSubscribeStabilityProperty(t *testing.T) {
	_, c := newSimple(t, 2)
	for i := 0; i < 10; i++ {
		c.Append([][]byte{[]byte(fmt.Sprintf("a%d", i))}, types.MasterColor)
	}
	s1, err := c.Subscribe(types.MasterColor, types.InvalidSN)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Append([][]byte{[]byte(fmt.Sprintf("b%d", i))}, types.MasterColor)
	}
	s2, err := c.Subscribe(types.MasterColor, types.InvalidSN)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2) < len(s1) {
		t.Fatalf("log shrank: %d -> %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].SN != s2[i].SN || !bytes.Equal(s1[i].Data, s2[i].Data) {
			t.Fatalf("s1 not a prefix of s2 at %d", i)
		}
	}
}

// Property 3 (Append-Visibility): an append that responded before the
// subscribe was invoked must be in the subscription, and readable.
func TestAppendVisibilityProperty(t *testing.T) {
	_, c := newSimple(t, 3)
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("v%02d", i))
		sn, err := c.Append([][]byte{data}, types.MasterColor)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Read(sn, types.MasterColor)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read-after-append %d: %q, %v", i, got, err)
		}
		recs, err := c.Subscribe(types.MasterColor, types.InvalidSN)
		if err != nil {
			t.Fatal(err)
		}
		foundIt := false
		for _, r := range recs {
			if r.SN == sn {
				foundIt = bytes.Equal(r.Data, data)
			}
		}
		if !foundIt {
			t.Fatalf("append %d (sn %v) not visible in subscribe", i, sn)
		}
	}
}

func TestTrim(t *testing.T) {
	_, c := newSimple(t, 2)
	var sns []types.SN
	for i := 0; i < 10; i++ {
		sn, err := c.Append([][]byte{[]byte(fmt.Sprintf("t%d", i))}, types.MasterColor)
		if err != nil {
			t.Fatal(err)
		}
		sns = append(sns, sn)
	}
	head, tail, err := c.Trim(sns[4], types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	if head != sns[5] || tail != sns[9] {
		t.Fatalf("bounds after trim = %v, %v; want %v, %v", head, tail, sns[5], sns[9])
	}
	// Trimmed records are ⊥.
	for _, sn := range sns[:5] {
		if _, err := c.Read(sn, types.MasterColor); !errors.Is(err, ErrNotFound) {
			t.Fatalf("read of trimmed %v: %v", sn, err)
		}
	}
	// Survivors intact.
	for i, sn := range sns[5:] {
		got, err := c.Read(sn, types.MasterColor)
		if err != nil || string(got) != fmt.Sprintf("t%d", i+5) {
			t.Fatalf("surviving record %v: %q, %v", sn, got, err)
		}
	}
	// Subscribe excludes trimmed records (Property 3's trim caveat).
	recs, _ := c.Subscribe(types.MasterColor, types.InvalidSN)
	if len(recs) != 5 {
		t.Fatalf("post-trim subscribe = %d records", len(recs))
	}
}

func TestAddColorAndColorIsolation(t *testing.T) {
	cl, c := newSimple(t, 1)
	_ = cl
	if err := c.AddColor(7, types.MasterColor); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := c.AddColor(7, types.MasterColor); err != nil {
		t.Fatal(err)
	}
	sn7, err := c.Append([][]byte{[]byte("seven")}, 7)
	if err != nil {
		t.Fatal(err)
	}
	snM, err := c.Append([][]byte{[]byte("master")}, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	// Color 7's log serves its own records only. Note SNs are per-color
	// (each region has its own sequencer counter), so the same numeric SN
	// may exist in both logs — but it must name different records.
	got, err := c.Read(sn7, 7)
	if err != nil || string(got) != "seven" {
		t.Fatalf("read color 7: %q, %v", got, err)
	}
	if data, err := c.Read(snM, 7); err == nil && string(data) == "master" {
		t.Fatal("master record leaked into color 7")
	}
	got, err = c.Read(snM, types.MasterColor)
	if err != nil || string(got) != "master" {
		t.Fatalf("read master: %q, %v", got, err)
	}
}

func TestTreeClusterLeafAndTotalOrder(t *testing.T) {
	cfg := TestClusterConfig()
	cl, err := TreeCluster(cfg, 2, 1) // master + 2 leaf colors, 1 shard each
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	// Appends to leaf colors are ordered by their leaf sequencers.
	sn1, err := c.Append([][]byte{[]byte("leaf1")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sn2, err := c.Append([][]byte{[]byte("leaf2")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Total-order appends to the master region travel the tree to the root.
	snM, err := c.Append([][]byte{[]byte("total")}, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sn    types.SN
		color types.ColorID
		want  string
	}{{sn1, 1, "leaf1"}, {sn2, 2, "leaf2"}, {snM, types.MasterColor, "total"}} {
		got, err := c.Read(tc.sn, tc.color)
		if err != nil || string(got) != tc.want {
			t.Fatalf("read %v/%v = %q, %v", tc.color, tc.sn, got, err)
		}
	}
	// The root sequencer assigned only the master append.
	root := cl.LeaderOf(types.MasterColor)
	if root.Stats().Assigned != 1 {
		t.Fatalf("root assigned = %d, want 1", root.Stats().Assigned)
	}
}

func TestMultiTenancyDistinctColors(t *testing.T) {
	cfg := TestClusterConfig()
	cl, err := TreeCluster(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	tenantA, _ := cl.NewClient()
	tenantB, _ := cl.NewClient()
	var wg sync.WaitGroup
	for i, tenant := range []*Client{tenantA, tenantB} {
		wg.Add(1)
		go func(c *Client, color types.ColorID) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := c.Append([][]byte{[]byte(fmt.Sprintf("%v-%d", color, j))}, color); err != nil {
					t.Errorf("tenant %v append: %v", color, err)
					return
				}
			}
		}(tenant, types.ColorID(i+1))
	}
	wg.Wait()
	// Each tenant sees exactly its own records.
	recsA, _ := tenantA.Subscribe(1, types.InvalidSN)
	recsB, _ := tenantB.Subscribe(2, types.InvalidSN)
	if len(recsA) != 20 || len(recsB) != 20 {
		t.Fatalf("tenant logs = %d, %d", len(recsA), len(recsB))
	}
	for _, r := range recsA {
		if string(r.Data[:7]) != "color#1" {
			t.Fatalf("tenant A saw %q", r.Data)
		}
	}
}

func TestMultiAppendAtomic(t *testing.T) {
	cfg := TestClusterConfig()
	cl, err := TreeCluster(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, _ := cl.NewClient()
	// One shard on the master region to act as the broker (special) color.
	if _, err := cl.AddShard(types.MasterColor); err != nil {
		t.Fatal(err)
	}
	sets := [][][]byte{
		{[]byte("to-color-1a"), []byte("to-color-1b")},
		{[]byte("to-color-2")},
	}
	colors := []types.ColorID{1, 2}
	if err := c.MultiAppend(sets, colors, types.MasterColor); err != nil {
		t.Fatal(err)
	}
	// Both colors received their records.
	waitFor := func(color types.ColorID, wants []string) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			recs, err := c.Subscribe(color, types.InvalidSN)
			if err == nil {
				found := 0
				for _, w := range wants {
					for _, r := range recs {
						if string(r.Data) == w {
							found++
							break
						}
					}
				}
				if found == len(wants) {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("color %v never received %v", color, wants)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(1, []string{"to-color-1a", "to-color-1b"})
	waitFor(2, []string{"to-color-2"})
}

func TestMultiAppendMismatchedArgs(t *testing.T) {
	_, c := newSimple(t, 1)
	if err := c.MultiAppend([][][]byte{{[]byte("x")}}, []types.ColorID{1, 2}, types.MasterColor); err == nil {
		t.Fatal("mismatched sets/colors should fail")
	}
	if err := c.MultiAppend(nil, nil, types.MasterColor); err == nil {
		t.Fatal("empty multi-append should fail")
	}
}

func TestClientClose(t *testing.T) {
	_, c := newSimple(t, 1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append([][]byte{[]byte("x")}, types.MasterColor); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if _, err := c.Read(1, types.MasterColor); !errors.Is(err, ErrClosed) && !errors.Is(err, ErrTimeout) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestAddColorWithoutBackend(t *testing.T) {
	_, c := newSimple(t, 1)
	c.SetColorAdder(nil)
	if err := c.AddColor(9, types.MasterColor); err == nil {
		t.Fatal("AddColor without backend should fail")
	}
}
