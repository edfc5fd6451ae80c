package main

import (
	"context"
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/deploy"
	"flexlog/internal/pmem"
	"flexlog/internal/proto"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/storage"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// The ladder times one call into each layer's public functions, single
// threaded and with nothing else running, each rung building its layer from
// that layer's exported constructors only. A rung is that layer's share of
// an uncontended append or read; under load the layers overlap and queue,
// so the rungs do not add up to a latency there.

const (
	ladderBatch  = 64  // records per batch in the batch-shaped rungs
	ladderRecord = 128 // bytes per record
	ladderSeqID  = types.NodeID(firstSeqID)
	ladderRepID  = types.NodeID(firstReplicaID)
	ladderCliID  = types.NodeID(firstClientID)
)

// rung is one timed call. Div converts ns to the metric's unit.
type rung struct {
	Name   string
	Allocs string // metric name for allocs/op, if one is published
	Div    float64
	Run    func(b *testing.B)
}

var rungs = []rung{
	{Name: "ladder.pmem.tx_commit_ns", Div: 1, Run: rungPMTx},
	{Name: "ladder.storage.putbatch_ns", Div: 1, Run: rungPutBatch},
	{Name: "ladder.storage.get_hit_ns", Div: 1, Run: func(b *testing.B) { rungGet(b, cacheBytes, 1024) }},
	{Name: "ladder.storage.get_miss_ns", Div: 1, Run: func(b *testing.B) { rungGet(b, 64<<10, 16<<10) }},
	{Name: "ladder.proto.encode_append_ns", Allocs: "ladder.proto.encode_append_allocs", Div: 1, Run: rungEncode},
	{Name: "ladder.proto.decode_append_ns", Div: 1, Run: rungDecode},
	{Name: "ladder.transport.tcp_rtt_us", Div: 1e3, Run: rungTCP},
	{Name: "ladder.seq.order_round_us", Div: 1e3, Run: func(b *testing.B) { rungOrder(b, false) }},
	{Name: "ladder.seq.order_round_depth2_us", Div: 1e3, Run: func(b *testing.B) { rungOrder(b, true) }},
	{Name: "ladder.replica.append_commit_us", Div: 1e3, Run: func(b *testing.B) { rungReplica(b, false) }},
	{Name: "ladder.replica.read_us", Div: 1e3, Run: func(b *testing.B) { rungReplica(b, true) }},
	{Name: "ladder.core.batcher_enqueue_ns", Div: 1, Run: rungBatcher},
}

var testingInit sync.Once

// runLadder times every rung for benchtime each. report, if not nil, is
// called with each result as it arrives.
func runLadder(benchtime time.Duration, report func(r rung, res testing.BenchmarkResult)) (metricSet, error) {
	testingInit.Do(testing.Init)
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return nil, err
	}
	out := metricSet{}
	for _, r := range rungs {
		res := testing.Benchmark(r.Run)
		if res.N == 0 {
			return nil, fmt.Errorf("ladder rung %s failed", r.Name)
		}
		out.set(r.Name, float64(res.T.Nanoseconds())/float64(res.N)/r.Div, res.N)
		if r.Allocs != "" {
			out.set(r.Allocs, float64(res.AllocsPerOp()), res.N)
		}
		if report != nil {
			report(r, res)
		}
	}
	return out, nil
}

func ladderRecords(n, size int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = make([]byte, size)
	}
	return recs
}

func rungPMTx(b *testing.B) {
	pool, err := pmem.New(1<<20, pmem.Zero())
	if err != nil {
		b.Fatal(err)
	}
	off, err := pool.Alloc(4096)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, ladderRecord)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := pool.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Put(off, data); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func rungPutBatch(b *testing.B) {
	// Uncommitted batches cannot leave PM, so the store is replaced before
	// its 64 MiB fill.
	const perStore = 4096
	recs := ladderRecords(ladderBatch, ladderRecord)
	var st *storage.Store
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perStore == 0 {
			b.StopTimer()
			if st != nil {
				st.Close()
			}
			var err error
			if st, err = storage.Open(storeConfig(cacheBytes, 0)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := st.PutBatch(types.MasterColor, types.Token(i+1), recs); err != nil {
			b.Fatal(err)
		}
	}
}

// rungGet reads committed 1 KiB records round-robin. With the records
// within the cache every read after the first round hits; with far more
// records than cache every read misses and goes to PM.
func rungGet(b *testing.B, cache, records int) {
	st, err := storage.Open(storeConfig(cache, 0))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := ladderRecords(1, 1024)
	for i := 0; i < records; i++ {
		tok := types.Token(i + 1)
		if err := st.PutBatch(types.MasterColor, tok, rec); err != nil {
			b.Fatal(err)
		}
		if err := st.Commit(tok, types.MakeSN(1, uint32(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < records; i++ { // first round fills the cache
		if _, err := st.Get(types.MasterColor, types.MakeSN(1, uint32(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(types.MasterColor, types.MakeSN(1, uint32(i%records+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func ladderAppendMsg() proto.AppendBatchReq {
	sets := make([][][]byte, ladderBatch)
	for i := range sets {
		sets[i] = ladderRecords(1, ladderRecord)
	}
	return proto.AppendBatchReq{Color: types.MasterColor, Token: types.MakeToken(uint32(ladderCliID), 1), Sets: sets, Client: ladderCliID}
}

var ladderSink any

func rungEncode(b *testing.B) {
	var msg any = ladderAppendMsg() // boxed once, as the transport receives it
	buf := make([]byte, 0, 32<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = proto.AppendFrame(buf[:0], ladderCliID, msg); err != nil {
			b.Fatal(err)
		}
	}
	ladderSink = buf
}

func rungDecode(b *testing.B) {
	frame, err := proto.AppendFrame(nil, ladderCliID, ladderAppendMsg())
	if err != nil {
		b.Fatal(err)
	}
	body := frame[4:] // DecodeFrame takes the bytes after the length prefix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, msg, err := proto.DecodeFrame(body)
		if err != nil {
			b.Fatal(err)
		}
		ladderSink = msg
	}
}

// ladderNet is a set of nodes with reserved loopback addresses, on which a
// rung places real layers and stub peers.
type ladderNet struct {
	book *transport.AddressBook
	eps  []*transport.TCPEndpoint
}

func newLadderNet(b *testing.B, m *deploy.Manifest) *ladderNet {
	if err := reservePorts(m, ladderCliID); err != nil {
		b.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		b.Fatal(err)
	}
	return &ladderNet{book: m.AddressBook()}
}

func (n *ladderNet) attach(id types.NodeID) func(transport.Handler) (transport.Endpoint, error) {
	return func(h transport.Handler) (transport.Endpoint, error) {
		ep, err := transport.ListenTCP(id, n.book, h)
		if err != nil {
			return nil, err
		}
		n.eps = append(n.eps, ep)
		return ep, nil
	}
}

// stub listens as node id and hands every inbound message to h together
// with the endpoint to answer on.
func (n *ladderNet) stub(b *testing.B, id types.NodeID, h func(ep transport.Endpoint, from types.NodeID, msg transport.Message)) transport.Endpoint {
	var ep atomic.Pointer[transport.TCPEndpoint]
	got, err := n.attach(id)(func(from types.NodeID, msg transport.Message) {
		if e := ep.Load(); e != nil {
			h(e, from, msg)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	ep.Store(got.(*transport.TCPEndpoint))
	return got
}

func (n *ladderNet) close() {
	for _, ep := range n.eps {
		ep.Close()
	}
}

func rungTCP(b *testing.B) {
	n := newLadderNet(b, &deploy.Manifest{
		Regions: []deploy.RegionSpec{{Color: 0, Leader: ladderSeqID}},
		Shards:  []deploy.ShardSpec{{ID: 1, Leaf: 0, Replicas: []types.NodeID{ladderRepID}}},
	})
	defer n.close()
	back := make(chan struct{}, 1)
	n.stub(b, ladderRepID, func(ep transport.Endpoint, from types.NodeID, msg transport.Message) {
		if req, ok := msg.(proto.ReadReq); ok {
			ep.Send(from, proto.ReadResp{ID: req.ID, SN: req.SN})
		}
	})
	cli := n.stub(b, ladderCliID, func(_ transport.Endpoint, _ types.NodeID, _ transport.Message) { back <- struct{}{} })
	timeRoundTrips(b, func(i int) {
		if err := cli.Send(ladderRepID, proto.ReadReq{ID: uint64(i), Client: ladderCliID}); err != nil {
			b.Fatal(err)
		}
		<-back
	})
}

// dialTrips round trips precede every timed loop over sockets. One would
// dial; a few also order each endpoint's lazy dial before its Close for the
// race detector, which cannot see that the socket already did.
const dialTrips = 3

// timeRoundTrips times b.N calls of trip after a few untimed ones, which
// dial the connections both ways.
func timeRoundTrips(b *testing.B, trip func(i int)) {
	for i := 0; i < dialTrips; i++ {
		trip(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip(dialTrips + i)
	}
}

// rungOrder times one ordering round as a replica sees it: OrderReq out,
// OrderResp back, against a real sequencer over TCP. With depth2 the request
// enters at a leaf sequencer and climbs to the master that owns the color.
func rungOrder(b *testing.B, depth2 bool) {
	m := &deploy.Manifest{
		Regions: []deploy.RegionSpec{{Color: 0, Leader: ladderSeqID}},
		Shards:  []deploy.ShardSpec{{ID: 1, Leaf: 0, Replicas: []types.NodeID{ladderRepID}}},
	}
	entry := ladderSeqID
	if depth2 {
		entry = ladderSeqID + 1
		m.Regions = append(m.Regions, deploy.RegionSpec{Color: 1, Parent: 0, Leader: entry})
		m.Shards[0].Leaf = 1
	}
	n := newLadderNet(b, m)
	defer n.close()
	for _, region := range m.Regions {
		topo, err := m.Topology()
		if err != nil {
			b.Fatal(err)
		}
		s, err := seq.NewWithEndpoint(seqConfig(region, topo), n.attach(region.Leader))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Stop()
	}
	back := make(chan struct{}, 1)
	rep := n.stub(b, ladderRepID, func(_ transport.Endpoint, _ types.NodeID, msg transport.Message) {
		if _, ok := msg.(proto.OrderResp); ok {
			back <- struct{}{}
		}
	})
	timeRoundTrips(b, func(i int) {
		err := rep.Send(entry, proto.OrderReq{
			Color: types.MasterColor, Token: types.MakeToken(uint32(ladderRepID), uint32(i+1)),
			NRecords: 1, Shard: 1, Replicas: []types.NodeID{ladderRepID},
		})
		if err != nil {
			b.Fatal(err)
		}
		<-back
	})
}

// rungReplica times one replica's share of an append (AppendReq in, persist,
// order round against a stub sequencer, commit, AppendAck out) or, with
// read, of a read of a committed record.
func rungReplica(b *testing.B, read bool) {
	m := &deploy.Manifest{
		Regions: []deploy.RegionSpec{{Color: 0, Leader: ladderSeqID}},
		Shards:  []deploy.ShardSpec{{ID: 1, Leaf: 0, Replicas: []types.NodeID{ladderRepID}}},
	}
	n := newLadderNet(b, m)
	defer n.close()
	var next atomic.Uint32
	n.stub(b, ladderSeqID, func(ep transport.Endpoint, from types.NodeID, msg transport.Message) {
		switch req := msg.(type) {
		case proto.OrderReq:
			last := types.MakeSN(1, next.Add(req.NRecords))
			ep.Send(from, proto.OrderResp{Token: req.Token, LastSN: last, NRecords: req.NRecords, Color: req.Color})
		case proto.OrderReqBatch:
			resp := proto.OrderRespBatch{Color: req.Color}
			for _, it := range req.Items {
				last := types.MakeSN(1, next.Add(it.NRecords))
				resp.Items = append(resp.Items, proto.OrderRespItem{Token: it.Token, LastSN: last, NRecords: it.NRecords})
			}
			ep.Send(from, resp)
		}
	})
	topo, err := m.Topology()
	if err != nil {
		b.Fatal(err)
	}
	r, err := replica.NewWithEndpoint(replicaConfig(ladderRepID, 1, topo, 0), n.attach(ladderRepID))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { r.Stop(); r.Store().Close() }()

	acks := make(chan types.SN, 1)
	reads := make(chan bool, 1)
	cli := n.stub(b, ladderCliID, func(_ transport.Endpoint, _ types.NodeID, msg transport.Message) {
		switch resp := msg.(type) {
		case proto.AppendAck:
			acks <- resp.SN
		case proto.ReadResp:
			reads <- resp.Found
		}
	})
	rec := ladderRecords(1, ladderRecord)
	appendOne := func(i int) types.SN {
		err := cli.Send(ladderRepID, proto.AppendReq{
			Color: types.MasterColor, Token: types.MakeToken(uint32(ladderCliID), uint32(i+1)),
			Records: rec, Client: ladderCliID,
		})
		if err != nil {
			b.Fatal(err)
		}
		select {
		case sn := <-acks:
			return sn
		case <-time.After(10 * time.Second):
			b.Fatal("append was not acknowledged")
			return 0
		}
	}
	if !read {
		timeRoundTrips(b, func(i int) { appendOne(i) })
		return
	}
	var sn types.SN
	for i := 0; i < dialTrips; i++ { // the stub sequencer dials the replica here, untimed
		sn = appendOne(i)
	}
	timeRoundTrips(b, func(i int) {
		if err := cli.Send(ladderRepID, proto.ReadReq{ID: uint64(i), Color: types.MasterColor, SN: sn, Client: ladderCliID}); err != nil {
			b.Fatal(err)
		}
		if !<-reads {
			b.Fatal("committed record not found")
		}
	})
}

// ackingEndpoint stands in for a shard: it acknowledges every append batch
// on behalf of each replica at once, so the batcher is timed without a
// network or a server behind it.
type ackingEndpoint struct {
	deliver transport.Handler
	next    atomic.Uint32
}

func (e *ackingEndpoint) ID() types.NodeID                           { return ladderCliID }
func (e *ackingEndpoint) Send(types.NodeID, transport.Message) error { return nil }
func (e *ackingEndpoint) Close() error                               { return nil }
func (e *ackingEndpoint) Broadcast(tos []types.NodeID, msg transport.Message) error {
	if req, ok := msg.(proto.AppendBatchReq); ok {
		last := types.MakeSN(1, e.next.Add(uint32(req.NRecords())))
		for _, to := range tos {
			e.deliver(to, proto.AppendAck{Token: req.Token, SN: last})
		}
	}
	return nil
}

func rungBatcher(b *testing.B) {
	m := &deploy.Manifest{
		Nodes:   map[types.NodeID]string{ladderSeqID: "-", 1: "-", 2: "-", 3: "-"},
		Regions: []deploy.RegionSpec{{Color: 0, Leader: ladderSeqID}},
		Shards:  []deploy.ShardSpec{{ID: 1, Leaf: 0, Replicas: []types.NodeID{1, 2, 3}}},
	}
	topo, err := m.Topology()
	if err != nil {
		b.Fatal(err)
	}
	ep := &ackingEndpoint{}
	c, err := core.NewClientWithEndpoint(core.ClientConfig{
		FID: uint32(ladderCliID), ID: ladderCliID, Topo: topo, Batch: core.DefaultBatchConfig(),
	}, func(h transport.Handler) (transport.Endpoint, error) {
		ep.deliver = h
		return ep, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rec := ladderRecords(1, ladderRecord)
	futs := make([]*core.AppendFuture, b.N)
	b.ResetTimer()
	for i := range futs {
		futs[i] = c.AsyncAppend(rec, types.MasterColor)
	}
	b.StopTimer()
	for _, f := range futs {
		if _, err := f.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
