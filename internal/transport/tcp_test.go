package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/proto"
	"flexlog/internal/types"
)

type tcpTestMsg struct {
	Seq  int
	Body string
}

func init() {
	gob.Register(tcpTestMsg{})
}

// freeAddrs reserves n distinct loopback addresses.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func TestTCPRoundTrip(t *testing.T) {
	addrs := freeAddrs(t, 2)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1]})

	rx := newSink()
	b, err := ListenTCP(2, book, rx.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP(1, book, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.ID() != 1 || a.Addr() == "" {
		t.Fatalf("endpoint identity wrong: %v %q", a.ID(), a.Addr())
	}

	const count = 100
	for i := 0; i < count; i++ {
		if err := a.Send(2, tcpTestMsg{Seq: i, Body: "hi"}); err != nil {
			t.Fatal(err)
		}
	}
	rx.wait(t, count)
	for i, m := range rx.snapshot() {
		got := m.(tcpTestMsg)
		if got.Seq != i || got.Body != "hi" {
			t.Fatalf("message %d = %+v", i, got)
		}
		if rx.from[i] != 1 {
			t.Fatalf("from = %v", rx.from[i])
		}
	}
}

func TestTCPBroadcast(t *testing.T) {
	addrs := freeAddrs(t, 3)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1], 3: addrs[2]})
	rx2, rx3 := newSink(), newSink()
	b, _ := ListenTCP(2, book, rx2.handler)
	defer b.Close()
	c, _ := ListenTCP(3, book, rx3.handler)
	defer c.Close()
	a, _ := ListenTCP(1, book, func(types.NodeID, Message) {})
	defer a.Close()
	if err := a.Broadcast([]types.NodeID{2, 3}, tcpTestMsg{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	rx2.wait(t, 1)
	rx3.wait(t, 1)
}

func TestTCPUnknownDestination(t *testing.T) {
	addrs := freeAddrs(t, 1)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0]})
	a, _ := ListenTCP(1, book, func(types.NodeID, Message) {})
	defer a.Close()
	if err := a.Send(9, tcpTestMsg{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("send to unknown: %v", err)
	}
}

func TestTCPListenWithoutAddress(t *testing.T) {
	book := NewAddressBook(nil)
	if _, err := ListenTCP(1, book, func(types.NodeID, Message) {}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("listen without address: %v", err)
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	addrs := freeAddrs(t, 2)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1]})
	b, _ := ListenTCP(2, book, func(types.NodeID, Message) {})
	defer b.Close()
	a, _ := ListenTCP(1, book, func(types.NodeID, Message) {})
	a.Close()
	a.Close() // double close is safe
	if err := a.Send(2, tcpTestMsg{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	addrs := freeAddrs(t, 2)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1]})
	rx := newSink()
	b, _ := ListenTCP(2, book, rx.handler)
	a, _ := ListenTCP(1, book, func(types.NodeID, Message) {})
	defer a.Close()

	if err := a.Send(2, tcpTestMsg{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)

	// Restart the peer; the first send may fail on the dead connection,
	// after which the endpoint redials.
	b.Close()
	rx2 := newSink()
	b2, err := ListenTCP(2, book, rx2.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	// The first write after the peer restarted may be silently buffered on
	// the dead connection, so retry until a message actually arrives.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("could not reconnect to restarted peer")
		}
		_ = a.Send(2, tcpTestMsg{Seq: 2}) // error drops the cached conn
		select {
		case <-rx2.ch:
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func TestAddressBookLookup(t *testing.T) {
	book := NewAddressBook(map[types.NodeID]string{7: "127.0.0.1:9999"})
	if a, ok := book.Lookup(7); !ok || a != "127.0.0.1:9999" {
		t.Fatalf("lookup = %q, %v", a, ok)
	}
	if _, ok := book.Lookup(8); ok {
		t.Fatal("missing entry reported present")
	}
}

// TestTCPCodecRoundTrip sends codec-native proto messages (including the
// alias-heavy append/read frames) over a real socket and checks they
// arrive intact and self-contained.
func TestTCPCodecRoundTrip(t *testing.T) {
	addrs := freeAddrs(t, 2)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1]})
	rx := newSink()
	b, err := ListenTCP(2, book, rx.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP(1, book, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	sent := []Message{
		proto.AppendReq{Color: 3, Token: types.MakeToken(7, 9), Records: [][]byte{[]byte("alpha"), nil, []byte("beta")}, Client: 1},
		proto.ReadResp{ID: 42, SN: types.MakeSN(1, 5), Data: []byte("payload"), Found: true},
		proto.OrderResp{Token: 11, LastSN: types.MakeSN(2, 8), NRecords: 4, Color: 3},
		proto.SyncState{ID: 1, Epoch: 2, MaxSNs: map[types.ColorID]types.SN{0: 5, 9: 7}, From: 1},
	}
	for _, m := range sent {
		if err := a.Send(2, m); err != nil {
			t.Fatal(err)
		}
	}
	rx.wait(t, len(sent))
	got := rx.snapshot()
	ar := got[0].(proto.AppendReq)
	if ar.Color != 3 || ar.Token != types.MakeToken(7, 9) || len(ar.Records) != 3 ||
		string(ar.Records[0]) != "alpha" || len(ar.Records[1]) != 0 || string(ar.Records[2]) != "beta" {
		t.Fatalf("AppendReq = %+v", ar)
	}
	rr := got[1].(proto.ReadResp)
	if rr.ID != 42 || !rr.Found || string(rr.Data) != "payload" {
		t.Fatalf("ReadResp = %+v", rr)
	}
	or := got[2].(proto.OrderResp)
	if or.NRecords != 4 || or.LastSN != types.MakeSN(2, 8) {
		t.Fatalf("OrderResp = %+v", or)
	}
	ss := got[3].(proto.SyncState)
	if ss.MaxSNs[9] != 7 || ss.Epoch != 2 {
		t.Fatalf("SyncState = %+v", ss)
	}
	st := a.Stats()
	if st.GobFrames != 0 {
		t.Fatalf("codec-native messages took the gob path: %+v", st)
	}
}

// TestTCPBroadcastEncodesOnce is the regression gate for the old
// per-destination re-encode: a broadcast to N peers must cost exactly one
// frame encode and N writes.
func TestTCPBroadcastEncodesOnce(t *testing.T) {
	addrs := freeAddrs(t, 4)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1], 3: addrs[2], 4: addrs[3]})
	sinks := map[types.NodeID]*sink{2: newSink(), 3: newSink(), 4: newSink()}
	for id, s := range sinks {
		ep, err := ListenTCP(id, book, s.handler)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
	}
	a, err := ListenTCP(1, book, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	msg := proto.OrderResp{Token: 1, LastSN: types.MakeSN(1, 1), NRecords: 1}
	if err := a.Broadcast([]types.NodeID{2, 3, 4}, msg); err != nil {
		t.Fatal(err)
	}
	for _, s := range sinks {
		s.wait(t, 1)
	}
	st := a.Stats()
	if st.FramesOut != 1 {
		t.Fatalf("broadcast encoded %d times, want 1", st.FramesOut)
	}
	if st.SendsOut != 3 {
		t.Fatalf("broadcast wrote %d frames, want 3", st.SendsOut)
	}
}

// TestTCPSlowDialDoesNotBlockOtherPeers pins the per-peer dial guard: a
// peer whose dial hangs must not stall sends to healthy peers (the old
// endpoint dialed while holding the endpoint-wide mutex).
func TestTCPSlowDialDoesNotBlockOtherPeers(t *testing.T) {
	addrs := freeAddrs(t, 3)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1], 9: addrs[2]})
	rx := newSink()
	b, err := ListenTCP(2, book, rx.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP(1, book, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	release := make(chan struct{})
	realDial := a.dial
	a.dial = func(addr string) (net.Conn, error) {
		if addr == addrs[2] {
			<-release // node 9 is unreachable: hang until the test ends
			return nil, errors.New("gave up")
		}
		return realDial(addr)
	}
	defer close(release)

	stuck := make(chan struct{})
	go func() {
		defer close(stuck)
		_ = a.Send(9, proto.SeqHeartbeat{Epoch: 1, From: 1}) // hangs in dial
	}()

	// While node 9's dial hangs, sends to node 2 must go through.
	done := make(chan error, 1)
	go func() {
		done <- a.Send(2, proto.SeqHeartbeat{Epoch: 1, From: 1})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send to healthy peer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send to healthy peer blocked behind a hung dial")
	}
	rx.wait(t, 1)
	select {
	case <-stuck:
		t.Fatal("hung dial returned early; test proved nothing")
	default:
	}
}

// TestTCPGobCodecInterop runs one endpoint pinned to the legacy gob codec
// against a binary-codec endpoint: inbound framing is sniffed per
// connection, so a mixed cluster keeps working during a rolling upgrade.
func TestTCPGobCodecInterop(t *testing.T) {
	deployRegisterOnce()
	addrs := freeAddrs(t, 2)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1]})
	rxGob, rxBin := newSink(), newSink()
	gobEP, err := ListenTCP(1, book, rxGob.handler, WithTCPCodec(CodecGob))
	if err != nil {
		t.Fatal(err)
	}
	defer gobEP.Close()
	binEP, err := ListenTCP(2, book, rxBin.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer binEP.Close()

	if err := gobEP.Send(2, proto.AppendAck{Token: 5, SN: 6}); err != nil {
		t.Fatal(err)
	}
	if err := binEP.Send(1, proto.AppendAck{Token: 7, SN: 8}); err != nil {
		t.Fatal(err)
	}
	rxBin.wait(t, 1)
	rxGob.wait(t, 1)
	if got := rxBin.snapshot()[0].(proto.AppendAck); got.Token != 5 || got.SN != 6 {
		t.Fatalf("gob→binary delivery = %+v", got)
	}
	if got := rxGob.snapshot()[0].(proto.AppendAck); got.Token != 7 || got.SN != 8 {
		t.Fatalf("binary→gob delivery = %+v", got)
	}
}

var deployRegisterOnce = sync.OnceFunc(func() { proto.RegisterGob() })

// TestParseCodec covers the -codec flag values.
func TestParseCodec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Codec
		ok   bool
	}{{"", CodecBinary, true}, {"binary", CodecBinary, true}, {"gob", CodecGob, true}, {"nope", 0, false}} {
		got, err := ParseCodec(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseCodec(%q) = %v, %v", tc.in, got, err)
		}
	}
	if CodecBinary.String() != "binary" || CodecGob.String() != "gob" {
		t.Error("codec names wrong")
	}
}

// BenchmarkTCPBroadcast measures the encode-once broadcast against three
// loopback peers (the old transport re-encoded per destination).
func BenchmarkTCPBroadcast(b *testing.B) {
	lns := make([]net.Listener, 4)
	addrs := make(map[types.NodeID]string, 4)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = ln
		addrs[types.NodeID(i+1)] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	book := NewAddressBook(addrs)
	for id := types.NodeID(2); id <= 4; id++ {
		ep, err := ListenTCP(id, book, func(types.NodeID, Message) {})
		if err != nil {
			b.Fatal(err)
		}
		defer ep.Close()
	}
	a, err := ListenTCP(1, book, func(types.NodeID, Message) {})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	msg := proto.OrderResp{Token: 1, LastSN: types.MakeSN(1, 1), NRecords: 1}
	tos := []types.NodeID{2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Broadcast(tos, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTCPPublishObs checks the endpoint's codec counters surface through
// the obs registry and move when traffic flows.
func TestTCPPublishObs(t *testing.T) {
	addrs := freeAddrs(t, 2)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1]})
	rx := newSink()
	bEp, err := ListenTCP(2, book, rx.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer bEp.Close()
	a, err := ListenTCP(1, book, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	reg := obs.NewRegistry()
	a.PublishObs(reg)
	bEp.PublishObs(reg)

	if err := a.Send(2, proto.AppendAck{Token: 1, SN: 2}); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)

	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"flexlog_tcp_frames_total",
		"flexlog_tcp_bytes_total",
		"flexlog_tcp_sends_total",
		"flexlog_tcp_gob_frames_total",
		"flexlog_tcp_buf_pool_total",
		"flexlog_tcp_writev_calls_total",
		"flexlog_tcp_writev_max_batch",
		"flexlog_tcp_decode_errors_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("registry output missing %s", want)
		}
	}
	st := a.Stats()
	if st.FramesOut == 0 || st.WritevCalls == 0 {
		t.Fatalf("sender stats did not move: %+v", st)
	}
	if bs := bEp.Stats(); bs.FramesIn == 0 {
		t.Fatalf("receiver stats did not move: %+v", bs)
	}
}

// TestTCPCloseAfterOneReply pins Close against the lazy dial: the echo
// endpoint dials back from its read-loop goroutine to send exactly one
// reply, and the test goroutine closes it as soon as that reply arrived.
// The only thing ordering the dial's publication of its socket before
// Close's read of it is the endpoint's own locking (the race detector
// does not see through the socket), so under -race this fails unless the
// socket is published under the lock Close takes.
func TestTCPCloseAfterOneReply(t *testing.T) {
	addrs := freeAddrs(t, 2)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1]})
	var echo *TCPEndpoint
	ready := make(chan struct{})
	echo, err := ListenTCP(2, book, func(from types.NodeID, msg Message) {
		<-ready
		echo.Send(from, msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	close(ready)
	rx := newSink()
	a, err := ListenTCP(1, book, rx.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(2, tcpTestMsg{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)
	if err := echo.Close(); err != nil {
		t.Fatal(err)
	}
}
