package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"flexlog/internal/obs"
	"flexlog/internal/proto"
	"flexlog/internal/types"
)

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
		if err := a.Send(2, proto.ReadResp{ID: uint64(i), Data: []byte("hi")}); err != nil {
			t.Fatal(err)
		}
	}
	rx.wait(t, count)
	for i, m := range rx.snapshot() {
		got := m.(proto.ReadResp)
		if got.ID != uint64(i) || string(got.Data) != "hi" {
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
	if err := a.Broadcast([]types.NodeID{2, 3}, proto.AppendAck{Token: 1}); err != nil {
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
	if err := a.Send(9, proto.AppendAck{}); !errors.Is(err, ErrUnknownNode) {
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
	if err := a.Send(2, proto.AppendAck{}); !errors.Is(err, ErrClosed) {
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

	if err := a.Send(2, proto.AppendAck{Token: 1}); err != nil {
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
		_ = a.Send(2, proto.AppendAck{Token: 2}) // error drops the cached conn
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
		proto.JoinFetch{ID: 1, Have: map[types.ColorID]types.SN{0: 5, 9: 7}, Tokens: []types.Token{3}, Budget: 2, From: 1},
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
	jf := got[3].(proto.JoinFetch)
	if jf.Have[9] != 7 || len(jf.Tokens) != 1 || jf.Budget != 2 {
		t.Fatalf("JoinFetch = %+v", jf)
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

// gobStream is the opening of the gob stream a peer pinned to the retired
// gob codec sent: its type dictionary, then AppendAck{Token: 5, SN: 6}
// from node 1.
const gobStream = "2a7f0301010c77697265456e76656c6f706501ff80000102010446726f6d01060001034d736701100000004eff8001010120666c65786c6f672f696e7465726e616c2f70726f746f2e417070656e6441636bff8103010109417070656e6441636b01ff820001020105546f6b656e0106000102534e010600000009ff8205010501060000"

// TestTCPForeignStreamDropped: a connection that opens with anything but
// proto.Magic (here a gob stream) is closed unread and counted in
// DecodeErrs; nothing reaches the handler.
func TestTCPForeignStreamDropped(t *testing.T) {
	addrs := freeAddrs(t, 1)
	book := NewAddressBook(map[types.NodeID]string{2: addrs[0]})
	rx := newSink()
	b, err := ListenTCP(2, book, rx.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	raw, err := hex.DecodeString(gobStream)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(raw); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("foreign stream: read = %d, %v; want the endpoint to close it (EOF)", n, err)
	}
	if st := b.Stats(); st.DecodeErrs != 1 || st.FramesIn != 0 {
		t.Fatalf("foreign stream: DecodeErrs=%d FramesIn=%d, want 1 and 0", st.DecodeErrs, st.FramesIn)
	}
	if got := rx.snapshot(); len(got) != 0 {
		t.Fatalf("foreign stream delivered %v", got)
	}
}

// TestTCPUnknownMessageKeepsConnection: a type the codec cannot frame
// fails Send and Broadcast with proto.ErrUnknownMessage, and the peer's
// connection survives for the next message.
func TestTCPUnknownMessageKeepsConnection(t *testing.T) {
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
	if err := a.Send(2, proto.AppendAck{Token: 1}); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	oc := a.conns[2]
	a.mu.Unlock()
	type alien struct{ A int }
	if err := a.Send(2, alien{A: 1}); !errors.Is(err, proto.ErrUnknownMessage) {
		t.Fatalf("Send(alien) = %v, want ErrUnknownMessage", err)
	}
	if err := a.Broadcast([]types.NodeID{2}, alien{A: 2}); !errors.Is(err, proto.ErrUnknownMessage) {
		t.Fatalf("Broadcast(alien) = %v, want ErrUnknownMessage", err)
	}
	if err := a.Send(2, proto.AppendAck{Token: 2}); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 2)
	a.mu.Lock()
	same := a.conns[2] == oc
	a.mu.Unlock()
	if !same {
		t.Fatal("an unframeable message dropped the peer's connection")
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
// the obs registry and move when traffic flows, and that two endpoints
// sharing one registry each keep their own series, labelled by node.
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
		"flexlog_tcp_buf_pool_total",
		"flexlog_tcp_writev_calls_total",
		"flexlog_tcp_writev_max_batch",
		"flexlog_tcp_decode_errors_total",
		"flexlog_tcp_large_frames_total",
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
	for _, line := range []string{
		`flexlog_tcp_frames_total{dir="out",node="1"} 1`,
		`flexlog_tcp_frames_total{dir="in",node="1"} 0`,
		`flexlog_tcp_frames_total{dir="out",node="2"} 0`,
		`flexlog_tcp_frames_total{dir="in",node="2"} 1`,
	} {
		if !strings.Contains(text, "\n"+line+"\n") {
			t.Errorf("registry output lacks %q", line)
		}
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
	if err := a.Send(2, proto.AppendAck{Token: 1}); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)
	if err := echo.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPLargeFramesBackToBack sends two AppendBatchReq frames longer
// than the 64 KiB read window back to back. Each is assembled in a pooled
// read buffer that recycles once the frame is decoded, so the first
// message's records must still be byte-exact after the second frame was
// read and decoded, and the receiver counts both in LargeIn.
func TestTCPLargeFramesBackToBack(t *testing.T) {
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

	batch := func(fill byte) proto.AppendBatchReq {
		m := proto.AppendBatchReq{Color: 3, Token: types.Token(fill)}
		for s := 0; s < 3; s++ {
			var set [][]byte
			for r := 0; r < 2; r++ {
				set = append(set, bytes.Repeat([]byte{fill + byte(2*s+r)}, 16<<10))
			}
			m.Sets = append(m.Sets, set)
		}
		return m
	}
	sent := []proto.AppendBatchReq{batch(0x10), batch(0x80)}
	for _, m := range sent {
		if err := a.Send(2, m); err != nil {
			t.Fatal(err)
		}
	}
	rx.wait(t, len(sent))
	for i, msg := range rx.snapshot() {
		got, ok := msg.(proto.AppendBatchReq)
		if !ok || got.Token != sent[i].Token || len(got.Sets) != len(sent[i].Sets) {
			t.Fatalf("message %d = %T %v", i, msg, msg)
		}
		for s := range got.Sets {
			for r := range got.Sets[s] {
				if !bytes.Equal(got.Sets[s][r], sent[i].Sets[s][r]) {
					t.Fatalf("message %d set %d record %d changed after a later frame was decoded", i, s, r)
				}
			}
		}
	}
	if n := b.Stats().LargeIn; n != 2 {
		t.Fatalf("LargeIn = %d, want 2", n)
	}
}

// TestTCPConcurrentSendersShareWritev has 8 goroutines send 500 frames
// each to one peer at once, so senders queue behind each other's writes
// and share writev calls: every frame must arrive exactly once, each
// sender's frames in the order it sent them, in no more writes than sends.
func TestTCPConcurrentSendersShareWritev(t *testing.T) {
	const senders, each = 8, 500
	addrs := freeAddrs(t, 2)
	book := NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1]})
	var (
		mu   sync.Mutex
		got  []uint64
		done = make(chan struct{})
	)
	b, err := ListenTCP(2, book, func(_ types.NodeID, m Message) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, m.(proto.ReadResp).ID)
		if len(got) == senders*each {
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP(1, book, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var wg sync.WaitGroup
	for g := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				if err := a.Send(2, proto.ReadResp{ID: uint64(g)<<32 | uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("%d of %d frames arrived", len(got), senders*each)
	}
	mu.Lock()
	defer mu.Unlock()
	var next [senders]uint64
	for _, id := range got {
		g, i := id>>32, id&(1<<32-1)
		if g >= senders || i != next[g] {
			t.Fatalf("sender %d's frame %d arrived, expected its frame %d next", g, i, next[g%senders])
		}
		next[g]++
	}
	st := a.Stats()
	if st.SendsOut != senders*each || st.WritevCalls == 0 || st.WritevCalls > st.SendsOut {
		t.Fatalf("%d sends in %d writev calls; want %d sends in at most as many writes", st.SendsOut, st.WritevCalls, senders*each)
	}
	t.Logf("%d frames in %d writev calls (largest batch %d)", st.SendsOut, st.WritevCalls, st.WritevMax)
}
