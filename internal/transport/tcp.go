package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"flexlog/internal/proto"
	"flexlog/internal/types"
)

// Codec selects the outbound framing of a TCPEndpoint. Inbound framing is
// auto-detected per connection (binary-codec peers announce themselves
// with proto.Magic), so endpoints with different codecs interoperate.
type Codec int

const (
	// CodecBinary is the hand-rolled length-prefixed binary codec
	// (DESIGN.md §12): varint fields, pooled buffers, vectored writes.
	CodecBinary Codec = iota
	// CodecGob is the legacy reflection-driven encoding/gob stream, kept
	// for the ablation baseline (-codec=gob) and rolling upgrades.
	CodecGob
)

// ParseCodec maps a -codec flag value to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "binary":
		return CodecBinary, nil
	case "gob":
		return CodecGob, nil
	default:
		return 0, fmt.Errorf("transport: unknown codec %q (want binary or gob)", s)
	}
}

func (c Codec) String() string {
	if c == CodecGob {
		return "gob"
	}
	return "binary"
}

// wireEnvelope is the gob frame exchanged on legacy gob connections.
type wireEnvelope struct {
	From types.NodeID
	Msg  Message
}

// AddressBook maps node ids to TCP addresses for a multi-process
// deployment. It is immutable after construction.
type AddressBook struct {
	addrs map[types.NodeID]string
}

// NewAddressBook builds an address book from a static map.
func NewAddressBook(addrs map[types.NodeID]string) *AddressBook {
	m := make(map[types.NodeID]string, len(addrs))
	for id, a := range addrs {
		m[id] = a
	}
	return &AddressBook{addrs: m}
}

// Lookup returns the address of a node.
func (b *AddressBook) Lookup(id types.NodeID) (string, bool) {
	a, ok := b.addrs[id]
	return a, ok
}

// maxPooledFrame caps the size of buffers returned to the frame pool;
// occasional giant frames (bulk sync fetches) are left for the GC rather
// than pinning their capacity forever.
const maxPooledFrame = 1 << 20

// framePool recycles encode and read buffers across all TCP endpooints in
// the process. It stores *[]byte so Put does not allocate.
var framePool = sync.Pool{}

// TCPStats is a point-in-time snapshot of one endpoint's wire-level
// counters (also published to the obs registry via PublishObs).
type TCPStats struct {
	FramesOut   uint64 // frames encoded for sending (broadcast counts once)
	SendsOut    uint64 // frame writes enqueued (broadcast counts per peer)
	BytesOut    uint64 // frame bytes written, including length prefixes
	FramesIn    uint64 // frames decoded from inbound connections
	BytesIn     uint64 // frame bytes read, including length prefixes
	GobFrames   uint64 // messages that took a gob path (codec or fallback)
	PoolHits    uint64 // frame buffers served from the pool
	PoolMisses  uint64 // frame buffers freshly allocated
	WritevCalls uint64 // vectored writes issued
	WritevMax   uint64 // largest frame batch written by one writev
	DecodeErrs  uint64 // inbound framing/decode failures (connection dropped)
}

// WritevFrames is implied: SendsOut frames leave through WritevCalls
// writes, so the mean writev batch is SendsOut/WritevCalls.

// TCPEndpoint implements Endpoint over real TCP sockets. Outbound frames
// use the binary wire codec by default (see package proto): encode
// happens once into a pooled buffer, concurrent sends to the same peer
// coalesce into a single vectored write (net.Buffers → one writev
// syscall), and broadcasts encode once and write the same buffer to every
// peer. Connections are established lazily and reused; each peer gets one
// outbound connection, preserving per-destination FIFO order. Dialing
// never holds the endpoint-wide lock, so an unreachable peer cannot stall
// sends to healthy ones.
type TCPEndpoint struct {
	id      types.NodeID
	book    *AddressBook
	handler Handler
	ln      net.Listener
	codec   Codec
	dial    func(addr string) (net.Conn, error) // swappable for tests

	mu      sync.Mutex
	conns   map[types.NodeID]*outConn
	inbound map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup

	framesOut   atomic.Uint64
	sendsOut    atomic.Uint64
	bytesOut    atomic.Uint64
	framesIn    atomic.Uint64
	bytesIn     atomic.Uint64
	gobFrames   atomic.Uint64
	poolHits    atomic.Uint64
	poolMisses  atomic.Uint64
	writevCalls atomic.Uint64
	writevMax   atomic.Uint64
	decodeErrs  atomic.Uint64
}

// TCPOption customizes a TCPEndpoint.
type TCPOption func(*TCPEndpoint)

// WithTCPCodec selects the outbound codec (default CodecBinary).
func WithTCPCodec(c Codec) TCPOption {
	return func(e *TCPEndpoint) { e.codec = c }
}

// flushGroup is one round of frames bound for a peer. The first sender to
// arrive while no flush is running becomes the flusher and writes every
// group that accumulates while it is busy — later senders' frames ride
// along in one vectored write instead of taking the syscall themselves.
type flushGroup struct {
	bufs  [][]byte  // frames in send order (consumed by net.Buffers)
	owned []*[]byte // pool returns after the write; nil entries are shared
	done  chan struct{}
	err   error
}

// outConn is the cached outbound connection to one peer.
type outConn struct {
	addr     string
	codec    Codec
	dialOnce sync.Once
	dialErr  error
	c        net.Conn

	mu       sync.Mutex
	next     *flushGroup // accumulating group (binary codec)
	flushing bool
	err      error // sticky write error; connection is dead

	enc *gob.Encoder // gob codec only
}

// ListenTCP starts a TCP endpoint for node id at the address the book
// assigns to it. The handler is invoked sequentially per inbound
// connection (TCP already guarantees per-sender FIFO).
func ListenTCP(id types.NodeID, book *AddressBook, h Handler, opts ...TCPOption) (*TCPEndpoint, error) {
	addr, ok := book.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: %v has no address", ErrUnknownNode, id)
	}
	ep := &TCPEndpoint{
		id:      id,
		book:    book,
		handler: h,
		codec:   CodecBinary,
		dial:    func(a string) (net.Conn, error) { return net.Dial("tcp", a) },
		conns:   make(map[types.NodeID]*outConn),
		inbound: make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(ep)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ep.ln = ln
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Addr returns the listener's bound address (useful with ":0" books).
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// ID returns the node id this endpoint speaks as.
func (e *TCPEndpoint) ID() types.NodeID { return e.id }

// Stats snapshots the endpoint's wire counters.
func (e *TCPEndpoint) Stats() TCPStats {
	return TCPStats{
		FramesOut:   e.framesOut.Load(),
		SendsOut:    e.sendsOut.Load(),
		BytesOut:    e.bytesOut.Load(),
		FramesIn:    e.framesIn.Load(),
		BytesIn:     e.bytesIn.Load(),
		GobFrames:   e.gobFrames.Load(),
		PoolHits:    e.poolHits.Load(),
		PoolMisses:  e.poolMisses.Load(),
		WritevCalls: e.writevCalls.Load(),
		WritevMax:   e.writevMax.Load(),
		DecodeErrs:  e.decodeErrs.Load(),
	}
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.inbound[c] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

// readLoop sniffs the connection preamble — binary-codec peers lead with
// proto.Magic, anything else is a legacy gob stream — then decodes frames
// until the connection breaks.
func (e *TCPEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.inbound, c)
		e.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	head, err := br.Peek(len(proto.Magic))
	if err != nil {
		return
	}
	if bytes.Equal(head, proto.Magic[:]) {
		br.Discard(len(proto.Magic))
		e.readBinary(br)
		return
	}
	e.readGob(br)
}

// readBinary drains length-prefixed codec frames. The frame buffer is
// pooled: proto.DecodeFrame returns self-contained messages, so the
// buffer recycles as soon as a frame is decoded, before handler dispatch.
func (e *TCPEndpoint) readBinary(br *bufio.Reader) {
	var hdr [4]byte
	var fd proto.FrameDecoder // per-connection scratch (read loop is single-goroutine)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > proto.MaxFrame {
			e.decodeErrs.Add(1)
			return
		}
		var from types.NodeID
		var msg Message
		var err error
		if buf, perr := br.Peek(int(n)); perr == nil {
			// Fast path: the whole frame is resident in the bufio window,
			// so decode straight out of it — decoded messages are
			// self-contained, so aliasing the reader's buffer is safe and
			// saves a full frame copy.
			from, msg, err = fd.Decode(buf)
			br.Discard(int(n))
		} else {
			// Frame larger than the read buffer: assemble it in a pooled
			// buffer, which recycles as soon as the frame is decoded.
			bp := e.getBuf(int(n))
			buf := (*bp)[:n]
			if _, err := io.ReadFull(br, buf); err != nil {
				putBuf(bp)
				return
			}
			from, msg, err = fd.Decode(buf)
			putBuf(bp)
		}
		if err != nil {
			// Framing is byte-synchronous: a bad frame means the stream
			// is unrecoverable. Drop the connection; the peer redials.
			e.decodeErrs.Add(1)
			return
		}
		e.framesIn.Add(1)
		e.bytesIn.Add(uint64(n) + 4)
		e.handler(from, msg)
	}
}

// readGob drains a legacy gob stream.
func (e *TCPEndpoint) readGob(br *bufio.Reader) {
	dec := gob.NewDecoder(br)
	for {
		var env wireEnvelope
		if err := dec.Decode(&env); err != nil {
			return
		}
		e.framesIn.Add(1)
		e.gobFrames.Add(1)
		e.handler(env.From, env.Msg)
	}
}

// getBuf fetches a frame buffer with capacity ≥ n from the pool.
func (e *TCPEndpoint) getBuf(n int) *[]byte {
	if v := framePool.Get(); v != nil {
		bp := v.(*[]byte)
		if cap(*bp) >= n {
			e.poolHits.Add(1)
			return bp
		}
	}
	e.poolMisses.Add(1)
	b := make([]byte, 0, max(n, 4096))
	return &b
}

// putBuf recycles a frame buffer (oversized ones are left to the GC).
func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledFrame {
		return
	}
	*bp = (*bp)[:0]
	framePool.Put(bp)
}

// encode frames msg into a pooled buffer.
func (e *TCPEndpoint) encode(msg Message) (*[]byte, error) {
	bp := e.getBuf(0)
	b, err := proto.AppendFrame((*bp)[:0], e.id, msg)
	if err != nil {
		putBuf(bp)
		return nil, err
	}
	*bp = b
	e.framesOut.Add(1)
	if b[4] == proto.TagGobFallback {
		e.gobFrames.Add(1)
	}
	return bp, nil
}

// Send marshals and writes msg on the (cached) connection to the peer.
func (e *TCPEndpoint) Send(to types.NodeID, msg Message) error {
	oc, err := e.conn(to)
	if err != nil {
		return err
	}
	if oc.codec == CodecGob {
		return e.sendGob(to, oc, msg)
	}
	bp, err := e.encode(msg)
	if err != nil {
		return err
	}
	if err := e.write(oc, *bp, bp); err != nil {
		e.dropConn(to, oc)
		return err
	}
	return nil
}

// Broadcast sends msg to every listed node. With the binary codec the
// message is encoded exactly once and the same buffer is written to every
// peer.
func (e *TCPEndpoint) Broadcast(tos []types.NodeID, msg Message) error {
	if e.codec == CodecGob {
		var firstErr error
		for _, to := range tos {
			if err := e.Send(to, msg); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var bp *[]byte
	var firstErr error
	for _, to := range tos {
		oc, err := e.conn(to)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if oc.codec == CodecGob {
			// A peer pinned to gob mid-list (not possible today — the
			// codec is endpoint-wide — but cheap to keep correct).
			if err := e.sendGob(to, oc, msg); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		if bp == nil {
			if bp, err = e.encode(msg); err != nil {
				return err
			}
		}
		// nil owner: the shared buffer is recycled once, below, after
		// every (synchronous) write finished.
		if err := e.write(oc, *bp, nil); err != nil {
			e.dropConn(to, oc)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if bp != nil {
		putBuf(bp)
	}
	return firstErr
}

// write queues one encoded frame on the peer connection and returns once
// it has been written (or failed). The first sender to arrive while the
// connection is idle writes its own frame plus every frame queued behind
// it as a single vectored write; concurrent senders therefore share
// writev syscalls instead of serializing on the socket. owner, when
// non-nil, is returned to the frame pool after the write.
func (e *TCPEndpoint) write(oc *outConn, frame []byte, owner *[]byte) error {
	e.sendsOut.Add(1)
	e.bytesOut.Add(uint64(len(frame)))
	oc.mu.Lock()
	if oc.err != nil {
		err := oc.err
		oc.mu.Unlock()
		if owner != nil {
			putBuf(owner)
		}
		return err
	}
	g := oc.next
	if g == nil {
		g = &flushGroup{done: make(chan struct{})}
		oc.next = g
	}
	g.bufs = append(g.bufs, frame)
	g.owned = append(g.owned, owner)
	if oc.flushing {
		oc.mu.Unlock()
		<-g.done
		return g.err
	}
	oc.flushing = true
	mine := g
	for oc.next != nil {
		cur := oc.next
		oc.next = nil
		if oc.err != nil {
			cur.err = oc.err
			finishGroup(cur)
			continue
		}
		oc.mu.Unlock()
		nframes := uint64(len(cur.bufs))
		e.writevCalls.Add(1)
		for {
			prev := e.writevMax.Load()
			if nframes <= prev || e.writevMax.CompareAndSwap(prev, nframes) {
				break
			}
		}
		bufs := net.Buffers(cur.bufs)
		_, err := bufs.WriteTo(oc.c)
		oc.mu.Lock()
		if err != nil {
			oc.err = err
		}
		cur.err = err
		finishGroup(cur)
	}
	oc.flushing = false
	oc.mu.Unlock()
	return mine.err
}

// finishGroup recycles a group's pooled frames and releases its waiters.
func finishGroup(g *flushGroup) {
	for _, bp := range g.owned {
		if bp != nil {
			putBuf(bp)
		}
	}
	close(g.done)
}

// sendGob writes one message on a gob-codec connection.
func (e *TCPEndpoint) sendGob(to types.NodeID, oc *outConn, msg Message) error {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.err != nil {
		return oc.err
	}
	e.sendsOut.Add(1)
	e.framesOut.Add(1)
	e.gobFrames.Add(1)
	if err := oc.enc.Encode(wireEnvelope{From: e.id, Msg: msg}); err != nil {
		oc.err = err
		e.dropConn(to, oc)
		return err
	}
	return nil
}

// conn returns the cached outbound connection to the peer, dialing it on
// first use. The endpoint-wide lock covers only the map access: the dial
// itself runs under a per-peer once-guard, so a slow or unreachable peer
// delays only senders to that peer, never the whole endpoint.
func (e *TCPEndpoint) conn(to types.NodeID) (*outConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	oc, ok := e.conns[to]
	if !ok {
		addr, ok := e.book.Lookup(to)
		if !ok {
			e.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrUnknownNode, to)
		}
		oc = &outConn{addr: addr, codec: e.codec}
		e.conns[to] = oc
	}
	e.mu.Unlock()
	oc.dialOnce.Do(func() {
		c, err := e.dial(oc.addr)
		if err != nil {
			oc.dialErr = err
			return
		}
		if oc.codec == CodecBinary {
			if _, err := c.Write(proto.Magic[:]); err != nil {
				c.Close()
				oc.dialErr = err
				return
			}
		} else {
			oc.enc = gob.NewEncoder(c)
		}
		// Publish the socket under e.mu: Close, which reads oc.c after
		// taking it, then either sees the socket and closes it, or marked
		// the endpoint closed first and the socket is closed here.
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			oc.dialErr = ErrClosed
			return
		}
		oc.c = c
		e.mu.Unlock()
	})
	if oc.dialErr != nil {
		// A failed dial is not sticky: evict the conn slot so the next
		// Send redials with a fresh once-guard.
		e.dropConn(to, oc)
		return nil, oc.dialErr
	}
	return oc, nil
}

// dropConn evicts a broken connection so the next Send redials.
func (e *TCPEndpoint) dropConn(to types.NodeID, oc *outConn) {
	e.mu.Lock()
	if e.conns[to] == oc {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	if oc.c != nil {
		oc.c.Close()
	}
}

// Close shuts the listener and all cached connections down.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = map[types.NodeID]*outConn{}
	in := make([]net.Conn, 0, len(e.inbound))
	for c := range e.inbound {
		in = append(in, c)
	}
	e.mu.Unlock()
	err := e.ln.Close()
	for _, oc := range conns {
		if oc.c != nil {
			oc.c.Close()
		}
	}
	for _, c := range in {
		c.Close()
	}
	e.wg.Wait()
	return err
}
