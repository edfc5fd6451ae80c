package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"flexlog/internal/combine"
	"flexlog/internal/proto"
	"flexlog/internal/types"
)

// Codec named an outbound wire format when there were two. The binary
// codec is now the only one; Codec, CodecBinary and WithTCPCodec are inert
// until the benchmark module stops naming them (ROADMAP 1b).
type Codec int

// CodecBinary is the hand-rolled binary codec of package proto (DESIGN.md
// §12), the only wire format. Inert; see Codec.
const CodecBinary Codec = 0

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
// counters; PublishObs publishes it, one series per tagged field.
type TCPStats struct {
	FramesOut   uint64 `obs:"flexlog_tcp_frames_total{dir=out}" help:"Frames encoded (out) and decoded (in) by the TCP transport."` // broadcast counts once
	SendsOut    uint64 `obs:"flexlog_tcp_sends_total" help:"Send/Broadcast destination deliveries (a broadcast counts once per peer, its frame once)."`
	BytesOut    uint64 `obs:"flexlog_tcp_bytes_total{dir=out}" help:"Wire bytes written (out) and read (in) by the TCP transport."` // including length prefixes
	FramesIn    uint64 `obs:"flexlog_tcp_frames_total{dir=in}" help:"Frames encoded (out) and decoded (in) by the TCP transport."`
	BytesIn     uint64 `obs:"flexlog_tcp_bytes_total{dir=in}" help:"Wire bytes written (out) and read (in) by the TCP transport."`
	PoolHits    uint64 `obs:"flexlog_tcp_buf_pool_total{result=hit}" help:"Frame buffer pool lookups by result."`
	PoolMisses  uint64 `obs:"flexlog_tcp_buf_pool_total{result=miss}" help:"Frame buffer pool lookups by result."`
	WritevCalls uint64 `obs:"flexlog_tcp_writev_calls_total" help:"Vectored write syscalls issued; frames_total{dir=out}/writev_calls_total is the mean batch size."`
	WritevMax   uint64 `obs:"flexlog_tcp_writev_max_batch" help:"Largest number of frames coalesced into a single vectored write."`
	DecodeErrs  uint64 `obs:"flexlog_tcp_decode_errors_total" help:"Inbound connections dropped for a missing preamble or a frame that failed to decode."`
	LargeIn     uint64 `obs:"flexlog_tcp_large_frames_total" help:"Inbound frames larger than the 64 KiB read window, assembled in a pooled buffer instead of decoded in place."`
}

// WritevFrames is implied: SendsOut frames leave through WritevCalls
// writes, so the mean writev batch is SendsOut/WritevCalls.

// TCPEndpoint implements Endpoint over real TCP sockets, framing with the
// binary wire codec of package proto. Encode happens once into a pooled
// buffer, concurrent sends to the same peer
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
	poolHits    atomic.Uint64
	poolMisses  atomic.Uint64
	writevCalls atomic.Uint64
	writevMax   atomic.Uint64
	decodeErrs  atomic.Uint64
	largeIn     atomic.Uint64
}

// TCPOption customizes a TCPEndpoint.
type TCPOption func(*TCPEndpoint)

// WithTCPCodec is a no-op: the binary codec is the only one. Inert; see
// Codec.
func WithTCPCodec(Codec) TCPOption {
	return func(*TCPEndpoint) {}
}

// maxWritev caps the frames one vectored write carries: the kernel's
// IOV_MAX, the most a single writev syscall accepts.
const maxWritev = 1024

// outFrame is one encoded frame queued for a peer.
type outFrame struct {
	buf   []byte
	owner *[]byte // pool return after the write; nil for a shared frame
}

// outConn is the cached outbound connection to one peer. Its senders
// share vectored writes through a combining queue (internal/combine).
type outConn struct {
	addr     string
	dialOnce sync.Once
	dialErr  error
	c        net.Conn

	q        *combine.Queue[outFrame]
	bufs     [][]byte      // the batch's frames for net.Buffers; flusher only
	written  uint64        // frames handed to writeFrames so far; flusher only
	failedAt atomic.Uint64 // ticket of the first frame a write failed, 0 while healthy
	err      error         // sticky write error, set before failedAt
}

// ListenTCP starts a TCP endpoint for node id at the address the book
// assigns to it. The handler is invoked sequentially per inbound
// connection (TCP already guarantees per-sender FIFO).
func ListenTCP(id types.NodeID, book *AddressBook, h Handler, opts ...TCPOption) (*TCPEndpoint, error) {
	addr, ok := book.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: %v has no address", ErrUnknownNode, id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serveTCP(ln, id, book, h, opts...), nil
}

// serveTCP starts an endpoint accepting on a bound listener.
func serveTCP(ln net.Listener, id types.NodeID, book *AddressBook, h Handler, opts ...TCPOption) *TCPEndpoint {
	ep := &TCPEndpoint{
		id:      id,
		book:    book,
		handler: h,
		ln:      ln,
		dial:    func(a string) (net.Conn, error) { return net.Dial("tcp", a) },
		conns:   make(map[types.NodeID]*outConn),
		inbound: make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(ep)
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep
}

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
		PoolHits:    e.poolHits.Load(),
		PoolMisses:  e.poolMisses.Load(),
		WritevCalls: e.writevCalls.Load(),
		WritevMax:   e.writevMax.Load(),
		DecodeErrs:  e.decodeErrs.Load(),
		LargeIn:     e.largeIn.Load(),
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

// readLoop checks the connection preamble, proto.Magic, then decodes
// frames until the connection breaks. A peer that opens with anything
// else is not speaking the codec: it is dropped and counted in DecodeErrs.
func (e *TCPEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.inbound, c)
		e.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	var head [len(proto.Magic)]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return
	}
	if head != proto.Magic {
		e.decodeErrs.Add(1)
		return
	}
	e.readFrames(br)
}

// readFrames drains length-prefixed codec frames. The frame buffer is
// pooled: proto.DecodeFrame returns self-contained messages, so the
// buffer recycles as soon as a frame is decoded, before handler dispatch.
func (e *TCPEndpoint) readFrames(br *bufio.Reader) {
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
			e.largeIn.Add(1)
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
	return bp, nil
}

// Send marshals and writes msg on the (cached) connection to the peer. A
// message the codec cannot frame (proto.ErrUnknownMessage) fails the call
// and leaves the connection up.
func (e *TCPEndpoint) Send(to types.NodeID, msg Message) error {
	oc, err := e.conn(to)
	if err != nil {
		return err
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

// Broadcast sends msg to every listed node. The message is encoded
// exactly once and the same buffer is written to every peer; one the codec
// cannot frame fails the call like Send does.
func (e *TCPEndpoint) Broadcast(tos []types.NodeID, msg Message) error {
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
// it has been written (or failed). owner, when non-nil, is returned to the
// frame pool after the write.
func (e *TCPEndpoint) write(oc *outConn, frame []byte, owner *[]byte) error {
	e.sendsOut.Add(1)
	e.bytesOut.Add(uint64(len(frame)))
	t := oc.q.Add(outFrame{buf: frame, owner: owner})
	oc.q.Wait(t)
	if f := oc.failedAt.Load(); f != 0 && t >= f {
		return oc.err
	}
	return nil
}

// writeFrames is the peer queue's flush: one vectored write for the
// batch, then the pooled frames go back. A write error is sticky: the
// connection is dead, and this and every later batch fail with it.
func (e *TCPEndpoint) writeFrames(oc *outConn, batch []outFrame) {
	first := oc.written + 1 // tickets are consecutive and batches FIFO
	oc.written += uint64(len(batch))
	if oc.failedAt.Load() == 0 {
		n := uint64(len(batch))
		e.writevCalls.Add(1)
		for {
			prev := e.writevMax.Load()
			if n <= prev || e.writevMax.CompareAndSwap(prev, n) {
				break
			}
		}
		for _, f := range batch {
			oc.bufs = append(oc.bufs, f.buf)
		}
		bufs := net.Buffers(oc.bufs)
		if _, err := bufs.WriteTo(oc.c); err != nil {
			oc.err = err
			oc.failedAt.Store(first)
		}
		clear(oc.bufs)
		oc.bufs = oc.bufs[:0]
	}
	for _, f := range batch {
		if f.owner != nil {
			putBuf(f.owner)
		}
	}
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
		oc = &outConn{addr: addr}
		oc.q = combine.New(maxWritev, func(b []outFrame) { e.writeFrames(oc, b) })
		e.conns[to] = oc
	}
	e.mu.Unlock()
	oc.dialOnce.Do(func() {
		c, err := e.dial(oc.addr)
		if err != nil {
			oc.dialErr = err
			return
		}
		if _, err := c.Write(proto.Magic[:]); err != nil {
			c.Close()
			oc.dialErr = err
			return
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
