// Hand-rolled binary wire codec for every proto message (DESIGN.md §12).
//
// Frame layout (everything little-endian / unsigned varint):
//
//	[u32 length N][1-byte type tag][uvarint from-node-id][message body]
//
// The length counts the bytes after the length field itself. Integers are
// encoded as unsigned varints (encoding/binary Uvarint), byte slices as a
// uvarint length followed by the raw bytes, slices as a uvarint element
// count followed by the elements, maps as a uvarint pair count followed by
// key/value pairs in ascending key order (canonical encoding — a message
// value has exactly one wire image). Booleans are one byte, strictly 0 or
// 1.
//
// Each message states its body layout once, in its wire method
// (wire_msgs.go): one walk over its fields in wire order, which a codec
// runs in either direction. Encoding appends to a caller-owned buffer and
// never allocates beyond growing it. Decoding is zero-copy: the walk
// aliases []byte fields into the input buffer and reuses the slice/map
// capacity already in the message, so a decode into a warm message
// performs no allocations. The frame-level DecodeFrame and FrameDecoder
// used by both transports instead return a self-contained message (byte
// fields copied out), sharing no bytes with the frame or the sender. An
// append's records are copied once, into the storage record entry its
// Entry carries; the wire image is the same.
//
// The codec is the only wire format: a message type without a tag cannot
// be framed (ErrUnknownMessage), and a connection opens with the Magic
// preamble or is dropped.
package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"flexlog/internal/types"
)

// Magic is the 4-byte preamble a connection sends after dialing; an
// accepting endpoint drops a connection that opens with anything else.
var Magic = [4]byte{'F', 'L', 'X', '1'}

// MaxFrame bounds the post-length size of a single frame (type tag +
// sender + body). A peer announcing more is corrupt or hostile and the
// connection is dropped.
const MaxFrame = 1 << 28

// Wire type tags, one per message (DESIGN.md §12 pins these: changing a
// value breaks cross-version framing and the golden-bytes test). Tags 26,
// 28, 29, 30, 31, 34 and 35 are retired — do not reuse: 26 framed
// ReplicaHeartbeat, a liveness beat no receiver ever read, 29 and 30
// SyncFetch and SyncEntries, the sync-phase's own fetch pair, until
// recovery moved onto JoinFetch/JoinEntries, 28 and 31 the sync-phase's
// state report and its election of a "most up-to-date" replica, until
// every replica pulled from every peer, 34 and 35 the multi-color
// aggregated order request and its answer, several colors' upward rounds
// in one frame, until a sequencer shipped each color's round as its own
// AggOrderReq. Tag 255 is retired too: it framed a gob-encoded value of a
// type the codec did not know. A frame carrying any of them is malformed.
const (
	TagAppendReq       byte = 1
	TagAppendBatchReq  byte = 2
	TagAppendAck       byte = 3
	TagReadReq         byte = 4
	TagReadResp        byte = 5
	TagSubscribeReq    byte = 6
	TagSubscribeResp   byte = 7
	TagTrimReq         byte = 8
	TagTrimPeerAck     byte = 9
	TagTrimAck         byte = 10
	TagMultiAppendEnd  byte = 11
	TagMultiAppendAck  byte = 12
	TagOrderReq        byte = 13
	TagOrderResp       byte = 14
	TagOrderReqBatch   byte = 15
	TagOrderRespBatch  byte = 16
	TagAggOrderReq     byte = 17
	TagAggOrderResp    byte = 18
	TagSeqHeartbeat    byte = 19
	TagSeqHeartbeatAck byte = 20
	TagEpochClaim      byte = 21
	TagEpochGrant      byte = 22
	TagEpochReject     byte = 23
	TagSeqInit         byte = 24
	TagSeqInitAck      byte = 25
	TagSyncRequest     byte = 27
	TagSyncDone        byte = 32
	TagReject          byte = 33
	TagJoinFetch       byte = 36
	TagJoinEntries     byte = 37
	TagTopoUpdate      byte = 38
	TagCtrlReconfig    byte = 39
	TagCtrlAck         byte = 40
	TagPrepare         byte = 41
	TagPromise         byte = 42
	TagAccept          byte = 43
	TagAccepted        byte = 44
)

// ErrBadFrame reports a malformed or truncated frame.
var ErrBadFrame = errors.New("proto: malformed frame")

// ErrFrameTooLarge reports a frame exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("proto: frame exceeds size limit")

// ErrUnknownMessage is returned by AppendFrame for a Go type that has no
// wire tag; the error names the type.
var ErrUnknownMessage = errors.New("proto: message type has no wire tag")

// AppendFrame appends one complete frame (length prefix, tag, sender,
// body) for msg, a message value, to b and returns the extended slice. On
// error b is returned at its original length. A message is framed by
// value; a pointer to one is ErrUnknownMessage.
func AppendFrame(b []byte, from types.NodeID, msg any) ([]byte, error) {
	var tag byte
	switch msg.(type) {
	case AppendReq:
		tag = TagAppendReq
	case AppendBatchReq:
		tag = TagAppendBatchReq
	case AppendAck:
		tag = TagAppendAck
	case ReadReq:
		tag = TagReadReq
	case ReadResp:
		tag = TagReadResp
	case SubscribeReq:
		tag = TagSubscribeReq
	case SubscribeResp:
		tag = TagSubscribeResp
	case TrimReq:
		tag = TagTrimReq
	case TrimPeerAck:
		tag = TagTrimPeerAck
	case TrimAck:
		tag = TagTrimAck
	case MultiAppendEnd:
		tag = TagMultiAppendEnd
	case MultiAppendAck:
		tag = TagMultiAppendAck
	case OrderReq:
		tag = TagOrderReq
	case OrderResp:
		tag = TagOrderResp
	case OrderReqBatch:
		tag = TagOrderReqBatch
	case OrderRespBatch:
		tag = TagOrderRespBatch
	case AggOrderReq:
		tag = TagAggOrderReq
	case AggOrderResp:
		tag = TagAggOrderResp
	case SeqHeartbeat:
		tag = TagSeqHeartbeat
	case SeqHeartbeatAck:
		tag = TagSeqHeartbeatAck
	case EpochClaim:
		tag = TagEpochClaim
	case EpochGrant:
		tag = TagEpochGrant
	case EpochReject:
		tag = TagEpochReject
	case SeqInit:
		tag = TagSeqInit
	case SeqInitAck:
		tag = TagSeqInitAck
	case SyncRequest:
		tag = TagSyncRequest
	case SyncDone:
		tag = TagSyncDone
	case Reject:
		tag = TagReject
	case JoinFetch:
		tag = TagJoinFetch
	case JoinEntries:
		tag = TagJoinEntries
	case TopoUpdate:
		tag = TagTopoUpdate
	case CtrlReconfig:
		tag = TagCtrlReconfig
	case CtrlAck:
		tag = TagCtrlAck
	case Prepare:
		tag = TagPrepare
	case Promise:
		tag = TagPromise
	case Accept:
		tag = TagAccept
	case Accepted:
		tag = TagAccepted
	default:
		return b, fmt.Errorf("%w: %T", ErrUnknownMessage, msg)
	}
	start := len(b)
	out := append(b, 0, 0, 0, 0, tag) // length back-filled below
	out = binary.AppendUvarint(out, uint64(from))
	out = bodyCodecs[tag].encode(out, msg)
	n := len(out) - start - 4
	if n > MaxFrame {
		return b, ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(n))
	return out, nil
}

// DecodeFrame parses one frame body (the bytes after the u32 length
// prefix) and returns the sender and the decoded message. The returned
// message is self-contained — byte fields are copied out of b — so the
// caller may recycle b immediately.
func DecodeFrame(b []byte) (types.NodeID, any, error) {
	c, tag, from := frameHeader(b)
	if c.r.err != nil {
		return 0, nil, c.r.err
	}
	msg, err := decodeBody(tag, c.r.b)
	if err != nil {
		return 0, nil, err
	}
	return from, msg, nil
}

// decodeBody decodes a tagged message body into a self-contained value
// (meaningless when it returns an error). Retired and unknown tags have no
// decoder and are malformed frames.
func decodeBody(tag byte, body []byte) (any, error) {
	if dec := bodyCodecs[tag].decode; dec != nil {
		return dec(body)
	}
	return nil, fmt.Errorf("%w: unknown tag %d", ErrBadFrame, tag)
}

// bodyCodecs is the codec's table, indexed by wire tag: a live tag's row
// encodes its message's body and decodes one back. Each row is its own
// function holding its own copy of the message, so a frame costs the stack
// of one message, not of all 37 — an encode in a fresh goroutine does not
// grow its stack. The decode rows of the types whose walk aliases byte
// fields into the frame buffer copy them out, so every row returns a value
// the caller may keep after recycling the buffer. The rows are literals
// and not one generic codecFor[T]: calling wire through a type parameter
// hides the callee from escape analysis, so the message is heap-allocated
// once for the call and once more when boxed (measured on AppendAck:
// 16 B / 1 alloc per frame as written, 32 B / 2 allocs generic).
var bodyCodecs = [256]struct {
	encode func(b []byte, msg any) []byte
	decode func(body []byte) (any, error)
}{
	TagAppendReq: {
		func(b []byte, msg any) []byte { m := msg.(AppendReq); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) {
			var m AppendReq
			c := decoder(b)
			m.wire(&c)
			if err := c.r.done(); err != nil {
				return nil, err
			}
			sets, entry := ownBatch([][][]byte{m.Records}, true)
			m.Records, m.Entry = sets[0], entry
			return m, nil
		},
	},
	TagAppendBatchReq: {
		func(b []byte, msg any) []byte { m := msg.(AppendBatchReq); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) {
			var m AppendBatchReq
			c := decoder(b)
			m.wire(&c)
			if err := c.r.done(); err != nil {
				return nil, err
			}
			m.Sets, m.Entry = ownBatch(m.Sets, true)
			return m, nil
		},
	},
	TagReadResp: {
		func(b []byte, msg any) []byte { m := msg.(ReadResp); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) {
			var m ReadResp
			c := decoder(b)
			m.wire(&c)
			if err := c.r.done(); err != nil {
				return nil, err
			}
			m.Data = bytes.Clone(m.Data)
			return m, nil
		},
	},
	TagSubscribeResp: {
		func(b []byte, msg any) []byte { m := msg.(SubscribeResp); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) {
			var m SubscribeResp
			c := decoder(b)
			m.wire(&c)
			if err := c.r.done(); err != nil {
				return nil, err
			}
			o := owner{inPlace: true}
			m.Records = o.records(m.Records)
			return m, nil
		},
	},
	TagJoinEntries: {
		func(b []byte, msg any) []byte { m := msg.(JoinEntries); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) {
			var m JoinEntries
			c := decoder(b)
			m.wire(&c)
			if err := c.r.done(); err != nil {
				return nil, err
			}
			o := owner{inPlace: true}
			for color, recs := range m.Records {
				m.Records[color] = o.records(recs)
			}
			return m, nil
		},
	},
	TagAppendAck: {
		func(b []byte, msg any) []byte { m := msg.(AppendAck); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m AppendAck; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagReadReq: {
		func(b []byte, msg any) []byte { m := msg.(ReadReq); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m ReadReq; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagSubscribeReq: {
		func(b []byte, msg any) []byte { m := msg.(SubscribeReq); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m SubscribeReq; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagTrimReq: {
		func(b []byte, msg any) []byte { m := msg.(TrimReq); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m TrimReq; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagTrimPeerAck: {
		func(b []byte, msg any) []byte { m := msg.(TrimPeerAck); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m TrimPeerAck; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagTrimAck: {
		func(b []byte, msg any) []byte { m := msg.(TrimAck); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m TrimAck; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagMultiAppendEnd: {
		func(b []byte, msg any) []byte { m := msg.(MultiAppendEnd); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m MultiAppendEnd; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagMultiAppendAck: {
		func(b []byte, msg any) []byte { m := msg.(MultiAppendAck); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m MultiAppendAck; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagOrderReq: {
		func(b []byte, msg any) []byte { m := msg.(OrderReq); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m OrderReq; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagOrderResp: {
		func(b []byte, msg any) []byte { m := msg.(OrderResp); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m OrderResp; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagOrderReqBatch: {
		func(b []byte, msg any) []byte { m := msg.(OrderReqBatch); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m OrderReqBatch; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagOrderRespBatch: {
		func(b []byte, msg any) []byte { m := msg.(OrderRespBatch); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m OrderRespBatch; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagAggOrderReq: {
		func(b []byte, msg any) []byte { m := msg.(AggOrderReq); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m AggOrderReq; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagAggOrderResp: {
		func(b []byte, msg any) []byte { m := msg.(AggOrderResp); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m AggOrderResp; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagSeqHeartbeat: {
		func(b []byte, msg any) []byte { m := msg.(SeqHeartbeat); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m SeqHeartbeat; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagSeqHeartbeatAck: {
		func(b []byte, msg any) []byte { m := msg.(SeqHeartbeatAck); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m SeqHeartbeatAck; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagEpochClaim: {
		func(b []byte, msg any) []byte { m := msg.(EpochClaim); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m EpochClaim; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagEpochGrant: {
		func(b []byte, msg any) []byte { m := msg.(EpochGrant); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m EpochGrant; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagEpochReject: {
		func(b []byte, msg any) []byte { m := msg.(EpochReject); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m EpochReject; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagSeqInit: {
		func(b []byte, msg any) []byte { m := msg.(SeqInit); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m SeqInit; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagSeqInitAck: {
		func(b []byte, msg any) []byte { m := msg.(SeqInitAck); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m SeqInitAck; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagSyncRequest: {
		func(b []byte, msg any) []byte { m := msg.(SyncRequest); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m SyncRequest; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagSyncDone: {
		func(b []byte, msg any) []byte { m := msg.(SyncDone); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m SyncDone; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagReject: {
		func(b []byte, msg any) []byte { m := msg.(Reject); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m Reject; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagJoinFetch: {
		func(b []byte, msg any) []byte { m := msg.(JoinFetch); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m JoinFetch; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagTopoUpdate: {
		func(b []byte, msg any) []byte { m := msg.(TopoUpdate); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m TopoUpdate; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagCtrlReconfig: {
		func(b []byte, msg any) []byte { m := msg.(CtrlReconfig); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m CtrlReconfig; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagCtrlAck: {
		func(b []byte, msg any) []byte { m := msg.(CtrlAck); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m CtrlAck; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagPrepare: {
		func(b []byte, msg any) []byte { m := msg.(Prepare); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m Prepare; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagPromise: {
		func(b []byte, msg any) []byte { m := msg.(Promise); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m Promise; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagAccept: {
		func(b []byte, msg any) []byte { m := msg.(Accept); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m Accept; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
	TagAccepted: {
		func(b []byte, msg any) []byte { m := msg.(Accepted); c := codec{b: b}; m.wire(&c); return c.b },
		func(b []byte) (any, error) { var m Accepted; c := decoder(b); m.wire(&c); return m, c.r.done() },
	},
}

// ---- the field walk ----

// codec runs a message's wire walk in one direction: encoding appends
// each field to b, decoding reads each field from r into the message. It
// is a concrete struct, never an interface: a call through an interface
// would make every &m.Field escape and allocate. Encoding only reads the
// message, so it may run on a value other goroutines share.
//
// Each primitive below states one encoding in both directions. Its decode
// half reads the input in line, so a field costs one call either way.
type codec struct {
	dec bool
	b   []byte
	r   wireReader
}

// decoder returns a codec that reads b.
func decoder(b []byte) codec { return codec{dec: true, r: wireReader{b: b}} }

// frameHeader reads a frame's tag and sender and returns a codec at the
// start of its body (with the sticky error set on a short header).
func frameHeader(b []byte) (c codec, tag byte, from types.NodeID) {
	c = decoder(b)
	c.u8(&tag)
	c.node(&from)
	return c, tag, from
}

func (c *codec) uvarint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	x, n := binary.Uvarint(c.r.b)
	if n > 0 {
		c.r.b = c.r.b[n:]
	} else {
		c.r.fail() // x is 0
	}
	*v = x
}

// u32 is a uvarint of 32-bit range: a larger decoded value is malformed.
func (c *codec) u32(v *uint32) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(*v))
		return
	}
	x, n := binary.Uvarint(c.r.b)
	if n > 0 && x <= math.MaxUint32 {
		c.r.b = c.r.b[n:]
	} else {
		c.r.fail()
		x = 0
	}
	*v = uint32(x)
}

// u8 is one raw byte.
func (c *codec) u8(v *uint8) {
	if !c.dec {
		c.b = append(c.b, *v)
		return
	}
	if len(c.r.b) == 0 {
		c.r.fail()
		*v = 0
		return
	}
	*v = c.r.b[0]
	c.r.b = c.r.b[1:]
}

// bool is one byte, strictly 0 or 1.
func (c *codec) bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.u8(&u)
	if c.dec {
		if u > 1 {
			c.r.fail()
		}
		*v = u == 1
	}
}

// bytes is a uvarint length and the raw bytes; decoding aliases them
// into the input (nil for length zero).
func (c *codec) bytes(v *[]byte) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(len(*v)))
		c.b = append(c.b, *v...)
		return
	}
	var n uint64
	c.uvarint(&n)
	if n > uint64(len(c.r.b)) {
		c.r.fail()
		n = 0
	}
	*v = nil
	if n > 0 {
		*v = c.r.b[:n:n]
		c.r.b = c.r.b[n:]
	}
}

func (c *codec) token(v *types.Token)     { c.uvarint((*uint64)(v)) }
func (c *codec) sn(v *types.SN)           { c.uvarint((*uint64)(v)) }
func (c *codec) color(v *types.ColorID)   { c.u32((*uint32)(v)) }
func (c *codec) node(v *types.NodeID)     { c.u32((*uint32)(v)) }
func (c *codec) tenant(v *types.TenantID) { c.u32((*uint32)(v)) }
func (c *codec) shard(v *types.ShardID)   { c.u32((*uint32)(v)) }
func (c *codec) epoch(v *types.Epoch)     { c.u32((*uint32)(v)) }
func (c *codec) ballot(v *Ballot)         { c.uvarint((*uint64)(v)) }

// count reads an element count. A count that could not fit in the
// remaining bytes (each element takes at least minSize of them) is
// malformed: the guard that keeps fuzzed input from provoking huge
// allocations.
func (c *codec) count(minSize int) int {
	var n uint64
	c.uvarint(&n)
	if n > uint64(len(c.r.b))/uint64(minSize) {
		c.r.fail()
		n = 0
	}
	return int(n)
}

// list writes len(*s) as an element count, or reads a count (see count)
// and resizes *s to it, reusing its capacity; the caller then walks the
// elements, each at least minSize bytes on the wire. The type parameter
// hides no callee from escape analysis: list calls nothing through it.
func list[E any](c *codec, s *[]E, minSize int) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(len(*s)))
		return
	}
	n := c.count(minSize)
	*s = slices.Grow((*s)[:0], n)[:n]
}

// byteSlices encodes in line, into a local buffer, not through list and
// bytes: it carries every append's records.
func (c *codec) byteSlices(s *[][]byte) {
	if !c.dec {
		b := binary.AppendUvarint(c.b, uint64(len(*s)))
		for _, rec := range *s {
			b = binary.AppendUvarint(b, uint64(len(rec)))
			b = append(b, rec...)
		}
		c.b = b
		return
	}
	list(c, s, 1)
	for i := range *s {
		c.bytes(&(*s)[i])
	}
}

func (c *codec) nodes(s *[]types.NodeID) {
	list(c, s, 1)
	for i := range *s {
		c.node(&(*s)[i])
	}
}

func (c *codec) tokens(s *[]types.Token) {
	list(c, s, 1)
	for i := range *s {
		c.token(&(*s)[i])
	}
}

func (c *codec) records(s *[]WireRecord) {
	list(c, s, 3)
	for i := range *s {
		rec := &(*s)[i]
		c.token(&rec.Token)
		c.sn(&rec.SN)
		c.bytes(&rec.Data)
	}
}

// colorKeys starts a color-keyed map of n pairs, each at least 2 bytes:
// it writes n and returns the keys in ascending order (the canonical
// encoding), or reads n and empties *m, returning no keys. Maps travel
// only in sync-phase and catch-up messages, so the sort is off the hot
// path.
func colorKeys[V any](c *codec, m *map[types.ColorID]V) (keys []types.ColorID, n int) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(len(*m)))
		keys = make([]types.ColorID, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys, len(keys)
	}
	n = c.count(2)
	switch {
	case *m != nil:
		clear(*m)
	case n > 0:
		*m = make(map[types.ColorID]V, n)
	}
	return nil, n
}

func (c *codec) snMap(m *map[types.ColorID]types.SN) {
	keys, n := colorKeys(c, m)
	for i := range n {
		var k types.ColorID
		if !c.dec {
			k = keys[i]
		}
		c.color(&k)
		v := (*m)[k]
		c.sn(&v)
		if c.dec {
			(*m)[k] = v
		}
	}
}

func (c *codec) recordsMap(m *map[types.ColorID][]WireRecord) {
	keys, n := colorKeys(c, m)
	for i := range n {
		var k types.ColorID
		if !c.dec {
			k = keys[i]
		}
		c.color(&k)
		v := (*m)[k]
		c.records(&v)
		if c.dec {
			(*m)[k] = v
		}
	}
}

// wireReader is a decoding codec's cursor over one frame body, with a
// sticky error: after the first malformed field the cursor is empty, so
// every later read fails too. Reads alias the input; nothing is copied.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = ErrBadFrame
	}
	r.b = nil
}

// done reports the sticky error, or ErrBadFrame on trailing bytes: a
// frame body must be consumed exactly.
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.b))
	}
	return nil
}

// ---- copy-out: decoded messages own their bytes ----

// owner copies a decoded message's aliased bytes out of the frame buffer.
// The two frame decoders differ only in where the copies go. DecodeFrame's
// owner (inPlace) serves one freshly decoded message: it copies each
// list's bytes into one new buffer of their size and repoints the list in
// place. A FrameDecoder's (the zero value) decoded into scratch it keeps:
// it copies each list into a fresh right-sized array and carves the bytes
// from a shared arena chunk. An empty list comes out nil, as the walk
// leaves it in a fresh message, so the two decoders return deep-equal
// values. (An append's records are not an owner's: see ownBatch.)
type owner struct {
	inPlace bool
	arena   []byte
}

// arenaChunk is a FrameDecoder's backing-buffer granularity. Owned record
// copies are carved from one shared chunk, so the per-frame backing
// allocation (and its zeroing) amortizes over ~dozens of frames. A chunk
// stays reachable until every message carved from it is dropped — bounded
// retention the handlers' short message lifetimes make irrelevant.
const arenaChunk = 64 << 10

// carve returns an empty owned slice with room for total bytes.
func (o *owner) carve(total int) []byte {
	if cap(o.arena)-len(o.arena) < total {
		size := total
		if !o.inPlace {
			size = max(total, arenaChunk)
		}
		o.arena = make([]byte, 0, size)
	}
	n := len(o.arena)
	o.arena = o.arena[:n+total]
	return o.arena[n : n : n+total]
}

// records copies the records of a subscription or catch-up into one
// carved region.
func (o *owner) records(recs []WireRecord) []WireRecord {
	if len(recs) == 0 {
		return nil
	}
	total := 0
	for _, rec := range recs {
		total += len(rec.Data)
	}
	out := recs
	if !o.inPlace {
		out = make([]WireRecord, len(recs))
	}
	buf := o.carve(total)
	for i, rec := range recs {
		out[i] = rec
		if len(rec.Data) > 0 {
			n := len(buf)
			buf = append(buf, rec.Data...)
			out[i].Data = buf[n:len(buf):len(buf)]
		}
	}
	return out
}

// entryHeaderRoom is the head of an AppendBatchReq's Entry left for the
// header of a storage record entry, which the store fills.
const entryHeaderRoom = 32

// ownBatch copies the records of a decoded append's sets (an AppendReq
// has one), which alias the frame, into one new buffer laid out as a
// storage record entry (see AppendBatchReq.Entry), and returns the sets
// pointed into it with the entry. The storage cache keeps the entry whole,
// so it is its own allocation, never carved from an arena. A bodyCodecs
// row's sets are its own and are repointed in place (inPlace); a
// FrameDecoder's are scratch, so the returned sets are fresh, carved from
// one array. An empty set or record comes out nil, as from a fresh walk,
// so the two decoders return deep-equal values; a batch of no records
// has no entry.
func ownBatch(sets [][][]byte, inPlace bool) ([][][]byte, []byte) {
	if len(sets) == 0 {
		return nil, nil
	}
	n, size := 0, entryHeaderRoom+4
	for _, set := range sets {
		n += len(set)
		for _, rec := range set {
			size += 4 + len(rec)
		}
	}
	out, recs := sets, [][]byte(nil)
	if !inPlace {
		out, recs = make([][][]byte, len(sets)), make([][]byte, n)
	}
	if n == 0 {
		clear(out)
		return out, nil
	}
	entry := make([]byte, size)
	binary.LittleEndian.PutUint32(entry[entryHeaderRoom:], uint32(n))
	off := entryHeaderRoom + 4
	for i, set := range sets {
		if len(set) == 0 {
			out[i] = nil
			continue
		}
		dst := set
		if !inPlace {
			dst, recs = recs[:len(set):len(set)], recs[len(set):]
		}
		for j, rec := range set {
			binary.LittleEndian.PutUint32(entry[off:], uint32(len(rec)))
			off += 4
			dst[j] = nil
			if len(rec) > 0 {
				dst[j] = entry[off : off+len(rec) : off+len(rec)]
				off += copy(dst[j], rec)
			}
		}
		out[i] = dst
	}
	return out, entry
}

// ---- per-connection frame decoding with scratch reuse ----

// FrameDecoder is DecodeFrame with reusable scratch state. A transport
// read loop owns one per connection: the alias-carrying hot types
// (AppendBatchReq, SubscribeResp) first decode into scratch
// messages — reusing their slice-header capacity across frames — and then
// copy out exactly once into right-sized owned values (an append batch's
// records into its Entry). This halves the decode-side allocation churn
// of the stateless DecodeFrame, which rebuilds the intermediate aliased
// headers for every frame. Returned messages are self-contained; the
// scratch retains only dead aliases that the next Decode overwrites. Not
// safe for concurrent use.
type FrameDecoder struct {
	batchReq AppendBatchReq
	subResp  SubscribeResp
	own      owner
}

// Decode decodes one frame (sans length prefix) into a self-contained
// message, like DecodeFrame, but with scratch reuse.
func (d *FrameDecoder) Decode(b []byte) (types.NodeID, any, error) {
	c, tag, from := frameHeader(b)
	if c.r.err != nil {
		return 0, nil, c.r.err
	}
	switch tag {
	case TagAppendBatchReq:
		d.batchReq.wire(&c)
		if err := c.r.done(); err != nil {
			return 0, nil, err
		}
		m := d.batchReq
		m.Sets, m.Entry = ownBatch(d.batchReq.Sets, false)
		return from, m, nil
	case TagSubscribeResp:
		d.subResp.wire(&c)
		if err := c.r.done(); err != nil {
			return 0, nil, err
		}
		m := d.subResp
		m.Records = d.own.records(m.Records)
		return from, m, nil
	}
	msg, err := decodeBody(tag, c.r.b)
	if err != nil {
		return 0, nil, err
	}
	return from, msg, nil
}
