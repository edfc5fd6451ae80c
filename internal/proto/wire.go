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
// Encoding is allocation-free: AppendTo appends to a caller-owned buffer.
// Decoding is zero-copy: Decode aliases []byte fields into the input
// buffer and reuses the slice/map capacity already in the receiver, so a
// steady-state decode into a reused message performs no allocations. The
// frame-level DecodeFrame used by the TCP transport instead returns a
// self-contained message (byte fields copied out) so pooled read buffers
// can be recycled as soon as it returns.
//
// Tag 255 frames a gob-encoded payload: the escape hatch for message
// types the codec does not know (tests, future rolling upgrades). The
// connection-level preamble Magic lets an accepting endpoint distinguish
// a binary-codec peer from a legacy pure-gob stream.
package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"

	"flexlog/internal/types"
)

// Magic is the 4-byte preamble a binary-codec connection sends after
// dialing; an accepting endpoint that sees it switches to frame decoding,
// anything else is treated as a legacy gob stream.
var Magic = [4]byte{'F', 'L', 'X', '1'}

// MaxFrame bounds the post-length size of a single frame (type tag +
// sender + body). A peer announcing more is corrupt or hostile and the
// connection is dropped.
const MaxFrame = 1 << 28

// Wire type tags, one per message (DESIGN.md §12 pins these: changing a
// value breaks cross-version framing and the golden-bytes test). Tags 26,
// 29 and 30 are retired — do not reuse: 26 framed ReplicaHeartbeat, a
// liveness beat no receiver ever read, 29 and 30 SyncFetch and
// SyncEntries, the sync-phase's own fetch pair, until recovery moved onto
// JoinFetch/JoinEntries. A frame carrying any of them is malformed.
const (
	TagAppendReq         byte = 1
	TagAppendBatchReq    byte = 2
	TagAppendAck         byte = 3
	TagReadReq           byte = 4
	TagReadResp          byte = 5
	TagSubscribeReq      byte = 6
	TagSubscribeResp     byte = 7
	TagTrimReq           byte = 8
	TagTrimPeerAck       byte = 9
	TagTrimAck           byte = 10
	TagMultiAppendEnd    byte = 11
	TagMultiAppendAck    byte = 12
	TagOrderReq          byte = 13
	TagOrderResp         byte = 14
	TagOrderReqBatch     byte = 15
	TagOrderRespBatch    byte = 16
	TagAggOrderReq       byte = 17
	TagAggOrderResp      byte = 18
	TagSeqHeartbeat      byte = 19
	TagSeqHeartbeatAck   byte = 20
	TagEpochClaim        byte = 21
	TagEpochGrant        byte = 22
	TagEpochReject       byte = 23
	TagSeqInit           byte = 24
	TagSeqInitAck        byte = 25
	TagSyncRequest       byte = 27
	TagSyncState         byte = 28
	TagSyncCatchup       byte = 31
	TagSyncDone          byte = 32
	TagReject            byte = 33
	TagAggOrderReqBatch  byte = 34
	TagAggOrderRespBatch byte = 35
	TagJoinFetch         byte = 36
	TagJoinEntries       byte = 37
	TagTopoUpdate        byte = 38
	TagCtrlReconfig      byte = 39
	TagCtrlAck           byte = 40
	// TagGobFallback frames a gob-encoded payload for message types the
	// binary codec does not know.
	TagGobFallback byte = 255
)

// ErrBadFrame reports a malformed or truncated frame.
var ErrBadFrame = errors.New("proto: malformed frame")

// ErrFrameTooLarge reports a frame exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("proto: frame exceeds size limit")

// wireMessage is satisfied (with value receivers, so both values and
// pointers qualify) by every codec-native message type.
type wireMessage interface {
	// AppendTo appends the message body to b and returns the extended
	// slice. It never allocates beyond growing b.
	AppendTo(b []byte) []byte
	wireTag() byte
}

// gobFallback wraps an unknown message type for tag-255 frames.
type gobFallback struct{ Msg any }

// AppendFrame appends one complete frame (length prefix, tag, sender,
// body) for msg to b and returns the extended slice. Message types the
// codec does not know are framed as gob (tag 255); their concrete type
// must be gob-registered on both ends. On error b is returned truncated
// to its original length.
func AppendFrame(b []byte, from types.NodeID, msg any) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length back-filled below
	if wm, ok := msg.(wireMessage); ok {
		b = append(b, wm.wireTag())
		b = appendUvarint(b, uint64(from))
		b = wm.AppendTo(b)
	} else {
		b = append(b, TagGobFallback)
		b = appendUvarint(b, uint64(from))
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&gobFallback{Msg: msg}); err != nil {
			return b[:start], fmt.Errorf("proto: gob fallback encode: %w", err)
		}
		b = append(b, buf.Bytes()...)
	}
	n := len(b) - start - 4
	if n > MaxFrame {
		return b[:start], ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// DecodeFrame parses one frame body (the bytes after the u32 length
// prefix) and returns the sender and the decoded message. The returned
// message is self-contained — byte fields are copied out of b — so the
// caller may recycle b immediately.
func DecodeFrame(b []byte) (types.NodeID, any, error) {
	r := wireReader{b: b}
	tag := r.u8()
	from := types.NodeID(r.u32())
	if r.err != nil {
		return 0, nil, r.err
	}
	body := r.b
	msg, err := decodeBody(tag, body)
	if err != nil {
		return 0, nil, err
	}
	return from, msg, nil
}

// decodeBody decodes a tagged message body into a self-contained value
// (meaningless when it returns an error). Retired and unknown tags have no
// decoder and are malformed frames.
func decodeBody(tag byte, body []byte) (any, error) {
	if dec := bodyDecoders[tag]; dec != nil {
		return dec(body)
	}
	return nil, fmt.Errorf("%w: unknown tag %d", ErrBadFrame, tag)
}

// bodyDecoders is decodeBody's table, indexed by wire tag. The types whose
// Decode aliases byte fields into the frame buffer copy them out here, so
// every entry returns a value the caller may keep after recycling the
// buffer. The other rows are one literal each and not one generic
// decodeAs[T]: calling Decode through a type parameter hides the callee
// from escape analysis, so the message is heap-allocated once for the call
// and once more when boxed (measured on AppendAck: 16 B / 1 alloc per
// frame as written, 32 B / 2 allocs generic).
var bodyDecoders = [256]func(body []byte) (any, error){
	TagAppendReq: func(body []byte) (any, error) {
		var m AppendReq
		if err := m.Decode(body); err != nil {
			return nil, err
		}
		m.Records = ownByteSlices(m.Records)
		return m, nil
	},
	TagAppendBatchReq: func(body []byte) (any, error) {
		var m AppendBatchReq
		if err := m.Decode(body); err != nil {
			return nil, err
		}
		for i := range m.Sets {
			m.Sets[i] = ownByteSlices(m.Sets[i])
		}
		return m, nil
	},
	TagReadResp: func(body []byte) (any, error) {
		var m ReadResp
		if err := m.Decode(body); err != nil {
			return nil, err
		}
		m.Data = bytes.Clone(m.Data)
		return m, nil
	},
	TagSubscribeResp: func(body []byte) (any, error) {
		var m SubscribeResp
		if err := m.Decode(body); err != nil {
			return nil, err
		}
		ownRecordData(m.Records)
		return m, nil
	},
	TagJoinEntries: func(body []byte) (any, error) {
		var m JoinEntries
		if err := m.Decode(body); err != nil {
			return nil, err
		}
		for _, recs := range m.Records {
			ownRecordData(recs)
		}
		return m, nil
	},
	TagGobFallback: func(body []byte) (any, error) {
		var env gobFallback
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&env); err != nil {
			return nil, fmt.Errorf("proto: gob fallback decode: %w", err)
		}
		return env.Msg, nil
	},

	TagAppendAck:         func(b []byte) (any, error) { var m AppendAck; err := m.Decode(b); return m, err },
	TagReadReq:           func(b []byte) (any, error) { var m ReadReq; err := m.Decode(b); return m, err },
	TagSubscribeReq:      func(b []byte) (any, error) { var m SubscribeReq; err := m.Decode(b); return m, err },
	TagTrimReq:           func(b []byte) (any, error) { var m TrimReq; err := m.Decode(b); return m, err },
	TagTrimPeerAck:       func(b []byte) (any, error) { var m TrimPeerAck; err := m.Decode(b); return m, err },
	TagTrimAck:           func(b []byte) (any, error) { var m TrimAck; err := m.Decode(b); return m, err },
	TagMultiAppendEnd:    func(b []byte) (any, error) { var m MultiAppendEnd; err := m.Decode(b); return m, err },
	TagMultiAppendAck:    func(b []byte) (any, error) { var m MultiAppendAck; err := m.Decode(b); return m, err },
	TagOrderReq:          func(b []byte) (any, error) { var m OrderReq; err := m.Decode(b); return m, err },
	TagOrderResp:         func(b []byte) (any, error) { var m OrderResp; err := m.Decode(b); return m, err },
	TagOrderReqBatch:     func(b []byte) (any, error) { var m OrderReqBatch; err := m.Decode(b); return m, err },
	TagOrderRespBatch:    func(b []byte) (any, error) { var m OrderRespBatch; err := m.Decode(b); return m, err },
	TagAggOrderReq:       func(b []byte) (any, error) { var m AggOrderReq; err := m.Decode(b); return m, err },
	TagAggOrderResp:      func(b []byte) (any, error) { var m AggOrderResp; err := m.Decode(b); return m, err },
	TagAggOrderReqBatch:  func(b []byte) (any, error) { var m AggOrderReqBatch; err := m.Decode(b); return m, err },
	TagAggOrderRespBatch: func(b []byte) (any, error) { var m AggOrderRespBatch; err := m.Decode(b); return m, err },
	TagSeqHeartbeat:      func(b []byte) (any, error) { var m SeqHeartbeat; err := m.Decode(b); return m, err },
	TagSeqHeartbeatAck:   func(b []byte) (any, error) { var m SeqHeartbeatAck; err := m.Decode(b); return m, err },
	TagEpochClaim:        func(b []byte) (any, error) { var m EpochClaim; err := m.Decode(b); return m, err },
	TagEpochGrant:        func(b []byte) (any, error) { var m EpochGrant; err := m.Decode(b); return m, err },
	TagEpochReject:       func(b []byte) (any, error) { var m EpochReject; err := m.Decode(b); return m, err },
	TagSeqInit:           func(b []byte) (any, error) { var m SeqInit; err := m.Decode(b); return m, err },
	TagSeqInitAck:        func(b []byte) (any, error) { var m SeqInitAck; err := m.Decode(b); return m, err },
	TagSyncRequest:       func(b []byte) (any, error) { var m SyncRequest; err := m.Decode(b); return m, err },
	TagSyncState:         func(b []byte) (any, error) { var m SyncState; err := m.Decode(b); return m, err },
	TagSyncCatchup:       func(b []byte) (any, error) { var m SyncCatchup; err := m.Decode(b); return m, err },
	TagSyncDone:          func(b []byte) (any, error) { var m SyncDone; err := m.Decode(b); return m, err },
	TagReject:            func(b []byte) (any, error) { var m Reject; err := m.Decode(b); return m, err },
	TagJoinFetch:         func(b []byte) (any, error) { var m JoinFetch; err := m.Decode(b); return m, err },
	TagTopoUpdate:        func(b []byte) (any, error) { var m TopoUpdate; err := m.Decode(b); return m, err },
	TagCtrlReconfig:      func(b []byte) (any, error) { var m CtrlReconfig; err := m.Decode(b); return m, err },
	TagCtrlAck:           func(b []byte) (any, error) { var m CtrlAck; err := m.Decode(b); return m, err },
}

// ---- encode helpers ----

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendByteSlices(b []byte, ss [][]byte) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendBytes(b, s)
	}
	return b
}

func appendNodeIDs(b []byte, ids []types.NodeID) []byte {
	b = appendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendUvarint(b, uint64(id))
	}
	return b
}

func appendWireRecords(b []byte, recs []WireRecord) []byte {
	b = appendUvarint(b, uint64(len(recs)))
	for _, rec := range recs {
		b = appendUvarint(b, uint64(rec.Token))
		b = appendUvarint(b, uint64(rec.SN))
		b = appendBytes(b, rec.Data)
	}
	return b
}

// appendSNMap writes the map in ascending key order so the encoding is
// canonical (sync-phase messages only; the sort is off the hot path).
func appendSNMap(b []byte, m map[types.ColorID]types.SN) []byte {
	b = appendUvarint(b, uint64(len(m)))
	if len(m) == 0 {
		return b
	}
	keys := make([]types.ColorID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = appendUvarint(b, uint64(k))
		b = appendUvarint(b, uint64(m[k]))
	}
	return b
}

func appendRecordsMap(b []byte, m map[types.ColorID][]WireRecord) []byte {
	b = appendUvarint(b, uint64(len(m)))
	if len(m) == 0 {
		return b
	}
	keys := make([]types.ColorID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = appendUvarint(b, uint64(k))
		b = appendWireRecords(b, m[k])
	}
	return b
}

// ---- decode helpers ----

// wireReader is a sticky-error cursor over one frame body. All reads
// alias the input; nothing is copied.
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

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) u32() uint32 {
	v := r.uvarint()
	if v > 0xFFFFFFFF {
		r.fail()
		return 0
	}
	return uint32(v)
}

func (r *wireReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail()
		return false
	}
}

// bytes returns the next length-prefixed byte slice, aliased into the
// input buffer (nil for length zero).
func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// count reads an element count and rejects counts that could not possibly
// fit in the remaining bytes (each element consumes at least minBytes) —
// the guard that keeps fuzzed input from provoking huge allocations.
func (r *wireReader) count(minBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(len(r.b))/uint64(minBytes) {
		r.fail()
		return 0
	}
	return int(v)
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

// readByteSlices decodes a [][]byte, reusing dst's capacity.
func readByteSlices(r *wireReader, dst [][]byte) [][]byte {
	n := r.count(1)
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, r.bytes())
	}
	return dst
}

// readByteSliceSets decodes a [][][]byte, reusing both the outer slice
// and each inner set's capacity.
func readByteSliceSets(r *wireReader, dst [][][]byte) [][][]byte {
	n := r.count(1)
	old := dst
	dst = dst[:0]
	for i := 0; i < n; i++ {
		var inner [][]byte
		if i < len(old) {
			inner = old[i]
		}
		dst = append(dst, readByteSlices(r, inner))
	}
	return dst
}

func readNodeIDs(r *wireReader, dst []types.NodeID) []types.NodeID {
	n := r.count(1)
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, types.NodeID(r.u32()))
	}
	return dst
}

func readWireRecords(r *wireReader, dst []WireRecord) []WireRecord {
	n := r.count(3)
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, WireRecord{
			Token: types.Token(r.uvarint()),
			SN:    types.SN(r.uvarint()),
			Data:  r.bytes(),
		})
	}
	return dst
}

func readSNMap(r *wireReader, dst map[types.ColorID]types.SN) map[types.ColorID]types.SN {
	n := r.count(2)
	if r.err != nil {
		return dst
	}
	if dst == nil {
		if n == 0 {
			return nil
		}
		dst = make(map[types.ColorID]types.SN, n)
	} else {
		clear(dst)
	}
	for i := 0; i < n; i++ {
		k := types.ColorID(r.u32())
		dst[k] = types.SN(r.uvarint())
	}
	return dst
}

func readRecordsMap(r *wireReader, dst map[types.ColorID][]WireRecord) map[types.ColorID][]WireRecord {
	n := r.count(2)
	if r.err != nil {
		return dst
	}
	if dst == nil {
		if n == 0 {
			return nil
		}
		dst = make(map[types.ColorID][]WireRecord, n)
	} else {
		clear(dst)
	}
	for i := 0; i < n; i++ {
		k := types.ColorID(r.u32())
		dst[k] = readWireRecords(r, nil)
	}
	return dst
}

// ---- ownership helpers (frame-level decode copies aliased data) ----

// ownByteSlices copies every slice's bytes into one fresh contiguous
// buffer so the decoded value no longer references the frame buffer.
func ownByteSlices(ss [][]byte) [][]byte {
	if len(ss) == 0 {
		return ss
	}
	total := 0
	for _, s := range ss {
		total += len(s)
	}
	buf := make([]byte, 0, total)
	for i, s := range ss {
		n := len(buf)
		buf = append(buf, s...)
		ss[i] = buf[n:len(buf):len(buf)]
	}
	return ss
}

// ownRecordData copies each record's payload out of the frame buffer.
func ownRecordData(recs []WireRecord) {
	if len(recs) == 0 {
		return
	}
	total := 0
	for _, rec := range recs {
		total += len(rec.Data)
	}
	buf := make([]byte, 0, total)
	for i := range recs {
		n := len(buf)
		buf = append(buf, recs[i].Data...)
		recs[i].Data = buf[n:len(buf):len(buf)]
	}
}

// ---- per-connection frame decoding with scratch reuse ----

// FrameDecoder is DecodeFrame with reusable scratch state. A transport
// read loop owns one per connection: the alias-carrying hot types
// (AppendReq, AppendBatchReq, SubscribeResp) first decode into scratch
// messages — reusing their slice-header capacity across frames — and then
// copy out exactly once into right-sized owned values. This halves the
// decode-side allocation churn of the stateless DecodeFrame, which
// rebuilds the intermediate aliased headers for every frame. Returned
// messages are self-contained; the scratch retains only dead aliases
// that the next Decode overwrites. Not safe for concurrent use.
type FrameDecoder struct {
	appendReq AppendReq
	batchReq  AppendBatchReq
	subResp   SubscribeResp
	arena     []byte
}

// arenaChunk is the decoder's backing-buffer granularity. Owned record
// copies are carved from one shared chunk, so the per-frame backing
// allocation (and its zeroing) amortizes over ~dozens of frames. A chunk
// stays reachable until every message carved from it is dropped — bounded
// retention the handlers' short message lifetimes make irrelevant.
const arenaChunk = 64 << 10

// carve returns an empty owned slice with room for total bytes, cut off
// the decoder's current arena chunk.
func (d *FrameDecoder) carve(total int) []byte {
	if cap(d.arena)-len(d.arena) < total {
		size := arenaChunk
		if total > size {
			size = total
		}
		d.arena = make([]byte, 0, size)
	}
	n := len(d.arena)
	d.arena = d.arena[:n+total]
	return d.arena[n : n : n+total]
}

// Decode decodes one frame (sans length prefix) into a self-contained
// message, like DecodeFrame, but with scratch reuse.
func (d *FrameDecoder) Decode(b []byte) (types.NodeID, any, error) {
	r := wireReader{b: b}
	tag := r.u8()
	from := types.NodeID(r.u32())
	if r.err != nil {
		return 0, nil, r.err
	}
	body := r.b
	switch tag {
	case TagAppendReq:
		if err := d.appendReq.Decode(body); err != nil {
			return 0, nil, err
		}
		m := d.appendReq
		m.Records = d.copyByteSlices(m.Records)
		return from, m, nil
	case TagAppendBatchReq:
		if err := d.batchReq.Decode(body); err != nil {
			return 0, nil, err
		}
		m := d.batchReq
		sets := make([][][]byte, len(m.Sets))
		for i, s := range m.Sets {
			sets[i] = d.copyByteSlices(s)
		}
		m.Sets = sets
		return from, m, nil
	case TagSubscribeResp:
		if err := d.subResp.Decode(body); err != nil {
			return 0, nil, err
		}
		m := d.subResp
		m.Records = d.copyWireRecords(m.Records)
		return from, m, nil
	}
	msg, err := decodeBody(tag, body)
	if err != nil {
		return 0, nil, err
	}
	return from, msg, nil
}

// copyByteSlices returns a fresh right-sized header array whose elements
// share one arena-carved backing region (the scratch keeps its headers).
func (d *FrameDecoder) copyByteSlices(src [][]byte) [][]byte {
	if src == nil {
		return nil
	}
	total := 0
	for _, s := range src {
		total += len(s)
	}
	out := make([][]byte, len(src))
	buf := d.carve(total)
	for i, s := range src {
		n := len(buf)
		buf = append(buf, s...)
		out[i] = buf[n:len(buf):len(buf)]
	}
	return out
}

// copyWireRecords is copyByteSlices for subscription records.
func (d *FrameDecoder) copyWireRecords(src []WireRecord) []WireRecord {
	if src == nil {
		return nil
	}
	total := 0
	for _, rec := range src {
		total += len(rec.Data)
	}
	out := make([]WireRecord, len(src))
	buf := d.carve(total)
	for i, rec := range src {
		n := len(buf)
		buf = append(buf, rec.Data...)
		out[i] = rec
		out[i].Data = buf[n:len(buf):len(buf)]
	}
	return out
}
