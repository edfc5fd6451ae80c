package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"flexlog/internal/types"
)

// encodeFrame is a test helper that frames msg from the golden sender.
func encodeFrame(t testing.TB, msg any) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, goldenFrom, msg)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestCodecRoundTripSemantics spot-checks that frame-level decode returns
// self-contained values with the fields intact (the golden test already
// pins the byte images; this guards the decoded-Go-value side).
func TestCodecRoundTripSemantics(t *testing.T) {
	req := AppendReq{Color: 7, Token: types.MakeToken(3, 4),
		Records: [][]byte{[]byte("one"), []byte("two")}, Client: 12}
	frame := encodeFrame(t, req)
	_, msg, err := DecodeFrame(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(AppendReq)
	if got.Color != req.Color || got.Token != req.Token || got.Client != req.Client {
		t.Fatalf("decoded = %+v", got)
	}
	if len(got.Records) != 2 || string(got.Records[0]) != "one" || string(got.Records[1]) != "two" {
		t.Fatalf("records = %q", got.Records)
	}
	// Self-containment: scribbling over the frame must not reach the
	// decoded message (DecodeFrame copies aliased bytes out).
	for i := range frame {
		frame[i] = 0xFF
	}
	if string(got.Records[0]) != "one" {
		t.Fatal("decoded message aliases the frame buffer")
	}

	batch := AppendBatchReq{Color: 1, Token: 9,
		Sets: [][][]byte{{[]byte("a")}, {[]byte("bb"), []byte("c")}}, Client: 2}
	frame = encodeFrame(t, batch)
	_, msg, err = DecodeFrame(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	gb := msg.(AppendBatchReq)
	if gb.NRecords() != 3 || string(gb.Sets[1][0]) != "bb" {
		t.Fatalf("batch = %+v", gb)
	}
}

// TestCodecDecodeReuse checks the zero-alloc reuse contract: decoding
// into a message that already holds capacity reuses it.
func TestCodecDecodeReuse(t *testing.T) {
	frameA := encodeFrame(t, AppendReq{Color: 1, Records: [][]byte{[]byte("aaaa"), []byte("bb")}})
	frameB := encodeFrame(t, AppendReq{Color: 2, Records: [][]byte{[]byte("c")}})
	body := func(frame []byte) []byte {
		r := wireReader{b: frame[4:]}
		r.u8()  // tag
		r.u32() // from
		return r.b
	}
	var msg AppendReq
	if err := msg.Decode(body(frameA)); err != nil {
		t.Fatal(err)
	}
	cap0 := cap(msg.Records)
	if err := msg.Decode(body(frameB)); err != nil {
		t.Fatal(err)
	}
	if len(msg.Records) != 1 || string(msg.Records[0]) != "c" {
		t.Fatalf("reused decode = %q", msg.Records)
	}
	if cap(msg.Records) != cap0 {
		t.Fatalf("records capacity not reused: %d → %d", cap0, cap(msg.Records))
	}
}

// TestCodecRejectsCorruptFrames drives malformed input through every
// decode guard: truncation, trailing bytes, bogus counts, bad bools.
func TestCodecRejectsCorruptFrames(t *testing.T) {
	frame := encodeFrame(t, AppendReq{Color: 1, Records: [][]byte{[]byte("abc")}, Client: 2})
	body := frame[4:]
	// Truncations at every boundary must error, never panic.
	for n := 0; n < len(body); n++ {
		if _, _, err := DecodeFrame(body[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Trailing garbage is rejected (frames must be consumed exactly).
	if _, _, err := DecodeFrame(append(bytes.Clone(body), 0x00)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Unknown tag.
	if _, _, err := DecodeFrame([]byte{200, 1}); err == nil {
		t.Error("unknown tag accepted")
	}
	// A count that cannot fit the remaining bytes must fail fast instead
	// of allocating.
	huge := []byte{TagAppendReq, 1, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized count: %v", err)
	}
	// Strict booleans: 2 is not a bool.
	rr := encodeFrame(t, ReadResp{ID: 1, Found: true})
	rb := bytes.Clone(rr[4:])
	rb[len(rb)-2] = 2 // Found byte
	if _, _, err := DecodeFrame(rb); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bool=2 accepted: %v", err)
	}
}

// TestCodecFrameSizeLimit checks the MaxFrame guard on encode.
func TestCodecFrameSizeLimit(t *testing.T) {
	big := ReadResp{Data: make([]byte, MaxFrame+16)}
	if _, err := AppendFrame(nil, 1, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
}

// TestCodecUnknownMessageFails: a Go type with no wire tag cannot be
// framed. The typed error names the type, and b comes back unchanged.
func TestCodecUnknownMessageFails(t *testing.T) {
	type alien struct{ A, B int }
	b, err := AppendFrame([]byte("prefix"), goldenFrom, alien{A: 1, B: 2})
	if !errors.Is(err, ErrUnknownMessage) || !strings.Contains(err.Error(), "alien") {
		t.Fatalf("AppendFrame(alien) error = %v, want ErrUnknownMessage naming the type", err)
	}
	if string(b) != "prefix" {
		t.Fatalf("AppendFrame(alien) left %q, want the input unchanged", b)
	}
}

// TestCodecFrameLengthPrefix checks the length prefix covers exactly the
// bytes after itself, little-endian.
func TestCodecFrameLengthPrefix(t *testing.T) {
	frame := encodeFrame(t, SyncDone{ID: 1, From: 2})
	n := binary.LittleEndian.Uint32(frame[:4])
	if int(n) != len(frame)-4 {
		t.Fatalf("length prefix %d, frame body %d", n, len(frame)-4)
	}
}

// TestFrameDecoderMatchesDecodeFrame drives the scratch-reusing decoder
// over every golden frame twice and checks it returns the same values as
// the stateless DecodeFrame, and that earlier results stay intact while
// later frames reuse the scratch (self-containment under reuse).
func TestFrameDecoderMatchesDecodeFrame(t *testing.T) {
	var fd FrameDecoder
	for pass := 0; pass < 2; pass++ {
		for _, g := range goldenFrames {
			frame := encodeFrame(t, g.msg)
			from, got, err := fd.Decode(frame[4:])
			if err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
			if from != goldenFrom {
				t.Fatalf("%s: from = %v", g.name, from)
			}
			_, want, err := DecodeFrame(frame[4:])
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Fatalf("%s: FrameDecoder = %+v, DecodeFrame = %+v", g.name, got, want)
			}
		}
	}
	// Reuse safety: a decoded message must survive the scratch being
	// overwritten by a later frame and the frame buffer being scribbled.
	f1 := encodeFrame(t, AppendReq{Color: 1, Records: [][]byte{[]byte("first"), []byte("xx")}})
	_, m1, err := fd.Decode(f1[4:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		f1[i] = 0xAA
	}
	f2 := encodeFrame(t, AppendReq{Color: 2, Records: [][]byte{[]byte("second-longer-record")}})
	if _, _, err := fd.Decode(f2[4:]); err != nil {
		t.Fatal(err)
	}
	got := m1.(AppendReq)
	if len(got.Records) != 2 || string(got.Records[0]) != "first" {
		t.Fatalf("earlier decode corrupted by scratch reuse: %q", got.Records)
	}
}
