package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"flexlog/internal/types"
)

// sameAsDecodeFrame decodes one frame body through fd (the decoder the TCP
// read loop runs) and through a fresh DecodeFrame, and fails t unless both
// reject it or both return the same sender and deep-equal messages. It
// returns fd's result.
func sameAsDecodeFrame(t *testing.T, fd *FrameDecoder, body []byte) (types.NodeID, any, error) {
	t.Helper()
	want, wantMsg, wantErr := DecodeFrame(body)
	from, msg, err := fd.Decode(body)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("FrameDecoder error %v, DecodeFrame error %v, on %x", err, wantErr, body)
	}
	if err == nil && (from != want || !reflect.DeepEqual(msg, wantMsg)) {
		t.Fatalf("on %x:\n FrameDecoder = %v %#v\n DecodeFrame  = %v %#v", body, from, msg, want, wantMsg)
	}
	return from, msg, err
}

// FuzzCodecRoundTrip feeds arbitrary bytes to both frame decoders, which
// must agree, and, for every input that decodes, checks the codec's fixed
// point: one decode→encode round normalizes the frame (varints may arrive
// non-minimal, map keys in any order), after which decode→encode must be
// byte-stable. Seeded with every golden frame so the corpus covers all
// message types from run one, and with the last images of the retired
// tags, which must be rejected like any unknown tag.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, g := range goldenFrames {
		frame := encodeFrame(f, g.msg)
		f.Add(frame[4:])
	}
	for _, h := range retiredFrames {
		frame, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		from, msg, err := sameAsDecodeFrame(t, new(FrameDecoder), data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		e1, err := AppendFrame(nil, from, msg)
		if err != nil {
			t.Fatalf("re-encoding decoded message: %v", err)
		}
		from2, msg2, err := DecodeFrame(e1[4:])
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if from2 != from {
			t.Fatalf("sender drifted: %v → %v", from, from2)
		}
		e2, err := AppendFrame(nil, from2, msg2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encoding not stable after normalization:\n e1=%x\n e2=%x", e1, e2)
		}
	})
}

// FuzzCodecDecodeNoPanic hammers every typed decoder with raw bytes under
// all tags plus retired and invalid ones, through both frame decoders:
// any outcome but a panic, a runaway allocation or the two decoders
// disagreeing is acceptable.
func FuzzCodecDecodeNoPanic(f *testing.F) {
	f.Add(byte(1), []byte{})
	f.Add(byte(13), []byte{0x03, 0x0b, 0x02, 0x01, 0x03, 0x01, 0x02, 0x03})
	f.Add(byte(255), []byte{0x00})
	f.Fuzz(func(t *testing.T, tag byte, body []byte) {
		frame := append([]byte{tag, 0x01}, body...) // sender 1
		sameAsDecodeFrame(t, new(FrameDecoder), frame)
	})
}

// FuzzFrameDecoderReuse cuts the input into frames at their length
// prefixes, as the TCP read loop does (a prefix past the end takes the
// rest), and decodes them in order through one FrameDecoder, each from its
// own read buffer that is overwritten once decoded. Each result must equal
// a fresh DecodeFrame of the same bytes when it is returned, and still
// after every later frame has reused the scratch: no state leaks from one
// frame into the next, and no result aliases its buffer or the scratch.
// Seeded with the golden frames concatenated, with them followed by
// everyMessage's, so each scratch type decodes twice with different
// contents, and with the scratch types shrinking to empty lists, which
// must come out nil as from a fresh decode.
func FuzzFrameDecoderReuse(f *testing.F) {
	var all []byte
	for _, g := range goldenFrames {
		all = append(all, encodeFrame(f, g.msg)...)
	}
	f.Add(all)
	for _, msg := range everyMessage() {
		all = append(all, encodeFrame(f, msg)...)
	}
	f.Add(all)
	var shrink []byte
	for _, msg := range []any{
		AppendBatchReq{Sets: [][][]byte{{[]byte("a"), []byte("b")}}},
		AppendBatchReq{Sets: [][][]byte{{}}},
		AppendBatchReq{},
		SubscribeResp{Records: []WireRecord{{Token: 1, Data: []byte("r")}}},
		SubscribeResp{},
	} {
		shrink = append(shrink, encodeFrame(f, msg)...)
	}
	f.Add(shrink)
	f.Fuzz(func(t *testing.T, data []byte) {
		var fd FrameDecoder
		var frames [][]byte
		var got []any
		for len(data) >= 4 {
			n := min(int(binary.LittleEndian.Uint32(data)), len(data)-4)
			frame := data[4 : 4+n]
			data = data[4+n:]
			buf := bytes.Clone(frame)
			if _, msg, err := sameAsDecodeFrame(t, &fd, buf); err == nil {
				frames, got = append(frames, frame), append(got, msg)
			}
			for i := range buf {
				buf[i] = 0xAA
			}
		}
		for i, frame := range frames {
			if _, want, _ := DecodeFrame(frame); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("frame %d of %d changed after later frames:\n got  %#v\n want %#v", i, len(frames), got[i], want)
			}
		}
	})
}
