package proto

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// FuzzCodecRoundTrip feeds arbitrary bytes to the frame decoder and, for
// every input that decodes, checks the codec's fixed point: one
// decode→encode round normalizes the frame (varints may arrive
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
		from, msg, err := DecodeFrame(data)
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
// all tags plus retired and invalid ones: any outcome but a panic or a runaway
// allocation is acceptable.
func FuzzCodecDecodeNoPanic(f *testing.F) {
	f.Add(byte(1), []byte{})
	f.Add(byte(13), []byte{0x03, 0x0b, 0x02, 0x01, 0x03, 0x01, 0x02, 0x03})
	f.Add(byte(255), []byte{0x00})
	f.Fuzz(func(t *testing.T, tag byte, body []byte) {
		_, _ = decodeBody(tag, body)
	})
}
