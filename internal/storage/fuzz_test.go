package storage

import (
	"testing"
)

// FuzzScanSegment feeds arbitrary bytes to the segment scanner: it must
// reject or parse, never panic or over-read.
func FuzzScanSegment(f *testing.F) {
	// Seeds: valid empty segment, truncated, and a real single-entry image.
	valid := make([]byte, 64)
	valid[0] = segHeaderSize
	valid[8] = 1
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{16, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	st, err := Open(TestConfig())
	if err == nil {
		st.Put(1, tok(1), payload(1))
		img := make([]byte, 256)
		st.pm.Read(st.slots[0], img)
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		_ = scanSegment(raw, func(off uint64, e decodedEntry, data []byte) error {
			_ = data
			return nil
		})
	})
}

// FuzzBatchSpans feeds arbitrary payloads to the batch framing decoder.
func FuzzBatchSpans(f *testing.F) {
	f.Add(encodeBatch([][]byte{[]byte("a"), {}, []byte("ccc")}))
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, payload []byte) {
		spans, err := batchSpans(payload)
		if err != nil {
			return
		}
		for _, sp := range spans {
			if int(sp.off)+int(sp.len) > len(payload) {
				t.Fatalf("span [%d,%d) beyond payload %d", sp.off, sp.off+sp.len, len(payload))
			}
		}
	})
}
