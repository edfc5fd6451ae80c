package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
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

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder,
// both as they are and with a valid CRC trailer appended (random bytes
// almost never pass the CRC, and the parser behind it is what must hold).
// decodeCheckpoint must reject or parse without panicking, allocate in
// proportion to the blob and not to the counts inside it, and every image
// it returns must survive encode → decode unchanged.
func FuzzDecodeCheckpoint(f *testing.F) {
	st, err := Open(smallConfig())
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i < 30; i++ {
		st.Put(colorA, tok(i), payload(i))
		st.Commit(tok(i), sn(i))
	}
	st.Trim(colorA, sn(5))
	for st.ForceEvict() == nil {
	}
	if err := st.ForceCheckpoint(); err != nil {
		f.Fatal(err)
	}
	blob, err := st.readBlob(ckptName(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	flipped := bytes.Clone(blob)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, raw []byte) {
		withCRC := binary.LittleEndian.AppendUint32(bytes.Clone(raw), crc32.ChecksumIEEE(raw))
		for _, in := range [][]byte{raw, withCRC} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			img, err := decodeCheckpoint(in)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(in))+64<<10 {
				t.Fatalf("decoding %d bytes allocated %d", len(in), grew)
			}
			if err != nil {
				continue
			}
			again, err := decodeCheckpoint(encodeCheckpoint(img))
			if err != nil {
				t.Fatalf("re-decoding an encoded image: %v", err)
			}
			if !reflect.DeepEqual(img, again) {
				t.Fatalf("decode(encode(img)) = %+v, want %+v", again, img)
			}
		}
	})
}

// FuzzBatchSpans feeds arbitrary payloads to the batch framing decoder.
func FuzzBatchSpans(f *testing.F) {
	entry, _ := frameEntry(0, 1, [][]byte{[]byte("a"), {}, []byte("ccc")})
	f.Add(entry[entryHeaderSize:])
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
