package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"flexlog/internal/proto"
	"flexlog/internal/types"
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

// FuzzBatchSpans feeds arbitrary bytes to the batch framing decoder, as a
// payload and as a frame body. As a payload, every span batchSpans returns
// lies inside it. A frame body that either TCP frame decoder decodes to an
// AppendBatchReq carries an entry, and batchSpans over it returns exactly
// the decoded records, in order: the decoders lay records out as PutEntry
// reads them. Seeded with append frames and the entries decoded from them.
func FuzzBatchSpans(f *testing.F) {
	for _, m := range []proto.AppendBatchReq{
		{Sets: [][][]byte{{[]byte("a"), {}, []byte("ccc")}}},
		{Color: 1, Token: 9, Sets: [][][]byte{{[]byte("a")}, {}, {[]byte("bb"), []byte("c")}}, Client: 2},
		{Sets: [][][]byte{{}}},
		{},
	} {
		frame, err := proto.AppendFrame(nil, 1, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
		if _, msg, err := proto.DecodeFrame(frame[4:]); err == nil && msg.(proto.AppendBatchReq).Entry != nil {
			f.Add(msg.(proto.AppendBatchReq).Entry[entryHeaderSize:])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if spans, err := batchSpans(data); err == nil {
			for _, sp := range spans {
				if int(sp.off)+int(sp.len) > len(data) {
					t.Fatalf("span [%d,%d) beyond payload %d", sp.off, sp.off+sp.len, len(data))
				}
			}
		}
		var fd proto.FrameDecoder
		for _, decode := range []func([]byte) (types.NodeID, any, error){proto.DecodeFrame, fd.Decode} {
			_, msg, err := decode(data)
			m, ok := msg.(proto.AppendBatchReq)
			if err != nil || !ok {
				return
			}
			var want [][]byte
			for _, set := range m.Sets {
				want = append(want, set...)
			}
			if m.Entry == nil {
				if len(want) != 0 {
					t.Fatalf("%d decoded records and no entry", len(want))
				}
				continue
			}
			payload := m.Entry[entryHeaderSize:]
			spans, err := batchSpans(payload)
			if err != nil || len(spans) != len(want) {
				t.Fatalf("entry spans %v (%v), want %d records", spans, err, len(want))
			}
			for i, sp := range spans {
				if got := payload[sp.off : sp.off+sp.len]; !bytes.Equal(got, want[i]) {
					t.Fatalf("record %d: entry holds %q, decoded %q", i, got, want[i])
				}
			}
		}
	})
}
