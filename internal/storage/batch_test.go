package storage

import (
	"bytes"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
	"testing/quick"

	"flexlog/internal/types"
)

func TestPutBatchCommitRange(t *testing.T) {
	st := newTestStore(t)
	records := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	if err := st.PutBatch(colorA, tok(1), records); err != nil {
		t.Fatal(err)
	}
	// Per Alg. 1, the sequencer returns the LAST SN of the batch.
	if err := st.Commit(tok(1), sn(7)); err != nil {
		t.Fatal(err)
	}
	for i, want := range records {
		got, err := st.Get(colorA, sn(5+i))
		if err != nil {
			t.Fatalf("get sn(%d): %v", 5+i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d = %q, want %q", i, got, want)
		}
	}
	if st.MaxSN(colorA) != sn(7) {
		t.Fatalf("maxSN = %v", st.MaxSN(colorA))
	}
	last, ok := st.TokenSN(tok(1))
	if !ok || last != sn(7) {
		t.Fatalf("TokenSN = %v, %v", last, ok)
	}
}

func TestPutBatchEmptyRejected(t *testing.T) {
	st := newTestStore(t)
	if err := st.PutBatch(colorA, tok(1), nil); err == nil {
		t.Fatal("empty batch should be rejected")
	}
}

func TestCommitBatchSNTooSmall(t *testing.T) {
	st := newTestStore(t)
	st.PutBatch(colorA, tok(1), [][]byte{[]byte("a"), []byte("b"), []byte("c")})
	// lastSN counter 2 cannot hold a 3-record batch starting at counter >= 0.
	if err := st.Commit(tok(1), types.MakeSN(1, 2)); err == nil {
		t.Fatal("undersized SN should be rejected")
	}
}

func TestBatchPartialTrim(t *testing.T) {
	st := newTestStore(t)
	st.PutBatch(colorA, tok(1), [][]byte{[]byte("a"), []byte("b"), []byte("c")})
	st.Commit(tok(1), sn(3)) // occupies sns 1..3
	st.Trim(colorA, sn(2))
	if _, err := st.Get(colorA, sn(1)); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("sn1 after trim: %v", err)
	}
	if _, err := st.Get(colorA, sn(2)); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("sn2 after trim: %v", err)
	}
	got, err := st.Get(colorA, sn(3))
	if err != nil || string(got) != "c" {
		t.Fatalf("sn3 after trim = %q, %v", got, err)
	}
}

func TestBatchSurvivesRecovery(t *testing.T) {
	st, _ := Open(smallConfig())
	st.PutBatch(colorA, tok(1), [][]byte{[]byte("aa"), []byte("bb")})
	st.Commit(tok(1), sn(2))
	st.PutBatch(colorA, tok(2), [][]byte{[]byte("cc"), []byte("dd")}) // uncommitted
	st.Crash()
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"aa", "bb"} {
		got, err := st.Get(colorA, sn(i+1))
		if err != nil || string(got) != want {
			t.Fatalf("sn(%d) = %q, %v", i+1, got, err)
		}
	}
	un := st.Uncommitted()
	if len(un) != 1 || un[0].Token != tok(2) || len(un[0].Records) != 2 {
		t.Fatalf("uncommitted after recovery = %+v", un)
	}
	if string(un[0].Records[1]) != "dd" {
		t.Fatalf("uncommitted payload = %q", un[0].Records[1])
	}
}

// Property: batch framing round-trips arbitrary record sets: the spans
// sealEntry notes for the entry frameEntry laid out are the ones
// recovery's batchSpans parses back, and each holds its record.
func TestBatchFramingRoundTripProperty(t *testing.T) {
	f := func(recs [][]byte) bool {
		if len(recs) == 0 {
			recs = [][]byte{{}}
		}
		buf := frameEntry(recs)
		framed, err := sealEntry(buf, colorA, tok(1))
		if err != nil || len(framed) != len(recs) {
			return false
		}
		payload := buf[entryHeaderSize:]
		spans, err := batchSpans(payload)
		if err != nil || !reflect.DeepEqual(spans, framed) {
			return false
		}
		for i, sp := range spans {
			if !bytes.Equal(payload[sp.off:sp.off+sp.len], recs[i]) {
				return false
			}
		}
		e := decodeEntryHeader(buf)
		return e.kind == entryKindRecord && e.dataLen == len(payload) && e.crc == crc32.ChecksumIEEE(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSpansCorrupt(t *testing.T) {
	if _, err := batchSpans([]byte{1, 2}); err == nil {
		t.Error("short payload should fail")
	}
	// count=1 but no length field
	if _, err := batchSpans([]byte{1, 0, 0, 0}); err == nil {
		t.Error("missing length should fail")
	}
	// length larger than payload
	if _, err := batchSpans([]byte{1, 0, 0, 0, 255, 0, 0, 0}); err == nil {
		t.Error("overlong record should fail")
	}
}

func TestZeroLengthRecordInBatch(t *testing.T) {
	st := newTestStore(t)
	if err := st.PutBatch(colorA, tok(1), [][]byte{{}, []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(tok(1), sn(2)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(colorA, sn(1))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty record = %q, %v", got, err)
	}
}
