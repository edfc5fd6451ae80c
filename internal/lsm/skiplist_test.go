package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSkipListSetGet(t *testing.T) {
	s := newSkipList(1)
	s.set([]byte("b"), []byte("2"))
	s.set([]byte("a"), []byte("1"))
	s.set([]byte("c"), []byte("3"))
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		got, ok := s.get([]byte(k))
		if !ok || string(got) != want {
			t.Fatalf("get(%s) = %q, %v", k, got, ok)
		}
	}
	if _, ok := s.get([]byte("d")); ok {
		t.Fatal("missing key reported present")
	}
	if n := size(s); n != 3 {
		t.Fatalf("length = %d", n)
	}
}

func TestSkipListReplace(t *testing.T) {
	s := newSkipList(1)
	s.set([]byte("k"), []byte("old"))
	s.set([]byte("k"), []byte("newer"))
	got, _ := s.get([]byte("k"))
	if string(got) != "newer" {
		t.Fatalf("get = %q", got)
	}
	if n := size(s); n != 1 {
		t.Fatalf("length after replace = %d", n)
	}
}

func TestSkipListTombstone(t *testing.T) {
	s := newSkipList(1)
	s.set([]byte("k"), nil)
	got, ok := s.get([]byte("k"))
	if !ok || got != nil {
		t.Fatalf("tombstone = %q, %v", got, ok)
	}
}

func TestSkipListOrderedIteration(t *testing.T) {
	s := newSkipList(7)
	r := rand.New(rand.NewSource(2))
	want := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%06d", r.Intn(100000))
		s.set([]byte(k), []byte("v"))
		want = append(want, k)
	}
	sort.Strings(want)
	// Deduplicate (set replaces).
	uniq := want[:0]
	for i, k := range want {
		if i == 0 || k != want[i-1] {
			uniq = append(uniq, k)
		}
	}
	var got []string
	s.each(func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != len(uniq) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(uniq))
	}
	for i := range got {
		if got[i] != uniq[i] {
			t.Fatalf("order mismatch at %d: %s vs %s", i, got[i], uniq[i])
		}
	}
}

func TestSkipListEarlyStop(t *testing.T) {
	s := newSkipList(1)
	for i := 0; i < 10; i++ {
		s.set([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	count := 0
	s.each(func(k, v []byte) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop iterated %d", count)
	}
}

// Property: skip list matches a sorted model map.
func TestSkipListModelProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		s := newSkipList(3)
		model := make(map[string]string)
		for i, k := range keys {
			key := fmt.Sprintf("%03d", k)
			val := fmt.Sprintf("v%d", i)
			s.set([]byte(key), []byte(val))
			model[key] = val
		}
		if size(s) != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := s.get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		prev := ""
		okOrder := true
		s.each(func(k, v []byte) bool {
			if string(k) <= prev && prev != "" {
				okOrder = false
				return false
			}
			prev = string(k)
			return true
		})
		return okOrder
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFilterBasics(t *testing.T) {
	b := newBloomFilter(100)
	for i := 0; i < 100; i++ {
		b.add(key(i))
	}
	for i := 0; i < 100; i++ {
		if !b.mayContain(key(i)) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	// False-positive rate should be low.
	fp := 0
	for i := 1000; i < 2000; i++ {
		if b.mayContain(key(i)) {
			fp++
		}
	}
	if fp > 100 { // 10% — way above the ~1% design point
		t.Fatalf("false positive rate too high: %d/1000", fp)
	}
}

func TestBloomFilterNeverFalseNegativeProperty(t *testing.T) {
	f := func(keys [][]byte) bool {
		b := newBloomFilter(len(keys))
		for _, k := range keys {
			b.add(k)
		}
		for _, k := range keys {
			if !b.mayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomRoundTripSerialization(t *testing.T) {
	b := newBloomFilter(10)
	b.add([]byte("x"))
	restored := bloomFromBits(b.bits, b.k)
	if !restored.mayContain([]byte("x")) {
		t.Fatal("restored filter lost key")
	}
}

func TestSSTableRoundTrip(t *testing.T) {
	dev := newTestDevice()
	var keys, values [][]byte
	for i := 0; i < 100; i++ {
		keys = append(keys, key(i))
		values = append(values, value(i))
	}
	tbl, err := writeSSTable(dev, "t1", keys, values)
	if err != nil {
		t.Fatal(err)
	}
	// Read through the writer handle.
	for i := 0; i < 100; i++ {
		v, found, err := tbl.get(key(i))
		if err != nil || !found || !bytes.Equal(v, value(i)) {
			t.Fatalf("writer-handle get %d = %q, found=%v err=%v", i, v, found, err)
		}
	}
	// And through a reopened handle.
	tbl2, err := openSSTable(dev, "t1")
	if err != nil {
		t.Fatal(err)
	}
	// The footer records the entry count.
	sz, _ := dev.Size("t1")
	footer := make([]byte, footerSize)
	if err := dev.ReadAt("t1", sz-footerSize, footer); err != nil || binary.LittleEndian.Uint64(footer[24:32]) != 100 {
		t.Fatalf("footer %x (%v), want a count of 100", footer, err)
	}
	for i := 0; i < 100; i++ {
		v, found, err := tbl2.get(key(i))
		if err != nil || !found || !bytes.Equal(v, value(i)) {
			t.Fatalf("reopened get %d failed: %q %v %v", i, v, found, err)
		}
	}
	if _, found, _ := tbl2.get([]byte("zzz")); found {
		t.Fatal("phantom key found")
	}
	// Key below the table's range.
	if _, found, _ := tbl2.get([]byte("a")); found {
		t.Fatal("phantom low key found")
	}
}

func TestSSTableEach(t *testing.T) {
	dev := newTestDevice()
	tbl, _ := writeSSTable(dev, "t",
		[][]byte{[]byte("a"), []byte("b")},
		[][]byte{[]byte("1"), []byte("2")})
	var got []string
	tbl.each(func(k, v []byte) error {
		got = append(got, fmt.Sprintf("%s=%s", k, v))
		return nil
	})
	if len(got) != 2 || got[0] != "a=1" || got[1] != "b=2" {
		t.Fatalf("each = %v", got)
	}
}

func TestEmptySSTableRejected(t *testing.T) {
	dev := newTestDevice()
	if _, err := writeSSTable(dev, "t", nil, nil); err == nil {
		t.Fatal("empty table should be rejected")
	}
}
