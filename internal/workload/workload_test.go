package workload

import (
	"testing"
)

func TestPayloadDeterministic(t *testing.T) {
	a := Payload(128, 7)
	b := Payload(128, 7)
	c := Payload(128, 8)
	if len(a) != 128 {
		t.Fatalf("len = %d", len(a))
	}
	if string(a) != string(b) {
		t.Fatal("same seed produced different payloads")
	}
	if string(a) == string(c) {
		t.Fatal("different seeds produced identical payloads")
	}
}

func TestMixRatio(t *testing.T) {
	m := NewMix(75, 1)
	reads := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if m.NextIsRead() {
			reads++
		}
	}
	pct := 100 * float64(reads) / n
	if pct < 72 || pct > 78 {
		t.Fatalf("read ratio = %.1f%%, want ~75%%", pct)
	}
	if NewMix(0, 1).NextIsRead() {
		t.Fatal("0%% mix produced a read")
	}
	m100 := NewMix(100, 1)
	if !m100.NextIsRead() {
		t.Fatal("100%% mix produced a write")
	}
}

func TestUniformKeysInRange(t *testing.T) {
	u := NewUniformKeys(100, 1)
	seen := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		k := u.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) < 95 {
		t.Fatalf("uniform keys covered only %d/100", len(seen))
	}
	if string(Key(1)) != "key-000000000001" {
		t.Fatalf("key format: %q", Key(1))
	}
}

func TestSweepsNonEmpty(t *testing.T) {
	if len(RecordSizes) == 0 || len(BlockSizes) == 0 || len(ThreadCounts) == 0 || len(ReadPercents) == 0 {
		t.Fatal("sweep tables empty")
	}
}
