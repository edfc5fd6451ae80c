package core

import (
	"testing"

	"flexlog/internal/types"
)

// TestPlacementCacheRuns: every SN of a remembered batch resolves to its
// shard, SNs never remembered do not, batches remembered out of SN order
// still resolve, and past the bound the oldest batches go first while the
// cache never covers more than placeCacheLimit records.
func TestPlacementCacheRuns(t *testing.T) {
	var p placeCache
	sn := func(i int) types.SN { return types.MakeSN(1, uint32(i)) }
	// Batches of 64 at SNs 1…64, 129…192, then 65…128 late.
	p.remember(1, sn(64), 64, 7)
	p.remember(1, sn(192), 64, 8)
	p.remember(1, sn(128), 64, 9)
	p.remember(2, sn(10), 10, 3)
	for i := 1; i <= 192; i++ {
		want := types.ShardID(7)
		switch {
		case i > 128:
			want = 8
		case i > 64:
			want = 9
		}
		if got, ok := p.lookup(1, sn(i)); !ok || got != want {
			t.Fatalf("lookup(1, %d) = %v, %v; want %v", i, got, ok, want)
		}
	}
	for _, miss := range []struct {
		color types.ColorID
		sn    types.SN
	}{{1, sn(193)}, {1, types.InvalidSN}, {2, sn(11)}, {3, sn(1)}} {
		if got, ok := p.lookup(miss.color, miss.sn); ok {
			t.Fatalf("lookup(%v, %v) = %v for an SN never remembered", miss.color, miss.sn, got)
		}
	}

	// Fill far past the bound with 64-record batches on color 1.
	const batches = 3 * placeCacheLimit / 64
	for b := 0; b < batches; b++ {
		last := 1000 + (b+1)*64
		p.remember(1, sn(last), 64, types.ShardID(b))
		if p.records > placeCacheLimit {
			t.Fatalf("after batch %d the cache covers %d records, above %d", b, p.records, placeCacheLimit)
		}
	}
	// The newest batches survive whole; the oldest (and color 2's, older
	// still) are gone.
	for b := batches - placeCacheLimit/64; b < batches; b++ {
		for i := 1; i <= 64; i++ {
			s := sn(1000 + b*64 + i)
			if got, ok := p.lookup(1, s); !ok || got != types.ShardID(b) {
				t.Fatalf("recent batch %d, SN %v: %v, %v", b, s, got, ok)
			}
		}
	}
	for _, old := range []types.SN{sn(1), sn(1001)} {
		if _, ok := p.lookup(1, old); ok {
			t.Fatalf("old SN %v still cached", old)
		}
	}
	if _, ok := p.lookup(2, sn(5)); ok {
		t.Fatal("color 2's batch, the oldest, survived")
	}
}
