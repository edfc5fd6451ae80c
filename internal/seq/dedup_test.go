package seq

import "testing"

// TestDedupStripeRingStaysCompact: the FIFO ring behind a stripe is
// compacted as entries are evicted, so it stays proportional to the live
// entries however many keys pass through, and eviction stays oldest-first.
func TestDedupStripeRingStaysCompact(t *testing.T) {
	const budget = 16
	st := dedupStripe[int, int]{m: make(map[int]int)}
	for k := 0; k < 100_000; k++ {
		st.remember(k, k, budget)
		if len(st.m) > budget || len(st.order) > 2*budget+1 {
			t.Fatalf("after %d inserts: %d entries, ring of %d; budget %d", k+1, len(st.m), len(st.order), budget)
		}
	}
	for k := 100_000 - budget; k < 100_000; k++ {
		if v, ok := st.m[k]; !ok || v != k {
			t.Fatalf("recent key %d evicted before older ones", k)
		}
	}
}
