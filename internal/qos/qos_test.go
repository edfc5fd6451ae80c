package qos

import (
	"reflect"
	"testing"
	"time"

	"flexlog/internal/types"
)

// t0 is the stepped clock's origin: no test here reads the wall clock.
var t0 = time.Unix(1_700_000_000, 0)

func at(d time.Duration) time.Time { return t0.Add(d) }

// TestTokenBucketRefill steps a 10/s bucket of depth 5 through drain,
// partial refill, and the clamp at the burst.
func TestTokenBucketRefill(t *testing.T) {
	b := NewTokenBucket(10, 5)
	if ok, _ := b.Take(5, at(0)); !ok {
		t.Fatal("a new bucket is full: taking the whole burst must succeed")
	}
	ok, wait := b.Take(1, at(0))
	if ok || wait < 100*time.Millisecond || wait > 101*time.Millisecond {
		t.Fatalf("empty bucket: Take(1) = %v, %v; want false and ~100ms (one token at 10/s)", ok, wait)
	}
	if ok, _ := b.Take(1, at(50*time.Millisecond)); ok {
		t.Fatal("half a token refilled, yet a whole one was taken")
	}
	// The failed attempts above took nothing: 150 ms buys 1.5 tokens.
	if ok, _ := b.Take(1.5, at(150*time.Millisecond)); !ok {
		t.Fatal("1.5 tokens refilled in 150ms at 10/s")
	}
	// A long idle period fills the bucket to its burst and no further.
	if ok, _ := b.Take(5, at(time.Hour)); !ok {
		t.Fatal("an idle hour refills the whole burst")
	}
	if ok, _ := b.Take(0.5, at(time.Hour)); ok {
		t.Fatal("the refill was not clamped at the burst")
	}
	// A clock that steps backwards refills nothing.
	if ok, _ := b.Take(0.5, at(time.Minute)); ok {
		t.Fatal("tokens appeared from a backwards clock step")
	}
	// Burst below one token is raised to one.
	if ok, _ := NewTokenBucket(1, 0).Take(1, at(0)); !ok {
		t.Fatal("a bucket always holds at least one token")
	}
}

// TestTokenBucketOversizeRequest: a request larger than the burst is
// admitted against a full bucket and carried as debt — a tenant with Rate
// 50 and the client's default 64-record batches must not be throttled
// forever — and the debt is paid back before anyone else gets in.
func TestTokenBucketOversizeRequest(t *testing.T) {
	b := NewTokenBucket(50, 50)
	if ok, wait := b.Take(64, at(0)); !ok {
		t.Fatalf("Take(64) on a full 50-token bucket refused (retry in %v): it can never succeed", wait)
	}
	// 14 tokens of debt: one more record needs 15 tokens = 300 ms.
	ok, wait := b.Take(1, at(0))
	if ok || wait < 300*time.Millisecond || wait > 301*time.Millisecond {
		t.Fatalf("in debt: Take(1) = %v, %v; want false and ~300ms", ok, wait)
	}
	// The next oversize request needs a full bucket again: 64 tokens' worth
	// of time after the first (14 of debt + 50 of burst), no sooner.
	ok, wait = b.Take(64, at(0))
	if ok || wait < 1280*time.Millisecond || wait > 1281*time.Millisecond {
		t.Fatalf("in debt: Take(64) = %v, %v; want false and ~1.28s", ok, wait)
	}
	if ok, _ := b.Take(64, at(1270*time.Millisecond)); ok {
		t.Fatal("oversize request admitted before the bucket was full again")
	}
	if ok, _ := b.Take(64, at(wait)); !ok {
		t.Fatal("oversize request refused after waiting out its hint")
	}

	// The long-run rate holds: a sender of oversize batches that always
	// honors the hint gets rate x elapsed records, plus the one burst.
	b = NewTokenBucket(50, 50)
	var now time.Duration
	admitted := 0.0
	for now < 100*time.Second {
		ok, wait := b.Take(64, at(now))
		if ok {
			admitted += 64
		}
		now += wait
		if ok {
			now += time.Millisecond
		}
	}
	if limit := 50*now.Seconds() + 50 + 64; admitted > limit || admitted < 0.95*limit {
		t.Fatalf("admitted %.0f records in %v; want close to and at most %.0f", admitted, now, limit)
	}
}

// TestTokenBucketHintIsEnough: whoever waits out the retry-after hint is
// admitted — for whole, fractional, tiny and oversize requests alike.
func TestTokenBucketHintIsEnough(t *testing.T) {
	for _, c := range []struct{ rate, burst, drain, n float64 }{
		{50, 50, 36, 50},
		{50, 50, 50, 64},
		{3, 7, 7, 1},
		{1000, 10, 10, 0.001},
		{0.5, 1, 1, 1},
		{1e6, 1e6, 1e6, 333_333},
		{7, 3, 1.3, 2.9},
	} {
		b := NewTokenBucket(c.rate, c.burst)
		if ok, _ := b.Take(c.drain, at(0)); !ok {
			t.Fatalf("%+v: draining a full bucket failed", c)
		}
		ok, wait := b.Take(c.n, at(0))
		if ok {
			t.Fatalf("%+v: Take(n) succeeded on a drained bucket", c)
		}
		if wait < time.Microsecond || wait%time.Microsecond != 0 {
			t.Fatalf("%+v: hint %v is not a positive number of microseconds", c, wait)
		}
		if ok, _ := b.Take(c.n, at(wait)); !ok {
			t.Fatalf("%+v: refused after waiting out the %v hint", c, wait)
		}
	}
}

// TestAdmission covers the paths that admit without a bucket (nil
// receiver, tenant without a rate) and the default burst.
func TestAdmission(t *testing.T) {
	if a := NewAdmission(nil); a != nil {
		t.Fatal("no tenants: want a nil Admission")
	}
	if a := NewAdmission([]TenantConfig{{ID: 1, Weight: 3}}); a != nil {
		t.Fatal("no tenant declares a rate: want a nil Admission")
	}
	var none *Admission
	if ok, wait := none.Admit(1, 1<<20, at(0)); !ok || wait != 0 {
		t.Fatal("a nil Admission admits everything")
	}

	a := NewAdmission([]TenantConfig{
		{ID: 1, Rate: 10},           // burst defaults to one second of rate
		{ID: 2, Rate: 10, Burst: 2}, // explicit burst
		{ID: 3},                     // unlimited
	})
	for _, tenant := range []types.TenantID{types.DefaultTenant, 3, 99} {
		if ok, _ := a.Admit(tenant, 1<<20, at(0)); !ok {
			t.Fatalf("tenant %d has no rate and must always be admitted", tenant)
		}
	}
	if ok, _ := a.Admit(1, 10, at(0)); !ok {
		t.Fatal("tenant 1: default burst is one second of rate (10 records)")
	}
	if ok, wait := a.Admit(1, 1, at(0)); ok || wait <= 0 {
		t.Fatalf("tenant 1 over its burst: Admit = %v, %v; want a refusal with a hint", ok, wait)
	}
	if ok, _ := a.Admit(2, 2, at(0)); !ok {
		t.Fatal("tenant 2: explicit burst of 2")
	}
	if ok, _ := a.Admit(2, 1, at(0)); ok {
		t.Fatal("tenant 2 admitted past its burst")
	}
	if ok, _ := a.Admit(2, 1, at(time.Second)); !ok {
		t.Fatal("tenant 2 refused after a second of refill")
	}
}

func TestWeightsAndColorMap(t *testing.T) {
	if Weights(nil) != nil || ColorMap(nil) != nil {
		t.Fatal("no tenants: want nil maps")
	}
	tenants := []TenantConfig{
		{ID: 1, Weight: 4, Colors: []types.ColorID{1, 2}},
		{ID: 2, Colors: []types.ColorID{3}},
		{ID: 3, Weight: 1},
	}
	if got, want := Weights(tenants), (map[types.TenantID]uint32{1: 4, 2: 1, 3: 1}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Weights = %v, want %v (weight 0 means 1)", got, want)
	}
	if got, want := ColorMap(tenants), (map[types.ColorID]types.TenantID{1: 1, 2: 1, 3: 2}); !reflect.DeepEqual(got, want) {
		t.Fatalf("ColorMap = %v, want %v", got, want)
	}
	if ColorMap(tenants[2:]) != nil {
		t.Fatal("no tenant claims a color: want a nil ColorMap")
	}
}
