package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	const rate, gens = 10000, 2
	window := 3 * time.Second
	a := buildSchedule(7, 0, gens, rate, window)
	if b := buildSchedule(7, 0, gens, rate, window); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule")
	}
	if b := buildSchedule(8, 0, gens, rate, window); reflect.DeepEqual(a, b) {
		t.Fatal("different seed, same schedule")
	}
	if b := buildSchedule(7, 1, gens, rate, window); reflect.DeepEqual(a, b) {
		t.Fatal("two generators share one schedule")
	}
	total := 0
	var prev time.Duration
	for i, tk := range a {
		if step := tk.Due - prev; step < minTick || tk.Due >= window {
			t.Fatalf("tick %d due %v after %v: outside the tick bounds or the window", i, tk.Due, prev)
		}
		if tk.N < 1 {
			t.Fatalf("tick %d carries no arrival", i)
		}
		prev = tk.Due
		total += tk.N
	}
	// The generator's share of the rate, less what falls due in the last
	// tick before the window closes.
	want := rate / gens * int(window.Seconds())
	if total > want || total < want-rate/gens*int(maxTick.Milliseconds())/1000-1 {
		t.Fatalf("schedule carries %d arrivals, want about %d", total, want)
	}
}

func TestOpMixIsAPureFunctionOfTheSeed(t *testing.T) {
	draw := func(w workload, seed int64, caller, n int) []opChoice {
		g := newOpGen(w, seed, caller)
		out := make([]opChoice, n)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	mixed, _ := findWorkload("read_mixed")
	a := draw(mixed, 3, 5, 10000)
	if !reflect.DeepEqual(a, draw(mixed, 3, 5, 10000)) {
		t.Fatal("same seed and caller, different ops")
	}
	if reflect.DeepEqual(a, draw(mixed, 4, 5, 10000)) || reflect.DeepEqual(a, draw(mixed, 3, 6, 10000)) {
		t.Fatal("another seed or caller drew the same ops")
	}
	reads, recent := 0, 0
	for _, ch := range a {
		if ch.Kind == opRead {
			reads++
			if ch.Recent {
				recent++
			}
		}
	}
	// Fixed seed, so these are exact properties of the generator, not
	// statistical ones: the shares it was asked for, within two points.
	if reads < 9300 || reads > 9700 || recent*100 < reads*(recentPct-2) || recent*100 > reads*(recentPct+2) {
		t.Fatalf("%d reads of 10000 ops, %d of them recent", reads, recent)
	}

	tree, _ := findWorkload("multicolor_tree")
	const issuer = 4
	multis := 0
	for i, ch := range draw(tree, 3, issuer, 10000) {
		switch {
		case ch.Kind == opMulti:
			multis++
		case ch.Kind != opAppend:
			t.Fatalf("op %d is a %v", i, ch.Kind)
		case int(ch.Color) != (issuer+i)%len(treeColors):
			t.Fatalf("op %d went to %v, not round-robin", i, ch.Color)
		}
	}
	if multis < 100*(tree.MultiPercent-2) || multis > 100*(tree.MultiPercent+2) {
		t.Fatalf("%d multi-color appends of 10000 ops", multis)
	}
}

func TestPayloadIsRecomputableAndChecked(t *testing.T) {
	p := newPayloads(11, 1024)
	id := opID{Kind: opMulti, Caller: 31, Index: 12345}
	b := p.build(id, 2, 1024)
	if !bytes.Equal(b, newPayloads(11, 1024).build(id, 2, 1024)) {
		t.Fatal("same seed and op, different bytes")
	}
	if bytes.Equal(b, newPayloads(12, 1024).build(id, 2, 1024)) {
		t.Fatal("the seed does not reach the payload bytes")
	}
	gotID, color, ok := parsePayload(b)
	if !ok || gotID != id || color != 2 {
		t.Fatalf("parsed %+v %v ok=%v", gotID, color, ok)
	}
	b[500] ^= 1
	if _, _, ok := parsePayload(b); ok {
		t.Fatal("a flipped bit passed the checksum")
	}
	if _, _, ok := parsePayload(b[:10]); ok {
		t.Fatal("a truncated record parsed")
	}
	if small := p.build(id, 0, 128); len(small) != 128 {
		t.Fatalf("128 B record is %d B", len(small))
	}
}
