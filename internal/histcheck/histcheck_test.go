package histcheck

import (
	"strings"
	"testing"
	"time"

	"flexlog/internal/types"
)

func rec(sn types.SN, data string) types.Record {
	return types.Record{SN: sn, Data: []byte(data)}
}

// hasProp reports whether a violation with the given property slug exists.
func hasProp(vs []Violation, prop string) bool {
	for _, v := range vs {
		if v.Prop == prop {
			return true
		}
	}
	return false
}

func TestCleanHistoryPasses(t *testing.T) {
	r := NewRecorder()
	a1 := r.BeginAppend(0, []byte("x1"))
	a1.Ack(types.SN(5))
	a2 := r.BeginAppend(0, []byte("x2"))
	a2.Ack(types.SN(6))
	rd := r.BeginRead(0, types.SN(5))
	rd.ReadOK([]byte("x1"))
	final := FinalState{Logs: map[types.ColorID][]types.Record{
		0: {rec(5, "x1"), rec(6, "x2")},
	}}
	if vs := Check(r.Ops(), final); len(vs) != 0 {
		t.Fatalf("clean history produced violations: %v", vs)
	}
}

func TestDuplicateSNCaught(t *testing.T) {
	r := NewRecorder()
	r.BeginAppend(0, []byte("a")).Ack(types.SN(5))
	r.BeginAppend(0, []byte("b")).Ack(types.SN(5))
	final := FinalState{Logs: map[types.ColorID][]types.Record{0: {rec(5, "a")}}}
	vs := Check(r.Ops(), final)
	if !hasProp(vs, "unique-sn") {
		t.Fatalf("duplicate SN not caught: %v", vs)
	}
}

func TestLostAckedAppendCaught(t *testing.T) {
	r := NewRecorder()
	r.BeginAppend(0, []byte("kept")).Ack(types.SN(5))
	r.BeginAppend(0, []byte("lost")).Ack(types.SN(6))
	final := FinalState{Logs: map[types.ColorID][]types.Record{0: {rec(5, "kept")}}}
	vs := Check(r.Ops(), final)
	if !hasProp(vs, "durability") {
		t.Fatalf("lost acked append not caught: %v", vs)
	}
}

// TestTokenAtTwoSNsCaught: the same batch at two SNs on two replicas is a
// violation; the same batch with a trimmed prefix on one of them is not.
func TestTokenAtTwoSNsCaught(t *testing.T) {
	batch := func(token types.Token, sns ...types.SN) []types.Record {
		var out []types.Record
		for _, sn := range sns {
			out = append(out, types.Record{Token: token, SN: sn})
		}
		return out
	}
	agree := FinalState{Replicas: map[types.NodeID][]types.Record{
		1: batch(7, 4, 5, 6),
		2: batch(7, 6), // a trim took SNs 4 and 5
	}}
	if vs := Check(nil, agree); len(vs) != 0 {
		t.Fatalf("one SN per token produced violations: %v", vs)
	}
	split := FinalState{Replicas: map[types.NodeID][]types.Record{
		1: batch(7, 6),
		2: batch(7, 9),
	}}
	if vs := Check(nil, split); !hasProp(vs, "token-sn") {
		t.Fatalf("token at two SNs not caught: %v", vs)
	}
}

func TestUnackedAppendMayOrMayNotSurvive(t *testing.T) {
	r := NewRecorder()
	r.BeginAppend(0, []byte("timed-out")).Fail()
	// Absent: fine.
	if vs := Check(r.Ops(), FinalState{Logs: map[types.ColorID][]types.Record{0: nil}}); len(vs) != 0 {
		t.Fatalf("absent unacked append flagged: %v", vs)
	}
	// Present: also fine (commit raced the timeout).
	final := FinalState{Logs: map[types.ColorID][]types.Record{0: {rec(9, "timed-out")}}}
	if vs := Check(r.Ops(), final); len(vs) != 0 {
		t.Fatalf("surviving unacked append flagged: %v", vs)
	}
}

func TestCorruptReadCaught(t *testing.T) {
	r := NewRecorder()
	r.BeginAppend(0, []byte("real")).Ack(types.SN(5))
	r.BeginRead(0, types.SN(5)).ReadOK([]byte("bogus"))
	final := FinalState{Logs: map[types.ColorID][]types.Record{0: {rec(5, "real")}}}
	vs := Check(r.Ops(), final)
	if !hasProp(vs, "read-integrity") {
		t.Fatalf("corrupt read not caught: %v", vs)
	}
}

func TestStaleNotFoundCaught(t *testing.T) {
	r := NewRecorder()
	a := r.BeginAppend(0, []byte("v"))
	a.Ack(types.SN(5))
	time.Sleep(time.Millisecond) // the read strictly follows the ack
	r.BeginRead(0, types.SN(5)).ReadNotFound()
	final := FinalState{Logs: map[types.ColorID][]types.Record{0: {rec(5, "v")}}}
	vs := Check(r.Ops(), final)
	if !hasProp(vs, "read-linearizability") {
		t.Fatalf("stale ⊥ read not caught: %v", vs)
	}
}

func TestNotFoundLegalWhenTrimCovers(t *testing.T) {
	r := NewRecorder()
	a := r.BeginAppend(0, []byte("v"))
	a.Ack(types.SN(5))
	tr := r.BeginTrim(0, types.SN(5))
	tr.Ack(types.InvalidSN)
	time.Sleep(time.Millisecond)
	r.BeginRead(0, types.SN(5)).ReadNotFound()
	final := FinalState{Logs: map[types.ColorID][]types.Record{0: nil}}
	if vs := Check(r.Ops(), final); len(vs) != 0 {
		t.Fatalf("trim-covered ⊥ read flagged: %v", vs)
	}
}

func TestResurrectionAfterAckedTrimCaught(t *testing.T) {
	r := NewRecorder()
	r.BeginAppend(0, []byte("old")).Ack(types.SN(3))
	r.BeginTrim(0, types.SN(4)).Ack(types.InvalidSN)
	final := FinalState{Logs: map[types.ColorID][]types.Record{0: {rec(3, "old")}}}
	vs := Check(r.Ops(), final)
	if !hasProp(vs, "trim") {
		t.Fatalf("resurrected trimmed record not caught: %v", vs)
	}
}

func TestIndeterminateTrimAllowsEither(t *testing.T) {
	r := NewRecorder()
	r.BeginAppend(0, []byte("maybe")).Ack(types.SN(3))
	r.BeginTrim(0, types.SN(4)).Fail() // timed out: may have applied
	// Record gone: fine.
	if vs := Check(r.Ops(), FinalState{Logs: map[types.ColorID][]types.Record{0: nil}}); len(vs) != 0 {
		t.Fatalf("indeterminate trim removal flagged: %v", vs)
	}
	// Record kept: also fine.
	final := FinalState{Logs: map[types.ColorID][]types.Record{0: {rec(3, "maybe")}}}
	if vs := Check(r.Ops(), final); len(vs) != 0 {
		t.Fatalf("indeterminate trim survival flagged: %v", vs)
	}
}

func TestMultiAtomicityCaught(t *testing.T) {
	r := NewRecorder()
	m := r.BeginMulti([]types.ColorID{1, 2}, [][]byte{[]byte("m1"), []byte("m2")})
	m.Ack(types.InvalidSN)
	// Only color 1 got its record.
	final := FinalState{Logs: map[types.ColorID][]types.Record{
		1: {rec(7, "m1")},
		2: nil,
	}}
	vs := Check(r.Ops(), final)
	if !hasProp(vs, "multi-atomicity") {
		t.Fatalf("partial multi-append not caught: %v", vs)
	}

	// Unacked partial visibility is also a violation.
	r2 := NewRecorder()
	r2.BeginMulti([]types.ColorID{1, 2}, [][]byte{[]byte("m1"), []byte("m2")}).Fail()
	vs2 := Check(r2.Ops(), final)
	if !hasProp(vs2, "multi-atomicity") {
		t.Fatalf("unacked partial multi-append not caught: %v", vs2)
	}

	// All-or-nothing outcomes pass.
	both := FinalState{Logs: map[types.ColorID][]types.Record{
		1: {rec(7, "m1")}, 2: {rec(9, "m2")},
	}}
	if vs := Check(r2.Ops(), both); len(vs) != 0 {
		t.Fatalf("fully visible unacked multi flagged: %v", vs)
	}
	neither := FinalState{Logs: map[types.ColorID][]types.Record{1: nil, 2: nil}}
	if vs := Check(r2.Ops(), neither); len(vs) != 0 {
		t.Fatalf("fully invisible unacked multi flagged: %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Prop: "durability", Op: 3, Msg: "gone"}
	if !strings.Contains(v.String(), "durability") || !strings.Contains(v.String(), "op 3") {
		t.Fatalf("unexpected rendering %q", v.String())
	}
}
