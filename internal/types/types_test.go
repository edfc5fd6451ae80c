package types

import (
	"testing"
	"testing/quick"
)

func TestSNComposition(t *testing.T) {
	sn := MakeSN(3, 42)
	if sn.Epoch() != 3 || sn.Counter() != 42 {
		t.Fatalf("sn parts = %d,%d", sn.Epoch(), sn.Counter())
	}
	if !sn.Valid() {
		t.Fatal("composed SN should be valid")
	}
	if InvalidSN.Valid() {
		t.Fatal("InvalidSN should be invalid")
	}
}

// Property: SN round-trips and epoch dominance — a higher epoch always
// yields a larger SN than any counter value in a lower epoch (§5.2 Safety).
func TestSNOrderingProperty(t *testing.T) {
	f := func(e1, c1, e2, c2 uint32) bool {
		s1, s2 := MakeSN(e1, c1), MakeSN(e2, c2)
		if s1.Epoch() != e1 || s1.Counter() != c1 {
			return false
		}
		if e1 < e2 && s1 >= s2 {
			return false
		}
		if e1 == e2 && c1 < c2 && s1 >= s2 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTokenRoundTripProperty(t *testing.T) {
	f := func(fid, ctr uint32) bool {
		tok := MakeToken(fid, ctr)
		return tok.FID() == fid && tok.Counter() == ctr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []string{
		MakeSN(1, 2).String(),
		MakeToken(1, 2).String(),
		ColorID(3).String(),
		NodeID(4).String(),
		ShardID(5).String(),
	} {
		if s == "" {
			t.Fatal("empty stringer output")
		}
	}
}
