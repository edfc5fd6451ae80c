package main

import (
	"strings"
	"testing"

	"flexlog/internal/replica"
	"flexlog/internal/types"
)

// scenario is a small, correct outcome of a run: appends acknowledged in
// colors 0..2, multi-color appends to {1,2} brokered through color 0, and
// the three final logs. Each test breaks it in one way.
type scenario struct {
	p      *payloads
	acks   []ack
	multis []multiOp
	logs   []colorLog
}

const scenarioRecord = 128

func newScenario() *scenario {
	s := &scenario{p: newPayloads(5, scenarioRecord), logs: []colorLog{{Color: 0}, {Color: 1}, {Color: 2}}}
	next := map[types.ColorID]uint32{}
	put := func(color types.ColorID, data []byte) types.SN {
		next[color]++
		sn := types.MakeSN(1, next[color])
		s.logs[color].Records = append(s.logs[color].Records, types.Record{SN: sn, Color: color, Data: data})
		return sn
	}
	for i := 0; i < 30; i++ {
		color := types.ColorID(i % 3)
		id := opID{Kind: opAppend, Caller: 1, Index: uint64(i)}
		s.acks = append(s.acks, ack{ID: id, Color: color, SN: put(color, s.p.build(id, color, scenarioRecord))})
	}
	for i := 0; i < 4; i++ {
		id := opID{Kind: opMulti, Caller: 9, Index: uint64(i)}
		s.multis = append(s.multis, multiOp{ID: id, Acked: i < 3})
		if i == 3 {
			continue // the unacknowledged one is visible nowhere
		}
		for _, c := range multiColors {
			data := s.p.build(id, c, scenarioRecord)
			put(0, replica.EncodeStaged(c, 9, [][]byte{data}))
			put(c, data)
		}
	}
	return s
}

func (s *scenario) check() checkResult {
	return checkOutput(s.p, scenarioRecord, s.acks, s.multis, multiColors, s.logs)
}

// drop removes the record at position i of a color's log.
func (s *scenario) drop(color types.ColorID, i int) types.Record {
	recs := s.logs[color].Records
	gone := recs[i]
	s.logs[color].Records = append(recs[:i:i], recs[i+1:]...)
	return gone
}

func wantViolation(t *testing.T, res checkResult, fragment string) {
	t.Helper()
	if res.FailedOps == 0 {
		t.Fatalf("the check passed; want a violation mentioning %q", fragment)
	}
	for _, v := range res.Violations {
		if strings.Contains(v, fragment) {
			return
		}
	}
	t.Fatalf("no violation mentions %q: %v", fragment, res.Violations)
}

func TestCheckAcceptsACorrectRun(t *testing.T) {
	if res := newScenario().check(); res.FailedOps != 0 {
		t.Fatalf("violations on a correct run: %v", res.Violations)
	}
}

func TestCheckRejectsAGap(t *testing.T) {
	s := newScenario()
	// A staging record of color 0: nobody was acknowledged its SN, so only
	// the hole itself can give it away.
	last := len(s.logs[0].Records) - 2
	s.drop(0, last)
	wantViolation(t, s.check(), "gap between")
}

func TestCheckRejectsAMissingAcknowledgedRecord(t *testing.T) {
	s := newScenario()
	last := len(s.logs[1].Records) - 1
	for s.logs[1].Records[last].SN != s.acks[len(s.acks)-2].SN { // the last color-1 append
		last--
	}
	s.drop(1, last)
	wantViolation(t, s.check(), "is missing from the log")
}

func TestCheckRejectsADuplicateSN(t *testing.T) {
	s := newScenario()
	dup := s.acks[3]
	dup.ID.Index = 999
	s.acks = append(s.acks, dup)
	wantViolation(t, s.check(), "acknowledged to two appends")

	s = newScenario()
	s.logs[2].Records = append(s.logs[2].Records, s.logs[2].Records[len(s.logs[2].Records)-1])
	wantViolation(t, s.check(), "appears twice")
}

func TestCheckRejectsAWrongPayload(t *testing.T) {
	s := newScenario()
	// Another op's (valid) payload under an acknowledged SN.
	s.logs[0].Records[0].Data, s.logs[0].Records[1].Data = s.logs[0].Records[1].Data, s.logs[0].Records[0].Data
	wantViolation(t, s.check(), "does not hold the payload")

	s = newScenario()
	s.logs[0].Records[0].Data[60] ^= 0x40
	wantViolation(t, s.check(), "never wrote")
}

func TestCheckRejectsAHalfVisibleMultiAppend(t *testing.T) {
	s := newScenario()
	s.drop(2, len(s.logs[2].Records)-1) // the last acknowledged multi-append's record in color 2
	wantViolation(t, s.check(), "acknowledged multi-append")

	s = newScenario()
	id := s.multis[3].ID // never acknowledged: may be in both colors or neither
	sn := s.logs[1].Records[len(s.logs[1].Records)-1].SN + 1
	s.logs[1].Records = append(s.logs[1].Records, types.Record{SN: sn, Color: 1, Data: s.p.build(id, 1, scenarioRecord)})
	wantViolation(t, s.check(), "unacknowledged multi-append")
}

func TestCheckRespectsTheTrimPoint(t *testing.T) {
	s := newScenario()
	trimmed := s.logs[0].Records[4].SN
	s.logs[0].Trimmed = trimmed
	wantViolation(t, s.check(), "at or below the trim point")

	s = newScenario()
	s.logs[0].Trimmed = trimmed
	s.logs[0].Records = s.logs[0].Records[5:]
	if res := s.check(); res.FailedOps != 0 {
		t.Fatalf("a log cut at its trim point was rejected: %v", res.Violations)
	}
	s.drop(0, 0) // the record right above the trim point
	wantViolation(t, s.check(), "gap between")
}
