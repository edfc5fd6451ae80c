package main

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"flexlog/internal/replica"
	"flexlog/internal/types"
)

// ack is one acknowledged single-color append: the benchmark knows which op
// wrote it, to which color, and the SN the system returned.
type ack struct {
	ID    opID
	Color types.ColorID
	SN    types.SN
}

// multiOp is one attempted multi-color append. The client API returns no
// SNs for it, so it is traced through the log by its payload.
type multiOp struct {
	ID    opID
	Acked bool
}

// colorLog is the final Subscribe of one color: every record above Trimmed,
// the highest SN a successful Trim was given, in SN order.
type colorLog struct {
	Color   types.ColorID
	Trimmed types.SN
	Records []types.Record
}

// checkResult lists what the output check found. FailedOps counts the ops
// (or log positions) at fault and is folded into the failed count.
type checkResult struct {
	FailedOps  int
	Violations []string // first maxViolations only
}

const maxViolations = 20

func (r *checkResult) fail(format string, args ...any) {
	r.FailedOps++
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// checkOutput verifies the system's outputs against what the benchmark
// wrote: acknowledged SNs are unique per color; each color's log is
// gap-free above its trim point and holds every acknowledged, untrimmed
// record with the bytes written; and a multi-color append is visible in all
// of multiColors if acknowledged, in all or none otherwise.
func checkOutput(p *payloads, recordBytes int, acks []ack, multis []multiOp, multiColors []types.ColorID, logs []colorLog) checkResult {
	var res checkResult

	slices.SortFunc(acks, func(a, b ack) int {
		return cmp.Or(cmp.Compare(a.Color, b.Color), cmp.Compare(a.SN, b.SN))
	})
	for i := 1; i < len(acks); i++ {
		if acks[i].Color == acks[i-1].Color && acks[i].SN == acks[i-1].SN {
			res.fail("%v: SN %v acknowledged to two appends (%+v and %+v)", acks[i].Color, acks[i].SN, acks[i-1].ID, acks[i].ID)
		}
	}

	// seen[color][op] counts how often a multi-color append's record shows
	// in that color's log.
	seen := make(map[types.ColorID]map[opID]int)
	for _, lg := range logs {
		seen[lg.Color] = make(map[opID]int)
		bySN := make(map[types.SN][]byte, len(lg.Records))
		prev := lg.Trimmed
		for _, rec := range lg.Records {
			switch {
			case rec.SN <= lg.Trimmed:
				res.fail("%v: SN %v is visible at or below the trim point %v", lg.Color, rec.SN, lg.Trimmed)
			case rec.SN == prev:
				res.fail("%v: SN %v appears twice in the log", lg.Color, rec.SN)
			case prev.Valid() && rec.SN.Epoch() == prev.Epoch() && rec.SN != prev+1:
				res.fail("%v: gap between SN %v and SN %v", lg.Color, prev, rec.SN)
			}
			prev = rec.SN
			bySN[rec.SN] = rec.Data

			if _, _, _, err := replica.DecodeStaged(rec.Data); err == nil {
				continue // broker-color staging record of a multi-color append
			}
			id, color, ok := parsePayload(rec.Data)
			if !ok || color != lg.Color || !bytes.Equal(rec.Data, p.build(id, color, len(rec.Data))) {
				res.fail("%v: SN %v holds bytes the benchmark never wrote", lg.Color, rec.SN)
				continue
			}
			if id.Kind == opMulti {
				seen[lg.Color][id]++
			}
		}
		for _, a := range acks {
			if a.Color != lg.Color || a.SN <= lg.Trimmed {
				continue
			}
			data, ok := bySN[a.SN]
			switch {
			case !ok:
				res.fail("%v: acknowledged SN %v (%+v) is missing from the log", lg.Color, a.SN, a.ID)
			case !bytes.Equal(data, p.build(a.ID, a.Color, recordBytes)):
				res.fail("%v: SN %v does not hold the payload of %+v", lg.Color, a.SN, a.ID)
			}
		}
	}

	known := make(map[opID]bool, len(multis))
	for _, m := range multis {
		known[m.ID] = true
		visible := 0
		for _, c := range multiColors {
			n := seen[c][m.ID]
			if n > 1 {
				res.fail("multi-append %+v was replayed %d times into %v", m.ID, n, c)
			}
			if n > 0 {
				visible++
			}
		}
		switch {
		case m.Acked && visible != len(multiColors):
			res.fail("acknowledged multi-append %+v is visible in %d of %d colors", m.ID, visible, len(multiColors))
		case !m.Acked && visible != 0 && visible != len(multiColors):
			res.fail("unacknowledged multi-append %+v is visible in %d of %d colors", m.ID, visible, len(multiColors))
		}
	}
	for c, ops := range seen {
		for id := range ops {
			if !known[id] {
				res.fail("%v holds a multi-append record %+v that was never attempted", c, id)
			}
		}
	}
	return res
}
