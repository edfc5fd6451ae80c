// Package histcheck is the chaos harness's oracle: a concurrent operation
// recorder plus a checker for the paper's per-color correctness claims
// (§6–§7). Instead of point assertions inside the workload, every client
// operation — append, read, trim, multi-color append — is recorded with
// its interval and outcome, and the full history is checked after the run
// against the final state of the log (Jepsen-style).
//
// Checked properties, per color:
//
//   - unique-sn: no two acknowledged appends share an assigned SN;
//   - durability: every acknowledged append (not covered by a trim)
//     appears in the final log at its SN with its exact payload;
//   - read-integrity: a read that returned data returned the payload of a
//     real append at that SN — never fabricated or mismatched bytes — and
//     any two successful reads of the same (color, SN) agree;
//   - read-linearizability: a read that returned not-found is a violation
//     if an append of that SN was acknowledged before the read began and
//     no trim that could cover the SN had started;
//   - trim: after an acknowledged trim up to SN t, the final log holds
//     nothing at or below t (no resurrection) and everything acked above
//     t (no lost suffix);
//   - multi-atomicity: a multi-color append is visible in all of its
//     target colors or in none, and in all if it was acknowledged;
//   - token-sn: an append batch (one token) sits at one SN on every
//     replica that holds it — a token ordered twice acknowledges an SN
//     some replica reads as ⊥ (ROADMAP item 1).
//
// Operations that time out are indeterminate: their effects may or may
// not have applied, and the checker treats both outcomes as legal.
package histcheck

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/types"
)

// Kind labels one recorded operation.
type Kind uint8

// Operation kinds.
const (
	KindAppend Kind = iota
	KindRead
	KindTrim
	KindMulti
)

func (k Kind) String() string {
	switch k {
	case KindAppend:
		return "append"
	case KindRead:
		return "read"
	case KindTrim:
		return "trim"
	case KindMulti:
		return "multi-append"
	}
	return "unknown"
}

// Op is one completed client operation with its real-time interval.
type Op struct {
	ID    uint64
	Kind  Kind
	Color types.ColorID

	// Append: Data is the payload; SN the assigned number (when Acked).
	// Read: SN is the queried number; Data the returned payload.
	// Trim: SN is the trim point (inclusive).
	SN   types.SN
	Data []byte

	// Multi: per-target-color single-record payloads.
	Colors []types.ColorID
	Datas  [][]byte

	// Acked is true when the operation completed successfully. A false
	// value means error/timeout: the effect is indeterminate.
	Acked bool
	// NotFound is true for reads that returned the ⊥ result.
	NotFound bool

	Start, End time.Time
}

// Recorder collects operations concurrently. One recorder serves all
// workload goroutines of a run; Begin/finish pairs cost one mutex
// acquisition at completion only.
type Recorder struct {
	seq atomic.Uint64

	mu  sync.Mutex
	ops []Op
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// PendingOp is an operation that has begun but not yet completed. Exactly
// one finish call (Ack / Fail / ReadOK / ReadNotFound) must follow.
type PendingOp struct {
	r  *Recorder
	op Op
}

func (r *Recorder) begin(kind Kind, color types.ColorID) *PendingOp {
	return &PendingOp{r: r, op: Op{
		ID:    r.seq.Add(1),
		Kind:  kind,
		Color: color,
		Start: time.Now(),
	}}
}

// BeginAppend starts recording an append of data to color.
func (r *Recorder) BeginAppend(color types.ColorID, data []byte) *PendingOp {
	p := r.begin(KindAppend, color)
	p.op.Data = data
	return p
}

// BeginRead starts recording a read of sn from color.
func (r *Recorder) BeginRead(color types.ColorID, sn types.SN) *PendingOp {
	p := r.begin(KindRead, color)
	p.op.SN = sn
	return p
}

// BeginTrim starts recording a trim of color up to sn.
func (r *Recorder) BeginTrim(color types.ColorID, sn types.SN) *PendingOp {
	p := r.begin(KindTrim, color)
	p.op.SN = sn
	return p
}

// BeginMulti starts recording a multi-color append of one record per
// color (datas[i] goes to colors[i]).
func (r *Recorder) BeginMulti(colors []types.ColorID, datas [][]byte) *PendingOp {
	p := r.begin(KindMulti, 0)
	p.op.Colors = append([]types.ColorID(nil), colors...)
	p.op.Datas = append([][]byte(nil), datas...)
	return p
}

func (p *PendingOp) finish() {
	p.op.End = time.Now()
	p.r.mu.Lock()
	p.r.ops = append(p.r.ops, p.op)
	p.r.mu.Unlock()
}

// Ack completes the operation successfully. For appends, sn is the
// assigned sequence number; other kinds pass types.InvalidSN or the
// operation's own SN.
func (p *PendingOp) Ack(sn types.SN) {
	if p.op.Kind == KindAppend {
		p.op.SN = sn
	}
	p.op.Acked = true
	p.finish()
}

// Fail completes the operation with an error (indeterminate effect).
func (p *PendingOp) Fail() { p.finish() }

// ReadOK completes a read that returned data.
func (p *PendingOp) ReadOK(data []byte) {
	p.op.Acked = true
	p.op.Data = data
	p.finish()
}

// ReadNotFound completes a read that returned the ⊥ result.
func (p *PendingOp) ReadNotFound() {
	p.op.Acked = true
	p.op.NotFound = true
	p.finish()
}

// Ops snapshots the recorded history (completed operations only).
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op(nil), r.ops...)
}

// Violation is one property breach found by Check.
type Violation struct {
	Prop string // property slug (unique-sn, durability, …)
	Op   uint64 // offending operation id (0 when final-state only)
	Msg  string
}

func (v Violation) String() string {
	if v.Op != 0 {
		return fmt.Sprintf("[%s] op %d: %s", v.Prop, v.Op, v.Msg)
	}
	return fmt.Sprintf("[%s] %s", v.Prop, v.Msg)
}

// FinalState is the quiesced end-of-run view the checker validates the
// history against: one full subscribe per color after all faults healed
// and recoveries finished, and every replica's committed log read
// separately, record for record.
type FinalState struct {
	Logs     map[types.ColorID][]types.Record
	Replicas map[types.NodeID][]types.Record // every color a replica holds
}

// Check validates the recorded history against the final state and
// returns every violation found (empty means the run is linearizable
// under the checked properties).
func Check(ops []Op, final FinalState) []Violation {
	var out []Violation

	// Index the history.
	ackedBySN := make(map[types.ColorID]map[types.SN]*Op) // acked appends
	payloads := make(map[types.ColorID]map[string]bool)   // every attempted payload
	maxAckedTrim := make(map[types.ColorID]types.SN)      // trims known applied
	maxStartedTrim := make(map[types.ColorID]types.SN)    // trims possibly applied

	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case KindAppend:
			if payloads[op.Color] == nil {
				payloads[op.Color] = make(map[string]bool)
			}
			payloads[op.Color][string(op.Data)] = true
			if !op.Acked || !op.SN.Valid() {
				continue
			}
			if ackedBySN[op.Color] == nil {
				ackedBySN[op.Color] = make(map[types.SN]*Op)
			}
			if prev, dup := ackedBySN[op.Color][op.SN]; dup {
				if !bytes.Equal(prev.Data, op.Data) {
					out = append(out, Violation{
						Prop: "unique-sn", Op: op.ID,
						Msg: fmt.Sprintf("color %v SN %v acked for %q and (op %d) %q", op.Color, op.SN, op.Data, prev.ID, prev.Data),
					})
				}
				continue
			}
			ackedBySN[op.Color][op.SN] = op
		case KindTrim:
			if op.SN > maxStartedTrim[op.Color] {
				maxStartedTrim[op.Color] = op.SN
			}
			if op.Acked && op.SN > maxAckedTrim[op.Color] {
				maxAckedTrim[op.Color] = op.SN
			}
		case KindMulti:
			for i, c := range op.Colors {
				if payloads[c] == nil {
					payloads[c] = make(map[string]bool)
				}
				payloads[c][string(op.Datas[i])] = true
			}
		}
	}

	// Index the final logs: per color, SN -> payload, payload -> present.
	finalBySN := make(map[types.ColorID]map[types.SN][]byte)
	finalPayload := make(map[types.ColorID]map[string]bool)
	for color, recs := range final.Logs {
		bySN := make(map[types.SN][]byte, len(recs))
		byData := make(map[string]bool, len(recs))
		for _, rec := range recs {
			if prev, dup := bySN[rec.SN]; dup && !bytes.Equal(prev, rec.Data) {
				out = append(out, Violation{
					Prop: "unique-sn",
					Msg:  fmt.Sprintf("final log of color %v holds two records at SN %v", color, rec.SN),
				})
			}
			bySN[rec.SN] = rec.Data
			byData[string(rec.Data)] = true
		}
		finalBySN[color] = bySN
		finalPayload[color] = byData
	}

	// Durability + trim (no resurrection / no lost suffix).
	for color, appends := range ackedBySN {
		bySN := finalBySN[color]
		for sn, op := range appends {
			if sn <= maxStartedTrim[color] {
				// A trim that may have applied covers this SN: absence and
				// presence are both legal... unless an acked trim covers it,
				// which requires absence (checked below).
				if sn <= maxAckedTrim[color] {
					if _, present := bySN[sn]; present {
						out = append(out, Violation{
							Prop: "trim", Op: op.ID,
							Msg: fmt.Sprintf("color %v SN %v survived an acked trim up to %v", color, sn, maxAckedTrim[color]),
						})
					}
				}
				continue
			}
			got, present := bySN[sn]
			if !present {
				out = append(out, Violation{
					Prop: "durability", Op: op.ID,
					Msg: fmt.Sprintf("acked append %q (color %v, SN %v) missing from final log", op.Data, color, sn),
				})
				continue
			}
			if !bytes.Equal(got, op.Data) {
				out = append(out, Violation{
					Prop: "durability", Op: op.ID,
					Msg: fmt.Sprintf("final log color %v SN %v = %q, acked append was %q", color, sn, got, op.Data),
				})
			}
		}
		// No resurrection of records below an acked trim, appended or not.
		if t := maxAckedTrim[color]; t.Valid() {
			for sn := range bySN {
				if sn <= t {
					out = append(out, Violation{
						Prop: "trim",
						Msg:  fmt.Sprintf("final log of color %v holds SN %v below the acked trim frontier %v", color, sn, t),
					})
				}
			}
		}
	}

	// Read integrity and linearizability.
	readValue := make(map[types.ColorID]map[types.SN][]byte) // agreed read results
	for i := range ops {
		op := &ops[i]
		if op.Kind != KindRead || !op.Acked {
			continue
		}
		if op.NotFound {
			// ⊥ is a violation only if some append of this SN was acked
			// strictly before the read began AND no trim that could cover
			// the SN had started before the read ended.
			app := ackedBySN[op.Color][op.SN]
			if app == nil || !app.End.Before(op.Start) {
				continue
			}
			trimCovered := false
			for j := range ops {
				tr := &ops[j]
				if tr.Kind == KindTrim && tr.Color == op.Color && tr.SN >= op.SN && tr.Start.Before(op.End) {
					trimCovered = true
					break
				}
			}
			if !trimCovered {
				out = append(out, Violation{
					Prop: "read-linearizability", Op: op.ID,
					Msg: fmt.Sprintf("read of color %v SN %v returned ⊥, but append %d was acked before it and never trimmed", op.Color, op.SN, app.ID),
				})
			}
			continue
		}
		// Value returned: must match the acked append at that SN if one is
		// recorded, must be a payload some append attempt actually wrote,
		// and must agree with every other successful read of the SN.
		if app := ackedBySN[op.Color][op.SN]; app != nil && !bytes.Equal(app.Data, op.Data) {
			out = append(out, Violation{
				Prop: "read-integrity", Op: op.ID,
				Msg: fmt.Sprintf("read of color %v SN %v = %q, acked append %d wrote %q", op.Color, op.SN, op.Data, app.ID, app.Data),
			})
			continue
		}
		if pl := payloads[op.Color]; pl != nil && !pl[string(op.Data)] {
			out = append(out, Violation{
				Prop: "read-integrity", Op: op.ID,
				Msg: fmt.Sprintf("read of color %v SN %v returned fabricated payload %q", op.Color, op.SN, op.Data),
			})
			continue
		}
		if readValue[op.Color] == nil {
			readValue[op.Color] = make(map[types.SN][]byte)
		}
		if prev, ok := readValue[op.Color][op.SN]; ok {
			if !bytes.Equal(prev, op.Data) {
				out = append(out, Violation{
					Prop: "read-integrity", Op: op.ID,
					Msg: fmt.Sprintf("reads of color %v SN %v disagree: %q vs %q", op.Color, op.SN, op.Data, prev),
				})
			}
		} else {
			readValue[op.Color][op.SN] = op.Data
		}
	}

	// Multi-color atomicity: all-or-nothing, all if acked. Visibility is
	// judged by payload presence in the final logs (multi payloads are
	// generated unique by the workload).
	for i := range ops {
		op := &ops[i]
		if op.Kind != KindMulti {
			continue
		}
		visible := 0
		for j, c := range op.Colors {
			present := finalPayload[c][string(op.Datas[j])]
			// A trim that may have applied can erase a visible record;
			// treat trimmed colors as visible for the atomicity count when
			// absent (cannot distinguish "never appeared" from "trimmed").
			if !present && maxStartedTrim[c].Valid() {
				present = true
			}
			if present {
				visible++
			}
		}
		if op.Acked && visible != len(op.Colors) {
			out = append(out, Violation{
				Prop: "multi-atomicity", Op: op.ID,
				Msg: fmt.Sprintf("acked multi-append visible in %d of %d colors", visible, len(op.Colors)),
			})
		}
		if !op.Acked && visible != 0 && visible != len(op.Colors) {
			out = append(out, Violation{
				Prop: "multi-atomicity", Op: op.ID,
				Msg: fmt.Sprintf("unacked multi-append partially visible: %d of %d colors", visible, len(op.Colors)),
			})
		}
	}

	// One SN per token on every replica. A batch's SN is its last record's,
	// which a trim of its prefix leaves in place.
	first := make(map[types.Token]types.SN)
	for node, recs := range final.Replicas {
		last := make(map[types.Token]types.SN)
		for _, rec := range recs {
			last[rec.Token] = max(last[rec.Token], rec.SN)
		}
		for token, sn := range last {
			if prev, seen := first[token]; !seen {
				first[token] = sn
			} else if prev != sn {
				out = append(out, Violation{
					Prop: "token-sn",
					Msg:  fmt.Sprintf("token %v is at %v on replica %d and at %v on another replica", token, sn, node, prev),
				})
			}
		}
	}

	return out
}
