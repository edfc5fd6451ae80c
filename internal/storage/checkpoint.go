package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"flexlog/internal/types"
)

// Checkpoints bound the recovery replay suffix (the linear cost of Fig. 10):
// a checkpoint is a cold-tier blob ("ckpt-<seq>") holding the volatile
// metadata that a full scan of the flushed segments would otherwise rebuild —
// per-color trim/maxSN watermarks plus, for every flushed segment, the
// location metadata of its live entries and the trim markers persisted
// inside it. Recovery restores the covered segments from this metadata
// (no blob reads) and only scans the PM slots and the cold segments flushed
// after the checkpoint, so the replay length tracks the checkpoint interval
// instead of the log length.
//
// Durability protocol: the blob is written and synced before any volatile
// state advances; older checkpoint blobs are deleted only after the new one
// is durable. A crash mid-write leaves a torn blob that decode rejects, and
// recovery falls back to the previous checkpoint.
//
// Safety of the per-segment trim markers: a marker is persisted before the
// trim is applied to the color's volatile watermark, so every checkpoint
// written after the store observed the marker has floors >= the marker.
// Cold GC therefore may delete a fully-dead covered segment (its markers
// survive inside the checkpoint), and a later checkpoint that no longer
// lists the segment still subsumes its markers via the color floors.

const (
	ckptMagic   = 0x50384346 // "FC8P"
	ckptVersion = 1
)

func ckptName(seq uint64) string { return fmt.Sprintf("ckpt-%d", seq) }

// ckptImage is the decoded form of a checkpoint blob.
type ckptImage struct {
	seq    uint64
	colors map[types.ColorID]ckptColor
	segs   []ckptSeg
}

type ckptColor struct {
	trimmed types.SN
	maxSN   types.SN
}

type ckptSeg struct {
	id      uint64
	used    uint64
	entries []ckptEntry
	marks   []trimMark
}

// count is the number of entries the segment holds, trim markers included.
func (s *ckptSeg) count() int { return len(s.entries) + len(s.marks) }

type ckptEntry struct {
	token      types.Token
	color      types.ColorID
	off        uint64
	payloadLen int
	firstSN    types.SN
	spans      []recSpan
}

// RecoveryStats describes what the last Recover did — the observable half
// of the checkpoint contract (the ablate-tiering experiment asserts the
// replayed suffix stays flat as the log grows).
type RecoveryStats struct {
	CheckpointSeq   uint64 // sequence of the checkpoint restored from (0: none)
	RestoredEntries int    // entries restored from checkpoint metadata, no blob read
	CoveredSegments int    // flushed segments covered by the checkpoint
	ScannedSegments int    // segment images scanned (PM slots + uncovered blobs)
	ReplayedEntries int    // entries replayed from scanned images
	ReplayedBytes   uint64 // bytes of segment images scanned
	MissingBlobs    int    // uncovered cold blobs absent or unreadable (skipped)
}

// LastRecovery returns what the most recent Recover (or attach) replayed.
func (st *Store) LastRecovery() RecoveryStats {
	st.alloc.RLock()
	defer st.alloc.RUnlock()
	return st.lastRecovery
}

// writeCheckpoint snapshots the store and makes a new checkpoint durable.
// When force is false the write is skipped unless CheckpointEvery entries
// have been flushed since the last checkpoint. Serialized by st.ckptMu.
func (st *Store) writeCheckpoint(force bool) error {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()

	// Per-color floors first (lock order: color locks strictly before the
	// allocator lock). Each color is snapshotted under its own read lock,
	// so an in-flight trim is either fully included or fully excluded —
	// and if excluded, its marker is in a segment this checkpoint cannot
	// cover, so recovery replays it.
	colors := make(map[types.ColorID]ckptColor)
	st.colors.Range(func(k, v any) bool {
		ci := v.(*colorIndex)
		ci.mu.RLock()
		colors[k.(types.ColorID)] = ckptColor{trimmed: ci.trimmed, maxSN: ci.maxSN}
		ci.mu.RUnlock()
		return true
	})

	st.alloc.RLock()
	if !force && (st.cfg.CheckpointEvery <= 0 || st.uncovered < uint64(st.cfg.CheckpointEvery)) {
		st.alloc.RUnlock()
		return nil
	}
	seq := st.ckptSeq + 1
	coveredAtSnap := st.uncovered
	img := ckptImage{seq: seq, colors: colors}
	for _, seg := range st.segs {
		if !seg.flushed() {
			continue
		}
		cs := ckptSeg{id: seg.id, used: seg.used, marks: append([]trimMark(nil), seg.trimMarks...)}
		for _, tok := range seg.tokens {
			loc := st.byToken[tok]
			if loc == nil || loc.seg != seg || loc.dead.Load() {
				continue
			}
			first := loc.first()
			if !first.Valid() {
				continue // flushed segments hold no uncommitted entries
			}
			cs.entries = append(cs.entries, ckptEntry{
				token: loc.token, color: loc.color, off: loc.off,
				payloadLen: loc.payloadLen, firstSN: first, spans: loc.spans,
			})
		}
		img.segs = append(img.segs, cs)
	}
	prior := st.ckptSeq
	st.alloc.RUnlock()
	sort.Slice(img.segs, func(i, j int) bool { return img.segs[i].id < img.segs[j].id })

	entries := 0
	covered := make(map[uint64]bool, len(img.segs))
	for _, s := range img.segs {
		entries += len(s.entries)
		covered[s.id] = true
	}

	start := time.Now()
	if err := st.putBlob(ckptName(seq), encodeCheckpoint(&img)); err != nil {
		return err
	}
	if st.failpoint.CompareAndSwap(uint32(CrashMidCheckpoint), 0) {
		st.Crash()
		return ErrInjectedCrash
	}
	if err := st.cold.Sync(ckptName(seq)); err != nil {
		return err
	}
	st.checkpointH.Since(start)

	st.alloc.Lock()
	st.ckptSeq = seq
	st.checkpoints++
	st.ckptEntries = entries
	st.ckptCovered = covered
	// Entries flushed after the snapshot stay uncovered.
	if st.uncovered >= coveredAtSnap {
		st.uncovered -= coveredAtSnap
	} else {
		st.uncovered = 0
	}
	st.alloc.Unlock()

	// Only now is it safe to drop the older checkpoints (incl. seq prior).
	for _, name := range st.cold.List() {
		var old uint64
		if _, err := fmt.Sscanf(name, "ckpt-%d", &old); err == nil && old <= prior {
			if err := st.cold.Delete(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadCheckpoint returns the newest parsable checkpoint on the cold tier,
// or nil when none exists (including when every candidate is torn — a crash
// mid-checkpoint leaves the previous one in place, so a torn newest blob
// just falls back one sequence).
func (st *Store) loadCheckpoint() *ckptImage {
	var seqs []uint64
	for _, name := range st.cold.List() {
		var seq uint64
		if _, err := fmt.Sscanf(name, "ckpt-%d", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		if raw, err := st.readBlob(ckptName(seq)); err == nil {
			if img, err := decodeCheckpoint(raw); err == nil {
				return img
			}
		}
	}
	return nil
}

// encodeCheckpoint serializes an image (little-endian, crc32 trailer).
func encodeCheckpoint(img *ckptImage) []byte {
	var out []byte
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		out = append(out, b[:]...)
	}
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		out = append(out, b[:]...)
	}
	u32(ckptMagic)
	u32(ckptVersion)
	u64(img.seq)
	// Colors in sorted order so the blob is deterministic.
	colorIDs := make([]types.ColorID, 0, len(img.colors))
	for c := range img.colors {
		colorIDs = append(colorIDs, c)
	}
	sort.Slice(colorIDs, func(i, j int) bool { return colorIDs[i] < colorIDs[j] })
	u32(uint32(len(colorIDs)))
	for _, c := range colorIDs {
		cc := img.colors[c]
		u32(uint32(c))
		u64(uint64(cc.trimmed))
		u64(uint64(cc.maxSN))
	}
	u32(uint32(len(img.segs)))
	for _, s := range img.segs {
		u64(s.id)
		u64(s.used)
		u32(uint32(len(s.entries)))
		u32(uint32(len(s.marks)))
		for _, e := range s.entries {
			u64(uint64(e.token))
			u32(uint32(e.color))
			u64(e.off)
			u32(uint32(e.payloadLen))
			u64(uint64(e.firstSN))
			u32(uint32(len(e.spans)))
			for _, sp := range e.spans {
				u32(sp.off)
				u32(sp.len)
			}
		}
		for _, m := range s.marks {
			u32(uint32(m.color))
			u64(uint64(m.sn))
		}
	}
	u32(crc32.ChecksumIEEE(out))
	return out
}

// decodeCheckpoint parses a checkpoint blob, rejecting torn or corrupt ones.
func decodeCheckpoint(raw []byte) (*ckptImage, error) {
	if len(raw) < 4+4+8+4 {
		return nil, fmt.Errorf("storage: checkpoint too small (%d bytes)", len(raw))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("storage: checkpoint crc mismatch")
	}
	off := 0
	fail := fmt.Errorf("storage: truncated checkpoint")
	u32 := func() (uint32, error) {
		if off+4 > len(body) {
			return 0, fail
		}
		v := binary.LittleEndian.Uint32(body[off : off+4])
		off += 4
		return v, nil
	}
	u64 := func() (uint64, error) {
		if off+8 > len(body) {
			return 0, fail
		}
		v := binary.LittleEndian.Uint64(body[off : off+8])
		off += 8
		return v, nil
	}
	magic, err := u32()
	if err != nil || magic != ckptMagic {
		return nil, fmt.Errorf("storage: not a checkpoint blob")
	}
	ver, err := u32()
	if err != nil || ver != ckptVersion {
		return nil, fmt.Errorf("storage: unsupported checkpoint version %d", ver)
	}
	img := &ckptImage{colors: make(map[types.ColorID]ckptColor)}
	if img.seq, err = u64(); err != nil {
		return nil, err
	}
	nColors, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nColors; i++ {
		c, e1 := u32()
		tr, e2 := u64()
		mx, e3 := u64()
		if e1 != nil || e2 != nil || e3 != nil {
			return nil, fail
		}
		img.colors[types.ColorID(c)] = ckptColor{trimmed: types.SN(tr), maxSN: types.SN(mx)}
	}
	nSegs, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nSegs; i++ {
		var s ckptSeg
		var e1, e2 error
		if s.id, e1 = u64(); e1 != nil {
			return nil, e1
		}
		if s.used, e1 = u64(); e1 != nil {
			return nil, e1
		}
		nEntries, e1 := u32()
		nMarks, e2 := u32()
		if e1 != nil || e2 != nil {
			return nil, fail
		}
		for j := uint32(0); j < nEntries; j++ {
			var en ckptEntry
			tok, e1 := u64()
			col, e2 := u32()
			eo, e3 := u64()
			pl, e4 := u32()
			fsn, e5 := u64()
			nSpans, e6 := u32()
			if e1 != nil || e2 != nil || e3 != nil || e4 != nil || e5 != nil || e6 != nil {
				return nil, fail
			}
			en.token = types.Token(tok)
			en.color = types.ColorID(col)
			en.off = eo
			en.payloadLen = int(pl)
			en.firstSN = types.SN(fsn)
			if uint64(nSpans) > uint64(len(body))/8 {
				return nil, fail
			}
			for k := uint32(0); k < nSpans; k++ {
				so, e1 := u32()
				sl, e2 := u32()
				if e1 != nil || e2 != nil {
					return nil, fail
				}
				en.spans = append(en.spans, recSpan{off: so, len: sl})
			}
			s.entries = append(s.entries, en)
		}
		for j := uint32(0); j < nMarks; j++ {
			c, e1 := u32()
			sn, e2 := u64()
			if e1 != nil || e2 != nil {
				return nil, fail
			}
			s.marks = append(s.marks, trimMark{color: types.ColorID(c), sn: types.SN(sn)})
		}
		img.segs = append(img.segs, s)
	}
	if off != len(body) {
		return nil, fmt.Errorf("storage: %d trailing bytes in checkpoint", len(body)-off)
	}
	return img, nil
}
