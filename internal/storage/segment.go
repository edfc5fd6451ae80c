package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"flexlog/internal/types"
)

// PM log layout (§5.2 "the stateful log in PM").
//
// The PM region is divided into fixed-size segments. Each segment starts
// with an 8-byte used-bytes watermark followed by a stream of entries:
//
//	[u32 kind][u32 color][u64 token][u64 sn][u32 dataLen][u32 crc][data…]
//
// The watermark is the validity frontier: recovery scans entries up to it.
// An append's entry and the watermark advance commit in one group-commit
// window (one pmem transaction), so a crash never exposes a torn entry.
// The sn field is rewritten in place when the ordering layer commits the
// record.
//
// When PM fills up, the oldest fully-committed segment is flushed verbatim
// to the SSD tier and its PM slot is reused ("a contiguous portion from the
// start of the log is flushed to SSD and removed from PM").

const (
	// segHeaderSize covers the 8-byte used-bytes watermark and the 8-byte
	// segment id.
	segHeaderSize   = 16
	entryHeaderSize = 32

	entryKindRecord = 1
	entryKindTrim   = 2
)

// segment is the DRAM descriptor of one PM segment slot.
//
// Ownership: id and pmOff are immutable; used, total and tokens are
// guarded by the store's allocator lock. slot and live are atomics because
// the lock-free read path (readLive) consults slot to pick the device
// tier, and commits/trims of different colors adjust live concurrently
// while holding only their color lock. slot only ever goes to -1.
type segment struct {
	id     uint64        // monotonically increasing; names the SSD file when flushed
	slot   atomic.Int64  // index of the PM slot holding it (-1 once it left PM)
	pmOff  uint64        // base offset of the slot in the pmem pool
	used   uint64        // bytes used including header (mirrors the PM watermark)
	live   atomic.Int64  // entries not yet trimmed
	total  int           // entries appended
	tokens []types.Token // tokens of entries in this segment (for reclamation)

	// evicting is the background evictor's claim: while set, the allocator
	// must not reuse the slot (the evictor reads the PM bytes unlocked).
	evicting atomic.Bool
	// trimMarks lists the trim markers persisted inside this segment
	// (guarded by st.alloc). Cold GC may only delete a flushed segment's
	// blob once a durable checkpoint's trim floor covers every marker —
	// otherwise a crash would lose the marker along with the blob.
	trimMarks []trimMark
}

// trimMark is one persisted trim entry: records of color with SN <= sn are
// garbage.
type trimMark struct {
	color types.ColorID
	sn    types.SN
}

// newSegment builds a descriptor; slot is -1 for flushed (SSD-only) segments.
func newSegment(id uint64, slot int, pmOff, used uint64) *segment {
	s := &segment{id: id, pmOff: pmOff, used: used}
	s.slot.Store(int64(slot))
	return s
}

func (s *segment) flushed() bool { return s.slot.Load() < 0 }

// slotIdx returns the PM slot index; only meaningful when !flushed().
func (s *segment) slotIdx() int { return int(s.slot.Load()) }

func (s *segment) ssdName() string { return fmt.Sprintf("seg-%d", s.id) }

// recSpan locates one record inside an entry's framed payload.
type recSpan struct {
	off uint32 // offset within the payload (past the entry header)
	len uint32
}

// entryLoc records where an entry (one append batch) lives.
//
// seg, off, payloadLen, spans, token and color are immutable after
// construction; buf is set before the entry is published to Commit. The
// remaining fields are atomics: they are mutated under the entry's color
// lock (Commit and Trim of one color are serialized), but read lock-free
// by the allocator paths (segmentFlushable, TokenInfo, Uncommitted) which
// hold only the allocator lock.
type entryLoc struct {
	seg        *segment
	off        uint64 // offset of the entry header within the segment
	payloadLen int    // framed payload length
	spans      []recSpan
	// buf is the entry PutEntry wrote, held until Commit fills the
	// cache from it (guarded by the color lock; nil afterwards, and for
	// entries Recover rebuilt).
	buf []byte
	// unit is the entry's cached bytes (see entryCache), guarded by the
	// lock of its cache stripe.
	unit      *cacheUnit
	token     types.Token
	color     types.ColorID
	firstSN   atomic.Uint64 // InvalidSN (0) until committed; records occupy [firstSN, firstSN+count)
	liveCount atomic.Int32  // records not yet trimmed (== len(spans) initially)
	dead      atomic.Bool   // every record trimmed
}

func (l *entryLoc) count() int { return len(l.spans) }

// first returns the committed first SN (InvalidSN while uncommitted).
func (l *entryLoc) first() types.SN { return types.SN(l.firstSN.Load()) }

// lastSN returns the SN of the final record of the batch.
func (l *entryLoc) lastSN() types.SN {
	return l.first() + types.SN(l.count()-1)
}

// killN marks n records of the entry dead and reports whether that retired
// the entry: when its last record dies, the segment's live count drops.
// Safe under any lock regime: the dead transition is a CAS.
func (l *entryLoc) killN(n int32) bool {
	if n == 0 || l.liveCount.Add(-n) != 0 || !l.dead.CompareAndSwap(false, true) {
		return false
	}
	l.seg.live.Add(-1)
	return true
}

// recordRef points at one record of a batch entry.
type recordRef struct {
	loc *entryLoc
	idx int
}

// frameEntry lays records out as a record entry in one allocation and one
// pass: entryHeaderSize bytes of header room, then the payload
// [u32 count][u32 len_i][data_i]…. The TCP frame decoders lay out an
// append batch the same way (proto.AppendBatchReq.Entry), so both reach
// PutEntry's one persist path.
func frameEntry(records [][]byte) []byte {
	payloadLen := 4
	for _, r := range records {
		payloadLen += 4 + len(r)
	}
	buf := make([]byte, entryHeaderSize+payloadLen)
	payload := buf[entryHeaderSize:]
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(records)))
	off := 4
	for _, r := range records {
		binary.LittleEndian.PutUint32(payload[off:off+4], uint32(len(r)))
		off += 4 + copy(payload[off+4:], r)
	}
	return buf
}

// sealEntry parses a laid-out record entry's payload into record spans
// and fills its header (uncommitted, with the payload's CRC).
func sealEntry(entry []byte, color types.ColorID, token types.Token) ([]recSpan, error) {
	if len(entry) < entryHeaderSize {
		return nil, fmt.Errorf("storage: %d-byte entry has no header room", len(entry))
	}
	payload := entry[entryHeaderSize:]
	spans, err := batchSpans(payload)
	if err != nil {
		return nil, err
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("storage: empty batch for token %v", token)
	}
	encodeEntryHeader(entry, entryKindRecord, color, token, types.InvalidSN, payload)
	return spans, nil
}

// batchSpans decodes the framing of a batch payload (an entry PutEntry is
// handed, or one recovered) into record spans.
func batchSpans(payload []byte) ([]recSpan, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("storage: batch payload too short")
	}
	count := binary.LittleEndian.Uint32(payload[0:4])
	// Never trust the count for allocation: every record needs at least a
	// 4-byte length prefix, so more than len(payload)/4 records cannot fit.
	if uint64(count) > uint64(len(payload))/4 {
		return nil, fmt.Errorf("storage: batch count %d impossible for %d-byte payload", count, len(payload))
	}
	spans := make([]recSpan, 0, count)
	off := uint32(4)
	for i := uint32(0); i < count; i++ {
		if int(off)+4 > len(payload) {
			return nil, fmt.Errorf("storage: truncated batch record %d", i)
		}
		l := binary.LittleEndian.Uint32(payload[off : off+4])
		off += 4
		if int(off)+int(l) > len(payload) {
			return nil, fmt.Errorf("storage: truncated batch record %d payload", i)
		}
		spans = append(spans, recSpan{off: off, len: l})
		off += l
	}
	return spans, nil
}

func entrySize(dataLen int) uint64 {
	return uint64(entryHeaderSize + dataLen)
}

// encodeEntryHeader fills a 32-byte header.
func encodeEntryHeader(buf []byte, kind uint32, color types.ColorID, token types.Token, sn types.SN, data []byte) {
	binary.LittleEndian.PutUint32(buf[0:4], kind)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(color))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(token))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(sn))
	binary.LittleEndian.PutUint32(buf[24:28], uint32(len(data)))
	binary.LittleEndian.PutUint32(buf[28:32], crc32.ChecksumIEEE(data))
}

type decodedEntry struct {
	kind    uint32
	color   types.ColorID
	token   types.Token
	sn      types.SN
	dataLen int
	crc     uint32
}

func decodeEntryHeader(buf []byte) decodedEntry {
	return decodedEntry{
		kind:    binary.LittleEndian.Uint32(buf[0:4]),
		color:   types.ColorID(binary.LittleEndian.Uint32(buf[4:8])),
		token:   types.Token(binary.LittleEndian.Uint64(buf[8:16])),
		sn:      types.SN(binary.LittleEndian.Uint64(buf[16:24])),
		dataLen: int(binary.LittleEndian.Uint32(buf[24:28])),
		crc:     binary.LittleEndian.Uint32(buf[28:32]),
	}
}

// reserveEntry claims space for one entry in the active segment, sealing it
// and rolling to a fresh one when full. It only advances the DRAM frontier;
// the PM bytes (entry + watermark) are written afterwards, through the
// group committer. A roll that waited for an eviction reserves nothing and
// returns errRollWaited. Caller holds st.alloc.
func (st *Store) reserveEntry(need uint64) (*segment, uint64, error) {
	if st.active.used+need > st.cfg.SegmentSize {
		if err := st.newActiveSegment(); err != nil {
			return nil, 0, err
		}
	}
	seg := st.active
	off := seg.used
	seg.used += need
	seg.total++
	return seg, off, nil
}

// persistEntry submits a reserved entry and its segment's new watermark
// to the group committer. Called with st.alloc held; the caller waits for
// the returned op and ticket after releasing the lock (enqueue order under the lock
// = reservation order, so the committer sees each segment's entries in
// frontier order).
func (st *Store) persistEntry(seg *segment, off uint64, buf []byte) (*gcOp, uint64) {
	return st.gc.submit(seg.pmOff+off, buf, true, seg.pmOff, off+uint64(len(buf)))
}

// commitEntrySN rewrites the sn field of an entry in place, folded into
// the current group-commit window. Caller holds the entry's color lock and
// the entry is still uncommitted, so its segment is pinned in PM
// (segmentFlushable refuses segments with uncommitted entries) and the
// in-place write cannot race a slot reuse.
func (st *Store) commitEntrySN(loc *entryLoc, sn types.SN) error {
	if loc.seg.flushed() {
		// A record can only be flushed once committed; uncommitted entries
		// always stay in PM.
		return fmt.Errorf("storage: commit of flushed entry %v", loc.token)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(sn))
	return st.gc.wait(st.gc.submit(loc.seg.pmOff+loc.off+16, buf[:], false, 0, 0))
}

// decodeSegment decodes a segment image (a PM slot or a flushed SSD file,
// starting at the segment header) into the per-segment form a checkpoint
// stores, so that recovery registers both the same way.
func decodeSegment(id uint64, raw []byte) (ckptSeg, error) {
	s := ckptSeg{id: id, used: uint64(len(raw))}
	err := scanSegment(raw, func(off uint64, e decodedEntry, data []byte) error {
		switch e.kind {
		case entryKindRecord:
			spans, err := batchSpans(data)
			if err != nil {
				return err
			}
			s.entries = append(s.entries, ckptEntry{
				token: e.token, color: e.color, off: off,
				payloadLen: e.dataLen, firstSN: e.sn, spans: spans,
			})
		case entryKindTrim:
			s.marks = append(s.marks, trimMark{color: e.color, sn: e.sn})
		}
		return nil
	})
	return s, err
}

// scanSegment walks the entries of a segment image (either a PM slot or a
// flushed SSD file) calling fn for each decoded entry. raw must start at the
// segment header.
func scanSegment(raw []byte, fn func(off uint64, e decodedEntry, data []byte) error) error {
	if len(raw) < segHeaderSize {
		return fmt.Errorf("storage: segment image too small (%d bytes)", len(raw))
	}
	used := binary.LittleEndian.Uint64(raw[0:8])
	if used > uint64(len(raw)) {
		return fmt.Errorf("storage: watermark %d beyond image %d", used, len(raw))
	}
	off := uint64(segHeaderSize)
	for off < used {
		if off+entryHeaderSize > used {
			return fmt.Errorf("storage: truncated entry header at %d", off)
		}
		e := decodeEntryHeader(raw[off : off+entryHeaderSize])
		end := off + entrySize(e.dataLen)
		if end > used {
			return fmt.Errorf("storage: truncated entry payload at %d", off)
		}
		data := raw[off+entryHeaderSize : end]
		if e.kind == entryKindRecord && crc32.ChecksumIEEE(data) != e.crc {
			return fmt.Errorf("storage: crc mismatch at %d (token %v)", off, e.token)
		}
		if err := fn(off, e, data); err != nil {
			return err
		}
		off = end
	}
	return nil
}
