package pmem

import "fmt"

// Tx is an undo-log transaction over a Pool, mirroring PMDK's
// BEGIN/PUT/GET/COMMIT/ROLLBACK API. Stores made through a Tx are applied to
// the arena immediately, but the pre-images are retained in the undo log:
// Abort (or crash recovery) restores them, Commit discards them.
//
// A Tx must be used by a single goroutine; distinct transactions on the same
// pool may run concurrently and the caller is responsible for not making
// them overlap in address ranges (as with libpmemobj).
type Tx struct {
	pool  *Pool
	id    uint64
	undo  *undoLog // nil once the transaction finished
	state txState
}

type txState int

const (
	txActive txState = iota
	txCommitted
	txAborted
)

// undoLog holds a transaction's pre-images back to back in one buffer.
// A finished transaction hands its log back to the pool, and the next
// Begin reuses it, so a transaction's snapshots allocate nothing once the
// buffer has grown to the pool's usual transaction size.
type undoLog struct {
	recs []undoRecord
	buf  []byte
}

// undoRecord is the pre-image of [off, off+end-start) at buf[start:end].
type undoRecord struct {
	off        uint64
	start, end int
}

// Begin starts a transaction.
func (p *Pool) Begin() (*Tx, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return nil, ErrCrashed
	}
	p.txSeq++
	undo := p.spareUndo
	if undo == nil {
		undo = &undoLog{}
	}
	p.spareUndo = nil
	tx := &Tx{pool: p, id: p.txSeq, undo: undo}
	p.active[tx.id] = tx
	return tx, nil
}

// Put transactionally stores data at off: the previous contents are
// snapshotted to the undo log first (charged as an extra device write, as
// PMDK does), then the new data is applied.
func (tx *Tx) Put(off uint64, data []byte) error { return tx.PutV(off, data) }

// PutV is Put of the concatenation of parts, without concatenating them:
// one undo snapshot and one data write cover the whole range, exactly as
// a Put of the joined bytes would.
func (tx *Tx) PutV(off uint64, parts ...[]byte) error {
	n := 0
	for _, b := range parts {
		n += len(b)
	}
	p := tx.pool
	p.mu.Lock()
	// The state is checked under the lock: Recover may have rolled the
	// transaction back (and taken its log) since the caller last used it.
	if tx.state != txActive {
		p.mu.Unlock()
		return ErrTxDone
	}
	if p.crashed {
		p.mu.Unlock()
		return ErrCrashed
	}
	if off+uint64(n) > uint64(len(p.data)) {
		p.mu.Unlock()
		return ErrOutOfRange
	}
	u := tx.undo
	start := len(u.buf)
	u.buf = append(u.buf, p.data[off:off+uint64(n)]...)
	u.recs = append(u.recs, undoRecord{off: off, start: start, end: len(u.buf)})
	at := off
	for _, b := range parts {
		at += uint64(copy(p.data[at:], b))
	}
	p.mu.Unlock()
	// One write for the undo snapshot, one for the data itself.
	p.model.waitWrite(n)
	p.model.waitWrite(n)
	p.count(func(s *Stats) { s.Writes += 2; s.BytesWritten += 2 * uint64(n) })
	return nil
}

// Commit makes the transaction's stores durable and discards the undo log.
func (tx *Tx) Commit() error {
	p := tx.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	// Checked under the lock, as in PutV: a concurrent Recover may have
	// rolled the transaction back and taken its log.
	if tx.state != txActive {
		return ErrTxDone
	}
	if p.crashed {
		return ErrCrashed
	}
	tx.state = txCommitted
	tx.releaseUndoLocked(p)
	delete(p.active, tx.id)
	p.stats.TxCommits++
	return nil
}

// Abort rolls every store of the transaction back.
func (tx *Tx) Abort() error {
	p := tx.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	// Checked under the lock, as in PutV: a concurrent Recover may have
	// rolled the transaction back and taken its log.
	if tx.state != txActive {
		return ErrTxDone
	}
	if p.crashed {
		return ErrCrashed
	}
	tx.applyUndoLocked(p)
	tx.state = txAborted
	delete(p.active, tx.id)
	p.stats.TxAborts++
	return nil
}

// applyUndoLocked restores pre-images in reverse order, then hands the log
// back. Caller holds p.mu.
func (tx *Tx) applyUndoLocked(p *Pool) {
	u := tx.undo
	for i := len(u.recs) - 1; i >= 0; i-- {
		r := u.recs[i]
		copy(p.data[r.off:], u.buf[r.start:r.end])
	}
	tx.releaseUndoLocked(p)
}

// releaseUndoLocked empties the transaction's log and keeps it for the
// next Begin. Caller holds p.mu.
func (tx *Tx) releaseUndoLocked(p *Pool) {
	u := tx.undo
	tx.undo = nil
	u.recs, u.buf = u.recs[:0], u.buf[:0]
	p.spareUndo = u
}

func (tx *Tx) String() string {
	n := 0
	if tx.undo != nil {
		n = len(tx.undo.recs)
	}
	return fmt.Sprintf("pmem.Tx(id=%d, undo=%d, state=%d)", tx.id, n, tx.state)
}
