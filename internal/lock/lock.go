// Package lock implements distributed locking over the shared log — one of
// the "fundamental primitives" §5.1 says FlexLog can provide beyond
// serverless ("distributed locking [22, 49]"), in the style of a
// ZooKeeper-like lock queue rebuilt on a colored log.
//
// The protocol: a lock is a color. To acquire, a client appends an
// `acquire <holder>` record; the log's total order within the color forms
// the wait queue. The holder of the lock is the oldest acquire record that
// has no matching `release`. Because the color's sequencer is the single
// point of serialization (§5.1), two clients can never both see themselves
// at the head of the queue — mutual exclusion reduces to the log's
// linearizability (§7, Theorem 1).
package lock

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/types"
)

var (
	// ErrNotHeld is returned when releasing a lock the caller doesn't hold.
	ErrNotHeld = errors.New("lock: not held by caller")
	// ErrTimeout is returned when ctx ends before acquisition.
	ErrTimeout = errors.New("lock: acquisition timed out")
)

// record is one lock-log entry.
type record struct {
	Kind   string `json:"kind"` // "acquire" | "release"
	Holder string `json:"holder"`
	Seq    uint64 `json:"seq"` // matches a release to its acquire
}

// Lock is a handle to one distributed lock (one color).
type Lock struct {
	color  types.ColorID
	handle *core.Client
	holder string
	// PollInterval is the queue re-check cadence while waiting.
	PollInterval time.Duration

	acquiredAt types.SN // SN of our acquire record while held
}

// New binds a lock handle for the given holder identity to a color.
func New(handle *core.Client, color types.ColorID, holder string) *Lock {
	return &Lock{color: color, handle: handle, holder: holder, PollInterval: 2 * time.Millisecond}
}

// Create provisions the lock's color and binds a handle.
func Create(handle *core.Client, color, parent types.ColorID, holder string) (*Lock, error) {
	if err := handle.AddColor(color, parent); err != nil {
		return nil, err
	}
	return New(handle, color, holder), nil
}

// Acquire appends an acquire record and waits until it reaches the head
// of the wait queue (all earlier acquires released).
func (l *Lock) Acquire(ctx context.Context) error {
	if l.acquiredAt.Valid() {
		return fmt.Errorf("lock: %s already holds the lock", l.holder)
	}
	seq := uint64(time.Now().UnixNano())
	enc, err := json.Marshal(record{Kind: "acquire", Holder: l.holder, Seq: seq})
	if err != nil {
		return err
	}
	sn, err := l.handle.Append([][]byte{enc}, l.color)
	if err != nil {
		return err
	}
	for {
		head, err := l.queueHead()
		if err != nil {
			return err
		}
		if head == sn {
			l.acquiredAt = sn
			return nil
		}
		select {
		case <-ctx.Done():
			// Withdraw from the queue so we don't deadlock successors.
			relEnc, _ := json.Marshal(record{Kind: "release", Holder: l.holder, Seq: seq})
			l.handle.Append([][]byte{relEnc}, l.color)
			return ErrTimeout
		case <-time.After(l.PollInterval):
		}
	}
}

// Release appends the matching release record.
func (l *Lock) Release() error {
	if !l.acquiredAt.Valid() {
		return ErrNotHeld
	}
	// Find our acquire's Seq to pair the release.
	recs, err := l.handle.Subscribe(l.color, types.InvalidSN)
	if err != nil {
		return err
	}
	var seq uint64
	found := false
	for _, r := range recs {
		if r.SN == l.acquiredAt {
			var rec record
			if json.Unmarshal(r.Data, &rec) == nil {
				seq, found = rec.Seq, true
			}
		}
	}
	if !found {
		// Our acquire was trimmed away while held — treat as released.
		l.acquiredAt = types.InvalidSN
		return nil
	}
	enc, err := json.Marshal(record{Kind: "release", Holder: l.holder, Seq: seq})
	if err != nil {
		return err
	}
	if _, err := l.handle.Append([][]byte{enc}, l.color); err != nil {
		return err
	}
	l.acquiredAt = types.InvalidSN
	return nil
}

// queueHead returns the SN of the oldest unreleased acquire record, or
// InvalidSN when the lock is free.
func (l *Lock) queueHead() (types.SN, error) {
	recs, err := l.handle.Subscribe(l.color, types.InvalidSN)
	if err != nil {
		return types.InvalidSN, err
	}
	released := make(map[uint64]int)
	type pending struct {
		sn  types.SN
		seq uint64
	}
	var queue []pending
	for _, r := range recs {
		var rec record
		if json.Unmarshal(r.Data, &rec) != nil {
			continue
		}
		switch rec.Kind {
		case "acquire":
			queue = append(queue, pending{sn: r.SN, seq: rec.Seq})
		case "release":
			released[rec.Seq]++
		}
	}
	for _, p := range queue {
		if released[p.seq] > 0 {
			released[p.seq]--
			continue
		}
		return p.sn, nil
	}
	return types.InvalidSN, nil
}
