// Package queue implements the message-queue abstraction of the paper's
// Listing 1: a queue is a colored log; Enqueue appends, Get reads by
// index, and Lookup subscribes until an expected record appears. It is the
// inter-function communication primitive §3.2 motivates ("a shared log can
// be used for inter-process communication (building serverless message
// queues)").
package queue

import (
	"bytes"
	"context"
	"errors"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/types"
)

// ErrNotFound is returned by Lookup when the record does not appear before
// the context is done.
var ErrNotFound = errors.New("queue: record not found")

// MessageQueue is a queue defined by a color (Listing 1).
type MessageQueue struct {
	color  types.ColorID
	handle *core.Client
	// PollInterval is the subscribe retry cadence of Lookup.
	PollInterval time.Duration
}

// New binds a queue to an existing color.
func New(handle *core.Client, color types.ColorID) *MessageQueue {
	return &MessageQueue{color: color, handle: handle, PollInterval: 2 * time.Millisecond}
}

// Create provisions the color (AddColor) and binds a queue to it.
// Creating an existing color is a no-op, so concurrent creators converge.
func Create(handle *core.Client, color, parent types.ColorID) (*MessageQueue, error) {
	if err := handle.AddColor(color, parent); err != nil {
		return nil, err
	}
	return New(handle, color), nil
}

// Enqueue appends one message and returns its index (SN).
func (mq *MessageQueue) Enqueue(record []byte) (types.SN, error) {
	return mq.handle.Append([][]byte{record}, mq.color)
}

// Get returns the record at the given index (Listing 1's Get).
func (mq *MessageQueue) Get(idx types.SN) ([]byte, error) {
	return mq.handle.Read(idx, mq.color)
}

// Lookup polls the queue until a record equal to expected appears and
// returns its index (Listing 1's getIdx), or ErrNotFound when ctx ends.
func (mq *MessageQueue) Lookup(ctx context.Context, expected []byte) (types.SN, error) {
	return mq.LookupFunc(ctx, func(b []byte) bool { return bytes.Equal(b, expected) })
}

// LookupFunc polls until a record matching f appears.
func (mq *MessageQueue) LookupFunc(ctx context.Context, f func([]byte) bool) (types.SN, error) {
	for {
		records, err := mq.handle.Subscribe(mq.color, types.InvalidSN)
		if err != nil {
			return types.InvalidSN, err
		}
		for _, r := range records {
			if f(r.Data) {
				return r.SN, nil
			}
		}
		select {
		case <-ctx.Done():
			return types.InvalidSN, ErrNotFound
		case <-time.After(mq.PollInterval):
		}
	}
}
