// Package kv implements a durable, consistent key-value map materialized
// from a colored log — the "high-level data structures, e.g., Durable
// Objects, that are durable, scalable and consistent because they hide a
// consensus protocol behind their API" of §3.2, in the style of Tango
// objects over a shared log.
//
// Every mutation is an event appended to the store's color; the map state
// is the deterministic fold of the event sequence. Because the color is
// linearizable (§7, Theorem 1), every client that replays the log derives
// the same state, and read-your-writes follows from replaying at least up
// to one's own append. Checkpoint folds the current state into a snapshot
// record and trims the events it covers, bounding replay cost.
package kv

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"flexlog/internal/core"
	"flexlog/internal/types"
)

// ErrNotFound is returned for absent keys.
var ErrNotFound = errors.New("kv: key not found")

// event is one log entry.
type event struct {
	Kind  string            `json:"kind"` // "put" | "del" | "snap"
	Key   string            `json:"key,omitempty"`
	Value string            `json:"value,omitempty"`
	State map[string]string `json:"state,omitempty"` // snapshots only
	UpTo  types.SN          `json:"up_to,omitempty"` // snapshots: highest folded SN
}

// Store is a key-value map backed by one color. Multiple Store handles
// (across processes) bound to the same color observe the same linearizable
// history.
type Store struct {
	color  types.ColorID
	handle *core.Client

	mu      sync.Mutex
	state   map[string]string
	applied types.SN // highest SN folded into state
}

// New binds a store to an existing color.
func New(handle *core.Client, color types.ColorID) *Store {
	return &Store{color: color, handle: handle, state: make(map[string]string)}
}

// Create provisions the color and binds a store.
func Create(handle *core.Client, color, parent types.ColorID) (*Store, error) {
	if err := handle.AddColor(color, parent); err != nil {
		return nil, err
	}
	return New(handle, color), nil
}

// Put stores key=value. The write is durable and totally ordered when Put
// returns.
func (s *Store) Put(key, value string) error {
	return s.append(event{Kind: "put", Key: key, Value: value})
}

// Delete removes a key.
func (s *Store) Delete(key string) error {
	return s.append(event{Kind: "del", Key: key})
}

func (s *Store) append(ev event) error {
	enc, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	sn, err := s.handle.Append([][]byte{enc}, s.color)
	if err != nil {
		return err
	}
	// Fold our own write immediately when it directly extends our view
	// (read-your-writes without a replay); any gap defers to Sync.
	s.mu.Lock()
	if sn == s.applied+1 {
		s.applyLocked(ev)
		s.applied = sn
	}
	s.mu.Unlock()
	return nil
}

// applyLocked folds one mutation into state. Caller holds s.mu.
// Snapshot events are handled by Sync, not here.
func (s *Store) applyLocked(ev event) {
	switch ev.Kind {
	case "put":
		s.state[ev.Key] = ev.Value
	case "del":
		delete(s.state, ev.Key)
	}
}

// Sync replays all log events this handle has not folded yet. Get calls
// Sync first, so reads are linearizable with respect to completed writes.
//
// Snapshot handling: a snapshot covers the mutations with SN <= UpTo; a
// concurrent writer's mutation can land between UpTo and the snapshot's
// own SN, so replay loads the newest useful snapshot first and then folds
// every surviving mutation above max(applied, UpTo) in order — including
// those that interleaved with the snapshot append.
func (s *Store) Sync() error {
	s.mu.Lock()
	from := s.applied
	s.mu.Unlock()
	records, err := s.handle.Subscribe(s.color, from)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Pass 1: find the newest snapshot that is ahead of our fold point.
	events := make([]event, len(records))
	for i, r := range records {
		if err := json.Unmarshal(r.Data, &events[i]); err != nil {
			return fmt.Errorf("kv: corrupt event at %v: %w", r.SN, err)
		}
	}
	for i := len(records) - 1; i >= 0; i-- {
		ev := events[i]
		if ev.Kind != "snap" || records[i].SN <= s.applied || ev.UpTo < s.applied {
			continue
		}
		s.state = make(map[string]string, len(ev.State))
		for k, v := range ev.State {
			s.state[k] = v
		}
		s.applied = ev.UpTo
		break
	}
	// Pass 2: fold surviving mutations above the fold point, in order.
	maxSN := s.applied
	for i, r := range records {
		if r.SN > maxSN {
			maxSN = r.SN
		}
		if r.SN <= s.applied || events[i].Kind == "snap" {
			continue
		}
		s.applyLocked(events[i])
		s.applied = r.SN
	}
	if maxSN > s.applied {
		s.applied = maxSN
	}
	return nil
}

// Get returns the value for key after syncing with the log.
func (s *Store) Get(key string) (string, error) {
	if err := s.Sync(); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.state[key]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return v, nil
}

// Snapshot returns a copy of the current state after syncing.
func (s *Store) Snapshot() (map[string]string, error) {
	if err := s.Sync(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.state))
	for k, v := range s.state {
		out[k] = v
	}
	return out, nil
}

// Checkpoint appends a snapshot of the current state and trims every event
// it covers, bounding the replay cost of future handles (the log-compaction
// pattern of log-structured protocols).
func (s *Store) Checkpoint() error {
	if err := s.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	state := make(map[string]string, len(s.state))
	for k, v := range s.state {
		state[k] = v
	}
	upTo := s.applied
	s.mu.Unlock()

	enc, err := json.Marshal(event{Kind: "snap", State: state, UpTo: upTo})
	if err != nil {
		return err
	}
	if _, err := s.handle.Append([][]byte{enc}, s.color); err != nil {
		return err
	}
	// Trim exactly what the snapshot covers. Mutations that interleaved
	// with the snapshot append have SN > upTo, so they survive the trim
	// and Sync folds them on top of the snapshot.
	_, _, err = s.handle.Trim(upTo, s.color)
	return err
}
