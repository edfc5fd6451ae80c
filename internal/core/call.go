package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// This file is the client's request engine. The paper's client role is one
// pattern — send an idempotent request to a set of replicas, fold their
// answers, re-send until the set has answered (Alg. 1 lines 1–9, Alg. 2
// lines 3–6, §6.3 "retry") — so it is written once: an operation registers
// a call, handle folds every answer into it, and one of two loops drives
// it to an outcome. What an in-flight operation does when the client
// closes, its context ends, a replica rejects it or the membership changes
// under it is decided here, for every operation alike (DESIGN.md §6).

// call is one in-flight request. Everything but done is guarded by the
// client's mu.
type call struct {
	// fold merges one answer into the operation's result — which also holds
	// who may still answer — and reports whether the operation is complete.
	fold func(from types.NodeID, msg transport.Message) bool
	// seen dedups senders for a fold that is not idempotent: a duplicated
	// response (lossy-link DupProb) must not be counted twice. Nil when
	// folding an answer twice is harmless.
	seen map[types.NodeID]bool

	err   error         // set by a fold that ends the operation as a failure
	rej   error         // last typed rejection (ErrThrottled/ErrOverloaded/ErrReconfiguring)
	after time.Duration // its retry-after hint, surfaced with rej when the call fails
	hint  time.Duration // after, until a loop consumes it: one rejection stretches one interval

	done   chan struct{}
	closed bool
}

func newCall(fold func(from types.NodeID, msg transport.Message) bool) *call {
	return &call{fold: fold, done: make(chan struct{})}
}

// callKey names a call in the registry. Appends are keyed by their token,
// everything else by a request id; the two are separate key spaces (the
// tokens of a client with FID 0 are small integers, like request ids).
type callKey struct {
	id      uint64
	isToken bool
}

func tokenKey(t types.Token) callKey { return callKey{uint64(t), true} }
func idKey(id uint64) callKey        { return callKey{id: id} }

// register enters a call into the registry; a closed client takes none.
func (c *Client) register(key callKey, w *call) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.calls[key] = w
	return nil
}

// unregister retires a call: whatever arrives for it from now on is
// dropped, so its operation may read the folded result without the lock.
func (c *Client) unregister(key callKey, w *call) {
	c.mu.Lock()
	w.completeLocked(true)
	delete(c.calls, key)
	c.mu.Unlock()
}

// completeLocked closes the call if complete says so and it still is open,
// and reports whether it is closed. Caller holds the client's mu.
func (w *call) completeLocked(complete bool) bool {
	if complete && !w.closed {
		w.closed = true
		close(w.done)
	}
	return w.closed
}

// handle folds a response into the call it answers.
func (c *Client) handle(from types.NodeID, msg transport.Message) {
	var key callKey
	switch m := msg.(type) {
	case proto.AppendAck:
		key = tokenKey(m.Token)
	case proto.ReadResp:
		key = idKey(m.ID)
	case proto.SubscribeResp:
		key = idKey(m.ID)
	case proto.TrimAck:
		key = idKey(m.ID)
	case proto.MultiAppendAck:
		key = idKey(m.ID)
	case proto.Reject:
		if key = idKey(m.ID); !m.IsRead {
			key = tokenKey(m.Token)
		}
	default:
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.calls[key]
	// The closed guard covers every mutation, not just the close: a
	// duplicated answer arriving after completion must not touch the result
	// while the operation is reading it.
	if w == nil || w.closed {
		return
	}
	if w.seen != nil {
		if w.seen[from] {
			return
		}
		w.seen[from] = true
	}
	if m, ok := msg.(proto.Reject); ok {
		// Typed backpressure: a replica refused the request — admission
		// control (throttled, with a refill-derived retry-after), a full
		// lane queue (overloaded) or the control plane (reconfiguring). The
		// loops wait max(hint, backoff) before re-driving and surface the
		// cause if the operation fails first. The fold still sees it: what
		// a refusal means for completion is the operation's to say.
		w.rej, w.after, w.hint = rejectCause(m.Code), m.RetryAfter(), m.RetryAfter()
	}
	w.completeLocked(w.fold(from, msg))
}

func rejectCause(code uint8) error {
	switch code {
	case proto.RejectThrottled:
		return ErrThrottled
	case proto.RejectReconfiguring:
		return ErrReconfiguring
	}
	return ErrOverloaded
}

// takeHint consumes the call's pending retry-after hint.
func (c *Client) takeHint(w *call) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	hint := w.hint
	w.hint = 0
	return hint
}

// failure is the error of a call that ended on cause without completing.
// If a replica was rejecting it, the error carries the typed cause and the
// server's hint beside cause: overload is never silent, and a caller
// driving its own retries learns when capacity will exist again.
func (c *Client) failure(w *call, cause error) error {
	c.mu.Lock()
	rej, after := w.rej, w.after
	c.mu.Unlock()
	if rej == nil {
		return cause
	}
	return &RetryAfterError{Err: fmt.Errorf("%w: %w", cause, rej), After: after}
}

// await is the resend loop, the shape of append, trim and the multi-append
// end marker: one registered call kept alive until its fold completes it.
// Each time an interval passes unanswered — the jittered backoff, or the
// server's retry-after hint if longer — resend re-resolves the membership
// the operation depends on, rebuilds its barrier from it and re-broadcasts
// the (idempotent) request; an error from resend is final. A hint longer
// than the time left does not hold the operation past its Timeout.
//
// The select is written out here and in round rather than shared, and the
// batcher calls await directly: a batch's goroutine runs this loop on a
// fresh 2 KiB stack, and with two more frames between it and the select,
// arming the timer overflowed that stack — every batch paid for growing
// it, 2 % of a saturated client's CPU.
func (c *Client) await(ctx context.Context, w *call, resend func() error) error {
	deadline := time.Now().Add(c.cfg.Timeout)
	bo := c.newBackoff()
	for {
		interval := min(bo.nextAfter(c.takeHint(w)), time.Until(deadline))
		select {
		case <-w.done:
			return w.err // set before done closed, and never after
		case <-ctx.Done():
			return c.failure(w, ctx.Err())
		case <-c.closedCh:
			return ErrClosed
		case <-time.After(interval):
		}
		if time.Now().After(deadline) {
			return c.failure(w, ErrTimeout)
		}
		if err := resend(); err != nil {
			return err
		}
	}
}

// rounds is the round loop, the shape of read and subscribe: every round
// is a fresh call against a fresh random replica of each shard the region
// has now — §6.3 "forces the FaaS application to re-execute the read" — so
// a split shard is consulted and a merged-away one cannot wedge the
// operation. The round's window doubles as the retry pacing; a retry-after
// hint from the previous round stretches it, so a throttled client never
// hammers. once returns nil when its round settled the operation.
func (c *Client) rounds(ctx context.Context, color types.ColorID, once func(shards []topology.ShardInfo, window time.Duration) error) error {
	shards := c.topo.ShardsInRegion(color)
	if len(shards) == 0 {
		return fmt.Errorf("flexlog: no shards for %v", color)
	}
	deadline := time.Now().Add(c.cfg.Timeout)
	bo := c.newBackoff()
	var hint time.Duration
	for {
		err := once(shards, bo.nextAfter(hint))
		if err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrClosed) || ctx.Err() != nil {
			return err
		}
		if time.Now().After(deadline) {
			// Keep the last round's cause matchable (e.g. ErrEvicted when
			// every retry found the cold tier unavailable).
			return fmt.Errorf("%w: %w", ErrTimeout, err)
		}
		hint = retryAfterHint(err)
		if cur := c.topo.ShardsInRegion(color); len(cur) > 0 {
			shards = cur
		}
	}
}

// errRoundUnanswered ends a round some shard gave no authoritative answer
// in; the round loop retries it.
var errRoundUnanswered = errors.New("a shard did not answer the round")

// pick draws a round's request id and one random replica of each shard.
func (c *Client) pick(shards []topology.ShardInfo) (uint64, []types.NodeID) {
	targets := make([]types.NodeID, len(shards))
	c.mu.Lock()
	for i, sh := range shards {
		targets[i] = sh.Replicas[c.rng.Intn(len(sh.Replicas))]
	}
	c.mu.Unlock()
	return c.reqSeq.Add(1), targets
}

// round runs one round: register w under id, send req to the targets, wait
// out the window, retire w. A round's fold counts answers, so senders are
// deduped. A read passes hedge: once the round has outlived hedgeAfter the
// hook clones the request to backup replicas and the wait goes on.
func (c *Client) round(ctx context.Context, id uint64, w *call, targets []types.NodeID, req transport.Message, window, hedgeAfter time.Duration, hedge func()) error {
	w.seen = make(map[types.NodeID]bool, len(targets))
	if err := c.register(idKey(id), w); err != nil {
		return err
	}
	defer c.unregister(idKey(id), w)
	for _, t := range targets {
		c.ep.Send(t, req)
	}
	// Two legs: up to the hedge (empty without one), then the rest.
	for i, leg := range [2]time.Duration{hedgeAfter, window - hedgeAfter} {
		if leg <= 0 {
			continue
		}
		select {
		case <-w.done:
			return nil
		case <-ctx.Done():
			return c.failure(w, ctx.Err())
		case <-c.closedCh:
			return ErrClosed
		case <-time.After(leg):
		}
		if i == 0 {
			hedge()
		}
	}
	return c.failure(w, errRoundUnanswered)
}
