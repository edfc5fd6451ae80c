// Package combine is the write path's one batching rule, a flat-combining
// queue: the first caller that finds no flush running flushes its own item
// and everything that queues behind it, in FIFO batches, until the queue is
// empty. Work that arrives during a flush shares the next one; nothing
// waits on a timer. TCP vectored writes, PM group commit and order-request
// coalescing use it (DESIGN.md §8).
package combine

import "sync"

// Queue is a flat-combining queue of T. Its lock is never held across the
// flush callback, and once its two arrays have grown a batch allocates
// nothing.
type Queue[T any] struct {
	max   int
	flush func(batch []T)

	mu       sync.Mutex
	returned sync.Cond // on mu: a batch returned
	items    []T       // queued, not yet in a batch
	spare    []T       // the last batch's array, reused as the next queue
	added    uint64    // the k-th item added has ticket k
	done     uint64    // every ticket ≤ done has been flushed
	flushing bool
}

// New returns a queue that hands flush at most max (≥ 1) items at a time,
// one call at a time. flush must not keep batch: its slots are zeroed after.
func New[T any](max int, flush func(batch []T)) *Queue[T] {
	q := &Queue[T]{max: max, flush: flush}
	q.returned.L = &q.mu
	return q
}

// Add queues item and returns its ticket. It does not flush.
func (q *Queue[T]) Add(item T) uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = append(q.items, item)
	q.added++
	return q.added
}

// Wait blocks until the flush call carrying ticket t has returned,
// running the flush itself if none is running. Ticket 0 returns at once.
func (q *Queue[T]) Wait(t uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.done < t {
		if q.flushing {
			q.returned.Wait()
		} else {
			q.lead()
		}
	}
}

// Kick flushes if no flush is running, and otherwise returns at once: the
// running flusher takes what is queued before it stops.
func (q *Queue[T]) Kick() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.flushing {
		q.lead()
	}
}

// Last returns the ticket of the last item added (0 before the first).
func (q *Queue[T]) Last() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.added
}

// Len returns the number of items not yet flushed, counting a running
// batch: zero means nothing is queued and no flush is running.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int(q.added - q.done)
}

// lead flushes until the queue is empty. Called with mu held.
func (q *Queue[T]) lead() {
	q.flushing = true
	for len(q.items) > 0 {
		n := min(len(q.items), q.max)
		batch, rest := q.items[:n], q.items[n:]
		q.items, q.spare = append(q.spare[:0], rest...), nil
		clear(rest)
		q.mu.Unlock()
		q.flush(batch)
		clear(batch)
		q.mu.Lock()
		q.done += uint64(n)
		q.spare = batch[:0]
		q.returned.Broadcast()
	}
	q.flushing = false
}
