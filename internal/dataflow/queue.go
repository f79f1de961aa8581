package dataflow

import "sync"

// Queue is an unbounded FIFO with a blocking Take, safe for any number of
// producers and consumers. It is the egress queue of every cross-machine
// link: one per machine pair on the simulated cluster's loopback Remote,
// and both lanes of every TCP peer link. Unbounded is deliberate — a
// dataflow graph with cycles can deadlock over bounded queues, and the
// sender-side memory bound comes from the emit granularity instead (a host
// flushes at most a bag before its next input).
//
// The consumed prefix is tracked by a head index rather than by re-slicing,
// so a drained queue keeps its backing array and the steady-state Put/Take
// cycle allocates nothing.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond
	q      []T
	head   int // q[:head] is consumed; slots are zeroed as they drain
	closed bool
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond.L = &q.mu
	return q
}

// Put enqueues v. It never blocks. Once the queue is closed it reports
// false and takes no ownership of v.
func (q *Queue[T]) Put(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.q = append(q.q, v)
	q.cond.Signal()
	return true
}

// queueCompactAt bounds the consumed prefix a backlogged queue carries
// before its live tail is moved down to the front of the backing array.
const queueCompactAt = 1024

// Take dequeues the next value, blocking while the queue is open and empty.
// After Close it drains the backlog, then reports false.
func (q *Queue[T]) Take() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.q) && !q.closed {
		q.cond.Wait()
	}
	var zero T
	if q.head == len(q.q) {
		return zero, false
	}
	v := q.q[q.head]
	q.q[q.head] = zero // release references
	q.head++
	if q.head == len(q.q) || q.head > queueCompactAt {
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:]) // the moved-from slots must not pin what they held
		q.q, q.head = q.q[:n], 0
	}
	return v, true
}

// Depth returns the number of queued, not-yet-taken values. Safe to call
// from any goroutine; the introspection samplers use it on live jobs.
func (q *Queue[T]) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.q) - q.head
}

// Close wakes every blocked Take; already-queued values are still
// delivered.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
