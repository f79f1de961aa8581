package dataflow

import "sync"

// Queue is the engine's one unbounded FIFO, with a blocking Take and safe
// for any number of producers and consumers. It is every instance's
// mailbox, the egress queue of every cross-machine link (one per machine
// pair on the simulated cluster's loopback Remote, both lanes of every TCP
// peer link) and a TCP worker's host-event hand-off. Unbounded is
// deliberate — a dataflow graph with cycles can deadlock over bounded
// queues (a full mailbox blocks a sender the receiver transitively depends
// on). Memory stays bounded in practice because vertices drain their
// mailboxes unconditionally into per-bag buffers and a host flushes at most
// a bag before its next input; HighWater is the evidence.
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
	hwm    int   // largest depth reached by an accepted put
	drops  int64 // puts refused after Close
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond.L = &q.mu
	return q
}

// Put enqueues v and wakes a blocked Take. It never blocks. Once the queue
// is closed it reports false, counts the refusal (Dropped) and takes no
// ownership of v.
func (q *Queue[T]) Put(v T) bool { return q.put(v, true) }

// PutQuiet enqueues v like Put but leaves a blocked Take asleep: v is
// taken, in order, at the consumer's next wake — a Put or Close.
// Job.Broadcast uses it for control events no member of a chain can act
// on yet (ControlWaker), so a broadcast does not context-switch through
// uninvolved instances.
func (q *Queue[T]) PutQuiet(v T) bool { return q.put(v, false) }

func (q *Queue[T]) put(v T, wake bool) bool {
	q.mu.Lock()
	if q.closed {
		q.drops++
		q.mu.Unlock()
		return false
	}
	q.q = append(q.q, v)
	q.hwm = max(q.hwm, len(q.q)-q.head)
	if wake {
		q.cond.Signal()
	}
	q.mu.Unlock()
	return true
}

// queueCompactAt is the smallest consumed prefix a backlogged queue moves
// its live tail down over.
const queueCompactAt = 1024

// waitHook, when a test sets it, runs every time a Take blocks: each call
// is one goroutine parked on an empty queue, and later woken. It may be
// called from many goroutines at once.
var waitHook func()

// SetWaitHook installs fn as waitHook, for tests outside this package; nil
// removes it. Not safe while a job runs.
func SetWaitHook(fn func()) { waitHook = fn }

// Take dequeues the next value, blocking while the queue is open and empty.
// After Close it drains the backlog, then reports false.
func (q *Queue[T]) Take() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.q) && !q.closed {
		if waitHook != nil {
			waitHook()
		}
		q.cond.Wait()
	}
	var zero T
	if q.head == len(q.q) {
		return zero, false
	}
	v := q.q[q.head]
	q.q[q.head] = zero // release references
	q.head++
	// Compact once the consumed prefix is at least as long as the live
	// tail: each move is paid for by as many takes, so a deep backlog
	// drains in linear time.
	if live := len(q.q) - q.head; live == 0 || (q.head > queueCompactAt && live <= q.head) {
		copy(q.q, q.q[q.head:])
		clear(q.q[q.head:]) // the moved-from slots; q[live:head] drained already
		q.q, q.head = q.q[:live], 0
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

// HighWater returns the largest depth the queue has reached.
func (q *Queue[T]) HighWater() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.hwm
}

// Dropped returns the number of puts refused after Close. On a clean run
// nothing is refused; a nonzero count is the fingerprint of a shutdown
// race, surfaced as JobStats.MailboxDropped.
func (q *Queue[T]) Dropped() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.drops
}

// Close wakes every blocked Take; already-queued values are still
// delivered. Closing twice is harmless.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
