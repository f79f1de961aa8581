package dataflow

import "sync"

// mailbox is an unbounded MPSC queue. Dataflow graphs with cycles can
// deadlock over bounded channels (a full mailbox blocks a sender that the
// receiver transitively depends on), so instance mailboxes grow without
// bound; memory stays bounded in practice because vertices drain their
// mailboxes unconditionally into per-bag buffers.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []envelope
	head   int // queue[:head] is consumed; slots are zeroed as they drain
	closed bool
	// hwm is the high-water mark of queue depth, the evidence behind the
	// "memory stays bounded in practice" claim above; exposed through obs
	// as the per-instance mailbox_hwm gauge.
	hwm int
	// dropped counts envelopes put after close. On a clean run nothing is
	// dropped (Stop quiesces the transport first); a nonzero count is the
	// fingerprint of a shutdown race, surfaced as JobStats.MailboxDropped
	// and the per-instance mailbox_dropped counter.
	dropped int64
}

type envKind uint8

const (
	envData envKind = iota
	envEOB
	envControl
)

type envelope struct {
	kind  envKind
	input int
	from  int
	batch []Element
	tag   Tag
	ctrl  any
	// dest is the member instance a data or EOB envelope is addressed to:
	// chained instances share the chain driver's mailbox, so the driver
	// dispatches on dest. Control envelopes carry none; they go to every
	// member of the chain (Job.Broadcast).
	dest *instance
	// ack, when non-nil, runs once the envelope has been processed by the
	// receiving vertex — or immediately on a post-close drop, so a remote
	// sender's flow-control credits are never stranded by shutdown.
	ack func()
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put enqueues an envelope and wakes the consumer.
func (m *mailbox) put(e envelope) { m.enqueue(e, true) }

// enqueue appends an envelope. It never blocks; puts after close are
// dropped and counted. With wake false a blocked consumer is left asleep:
// the envelope is processed, in order, at its next wake (a signaling put or
// close). Job.Broadcast does that for control events the vertex declared it
// cannot act on immediately (ControlWaker), so a broadcast does not
// context-switch through uninvolved instances.
func (m *mailbox) enqueue(e envelope, wake bool) {
	m.mu.Lock()
	if !m.closed {
		m.queue = append(m.queue, e)
		if d := len(m.queue) - m.head; d > m.hwm {
			m.hwm = d
		}
		if wake {
			m.cond.Signal()
		}
		m.mu.Unlock()
		return
	}
	m.dropped++
	m.mu.Unlock()
	if e.ack != nil {
		e.ack()
	}
}

// mailboxKeepCap bounds the backing array retained across drains. A
// drained queue at or below this capacity is rewound and reused, so the
// steady-state put/take cycle of a long loop allocates nothing; anything
// larger (a transient burst) is released to the collector.
const mailboxKeepCap = 256

// take dequeues the next envelope, blocking until one is available or the
// mailbox is closed. ok is false when closed and drained.
func (m *mailbox) take() (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == len(m.queue) && !m.closed {
		m.cond.Wait()
	}
	if m.head == len(m.queue) {
		return envelope{}, false
	}
	e := m.queue[m.head]
	m.queue[m.head] = envelope{} // release references
	m.head++
	if m.head == len(m.queue) {
		if cap(m.queue) > mailboxKeepCap {
			m.queue = nil
		} else {
			m.queue = m.queue[:0]
		}
		m.head = 0
	}
	return e, true
}

// highWater returns the largest queue depth observed so far.
func (m *mailbox) highWater() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hwm
}

// depth returns the current queue depth. Safe to call from any goroutine;
// the introspection sampler uses it on live jobs.
func (m *mailbox) depth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) - m.head
}

// droppedCount returns the number of envelopes dropped after close.
func (m *mailbox) droppedCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// close wakes the consumer; remaining envelopes are still delivered.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}
