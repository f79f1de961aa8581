package netcluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// Credit-based per-edge flow control (the discipline Flink uses on its
// network stack): each (consumer op, consumer instance, input slot,
// producer instance) channel on a peer link starts with window credits.
// Sending a data or EOB frame consumes one; the receiver returns it only
// after the consuming vertex has fully processed the frame, or the event
// loop has parked it in its channel's queue because the vertex cannot use
// it yet (dataflow.InputGate). A producer whose window is exhausted blocks
// in acquire — so a slow consumer bounds the sender's in-flight memory at
// window frames per channel instead of growing an egress queue without
// bound. A parked frame's credit returns as it parks: the per-peer sender
// must never wait on a channel whose frames wait for frames queued behind
// it on the same peer.
//
// Liveness, documented in DESIGN.md: only the per-peer sender goroutine
// (mesh.sendFrames) ever blocks in acquire. Dataflow event loops and peer
// read loops hand frames to the egress queue without blocking, so they
// keep draining mailboxes and returning credits no matter how congested
// the link is — which is exactly what keeps the grants flowing that
// unblock the sender. The sender flushes its buffered frames before it
// blocks (tryAcquire first), so the frames whose processing returns its
// credit are on the wire, not in its buffer. Credit grants themselves
// travel on a separate ungated lane (mesh.sendGrants), so a return can
// never queue behind a frame that is itself waiting for credit.

// chanKey identifies one flow-controlled channel on a peer link.
type chanKey struct {
	op, inst, input, from int
}

// credits is the sender-side credit table of one peer link.
type credits struct {
	mu     sync.Mutex
	cond   *sync.Cond
	window int
	avail  map[chanKey]int // missing key = full window
	closed bool

	inFlight    int // frames sent but not yet acknowledged, across channels
	maxInFlight int // high-water mark; the slow-consumer test's evidence

	stalls     atomic.Int64
	stallNanos atomic.Int64
}

func newCredits(window int) *credits {
	c := &credits{window: window, avail: make(map[chanKey]int)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// tryAcquire takes one credit for k if the window has one, without
// waiting. It reports false when the window is exhausted or the table is
// closed; the sender then flushes what it has buffered before it blocks
// in acquire.
func (c *credits) tryAcquire(k chanKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.availLocked(k) == 0 {
		return false
	}
	c.takeLocked(k)
	return true
}

// acquire takes one credit for k, blocking while the window is exhausted.
// It reports false once the table is closed (session teardown): the frame
// must then be dropped, not sent.
func (c *credits) acquire(k chanKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.availLocked(k) == 0 && !c.closed {
		c.stalls.Add(1)
		t0 := time.Now()
		for c.availLocked(k) == 0 && !c.closed {
			c.cond.Wait()
		}
		c.stallNanos.Add(time.Since(t0).Nanoseconds())
	}
	if c.closed {
		return false
	}
	c.takeLocked(k)
	return true
}

// availLocked returns k's available credits. Caller holds c.mu.
func (c *credits) availLocked(k chanKey) int {
	if a, ok := c.avail[k]; ok {
		return a
	}
	return c.window
}

// takeLocked consumes one of k's credits. Caller holds c.mu.
func (c *credits) takeLocked(k chanKey) {
	c.avail[k] = c.availLocked(k) - 1
	c.inFlight++
	c.maxInFlight = max(c.maxInFlight, c.inFlight)
}

// grant returns n credits for k (the receiver processed n frames).
func (c *credits) grant(k chanKey, n int) {
	c.mu.Lock()
	c.avail[k] = c.availLocked(k) + n
	c.inFlight -= n
	c.cond.Broadcast()
	c.mu.Unlock()
}

// close releases every blocked acquire; subsequent acquires fail fast.
func (c *credits) close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// maxWindowUsed returns the in-flight high-water mark across channels.
func (c *credits) maxWindowUsed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxInFlight
}
