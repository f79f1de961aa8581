package dataflow

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/val"
)

// loopback is the simulated cluster's Remote: it moves frames between
// instances placed on different simulated machines of one whole job, in
// process. Each (sender machine, receiver machine) pair owns an unbounded
// egress queue drained by a dedicated sender goroutine, so the producer's
// emit path only serializes elements and enqueues a frame — the network
// cost (NetDelay + encodedBytes/Bandwidth) is paid by the sender goroutine,
// overlapping with the producer's computation, which is the overlap the
// paper claims for Mitos data transfers. Frames enter the job through the
// same DeliverData/DeliverEOB a TCP peer link uses.
//
// Ordering: the bag coordination protocol in internal/core requires that
// data and EOB envelopes from one producer instance arrive at one consumer
// input in emission order. Every envelope for a given (producer, consumer)
// pair crosses the same machine pair, producers enqueue from their single
// event-loop goroutine, and each egress queue is drained FIFO by one
// goroutine — so per-(producer, consumer, input) order is preserved.
//
// Remote batches are really serialized: the emit path encodes each element
// through the val codec into its target's pooled frame, and DeliverData
// decodes them on the far side. The encoded length is what the cost model
// charges and what the bytes_sent/bytes_received counters report —
// measured, not estimated.
type loopback struct {
	job   *Job
	cl    *cluster.Cluster
	pairs [][]*Queue[loopFrame] // [senderMachine][receiverMachine]; nil on the diagonal
	wg    sync.WaitGroup
}

// loopFrame is one remote frame in flight: a serialized batch, or the
// end-of-bag marker tag when eob is set.
type loopFrame struct {
	h       RemoteHeader
	payload []byte // encoded batch (pooled); nil for EOB frames
	count   int    // number of elements in payload
	tag     Tag
	eob     bool
}

func newLoopback(cl *cluster.Cluster) *loopback {
	t := &loopback{cl: cl, pairs: make([][]*Queue[loopFrame], cl.Machines())}
	for s := range t.pairs {
		t.pairs[s] = make([]*Queue[loopFrame], len(t.pairs))
		for r := range t.pairs[s] {
			if r != s {
				t.pairs[s][r] = NewQueue[loopFrame]()
			}
		}
	}
	return t
}

// start launches one sender goroutine per off-diagonal machine pair,
// delivering into job.
func (t *loopback) start(job *Job) {
	t.job = job
	for _, row := range t.pairs {
		for _, eg := range row {
			if eg != nil {
				t.wg.Add(1)
				go t.run(eg)
			}
		}
	}
}

// SendData implements Remote.
func (t *loopback) SendData(dest int, h RemoteHeader, payload []byte, count int) {
	t.send(dest, loopFrame{h: h, payload: payload, count: count})
}

// SendEOB implements Remote. EOB frames ride the same egress queue as the
// data they terminate.
func (t *loopback) SendEOB(dest int, h RemoteHeader, tag Tag) {
	t.send(dest, loopFrame{h: h, tag: tag, eob: true})
}

// send enqueues a frame on the egress queue from the producer's machine
// (instance index mod machines, the job's placement) to dest and returns
// immediately. A frame sent after close is refused: its payload returns to
// the pool and the queue counts it (refused).
func (t *loopback) send(dest int, f loopFrame) {
	if !t.pairs[f.h.From%len(t.pairs)][dest].Put(f) && f.payload != nil {
		val.PutScratch(f.payload)
	}
}

// run is one sender goroutine: it drains its egress queue, paying the
// modeled network cost for each frame (EOBs included) and delivering it
// into the job, until the queue is closed and empty. A frame the job
// rejects has already failed the job, so the error is not handled again.
func (t *loopback) run(eg *Queue[loopFrame]) {
	defer t.wg.Done()
	var slab val.Slab // this link's decode slab
	for {
		f, ok := eg.Take()
		if !ok {
			return
		}
		t.cl.NetSleepBytes(len(f.payload))
		if f.eob {
			_ = t.job.DeliverEOB(f.h, f.tag, nil)
		} else {
			_ = t.job.DeliverData(f.h, f.payload, f.count, &slab, nil)
			val.PutScratch(f.payload)
		}
	}
}

// close stops all egress queues and blocks until every sender goroutine
// has delivered its backlog and exited. Closing twice is harmless.
func (t *loopback) close() {
	for _, row := range t.pairs {
		for _, eg := range row {
			if eg != nil {
				eg.Close()
			}
		}
	}
	t.wg.Wait()
}

// refused returns the number of frames sent after close.
func (t *loopback) refused() int64 {
	var n int64
	for _, row := range t.pairs {
		for _, eg := range row {
			if eg != nil {
				n += eg.Dropped()
			}
		}
	}
	return n
}

// appendElement appends the wire encoding of one element to dst: a varint
// bag tag followed by the val binary encoding. A frame is its elements'
// encodings back to back.
func appendElement(dst []byte, e Element) []byte {
	dst = binary.AppendVarint(dst, int64(e.Tag))
	return val.AppendBinary(dst, e.Val)
}

// decodeBatch appends exactly count elements decoded from buf to dst,
// rejecting trailing garbage. The elements' strings and nested tuples are
// carved from slab, and so are their top-level tuples unless arena, the room
// left in the batch's arena, is non-nil: each is then built in it while it
// has room (val.DecodeArena). Nothing keeps a reference to buf. On error it
// returns what it had appended, for the caller to recycle.
func decodeBatch(dst []Element, buf []byte, count int, slab *val.Slab, arena *[]val.Value) ([]Element, error) {
	for i := 0; i < count; i++ {
		tag, n := binary.Varint(buf)
		if n <= 0 {
			return dst, fmt.Errorf("bad tag varint for element %d", i)
		}
		buf = buf[n:]
		v, used, err := val.DecodeArena(buf, slab, arena)
		if err != nil {
			return dst, fmt.Errorf("element %d: %w", i, err)
		}
		buf = buf[used:]
		dst = append(dst, Element{Tag: Tag(tag), Val: v})
	}
	if len(buf) != 0 {
		return dst, fmt.Errorf("%d trailing bytes after %d elements", len(buf), count)
	}
	return dst, nil
}
