package dataflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/val"
)

// bagSource emits bags 1..bags of perBag elements each with an EOB after
// every bag. Element values encode (producer, sequence) so a sink can check
// per-producer FIFO order across the async transport.
type bagSource struct {
	baseVertex
	bags, perBag int
}

func (v *bagSource) OnControl(ev any) error {
	if ev != "go" {
		return nil
	}
	for b := 1; b <= v.bags; b++ {
		for i := 0; i < v.perBag; i++ {
			v.ctx.Emit(Element{
				Tag: Tag(b),
				Val: val.Pair(val.Int(int64(v.ctx.Instance())), val.Int(int64(i))),
			})
		}
		v.ctx.EmitEOB(Tag(b))
	}
	return nil
}

// orderSink asserts per-producer envelope order: every data element must
// carry the bag tag the producer is currently in (no batch may overtake an
// EOB and vice versa), and sequence numbers within a bag must be strictly
// increasing.
type orderSink struct {
	baseVertex
	mu        *sync.Mutex
	errs      *[]string
	bags      int
	expecting map[int]Tag   // per producer: the bag currently open
	lastSeq   map[int]int64 // per producer: last sequence seen in the open bag
	eobs      int
	doneCh    chan<- int
}

func (v *orderSink) Open(ctx *Context) error {
	v.ctx = ctx
	v.expecting = make(map[int]Tag)
	v.lastSeq = make(map[int]int64)
	return nil
}

func (v *orderSink) violate(format string, args ...any) {
	v.mu.Lock()
	*v.errs = append(*v.errs, fmt.Sprintf(format, args...))
	v.mu.Unlock()
}

func (v *orderSink) open(from int) Tag {
	if _, ok := v.expecting[from]; !ok {
		v.expecting[from] = 1
		v.lastSeq[from] = -1
	}
	return v.expecting[from]
}

func (v *orderSink) OnBatch(input, from int, batch []Element) error {
	cur := v.open(from)
	for _, e := range batch {
		prod := e.Val.Field(0).AsInt()
		seq := e.Val.Field(1).AsInt()
		if int(prod) != from {
			v.violate("sink %d: element from producer %d arrived on channel %d", v.ctx.Instance(), prod, from)
		}
		if e.Tag != cur {
			v.violate("sink %d: producer %d: element of bag %d while bag %d open (data overtook EOB)",
				v.ctx.Instance(), from, e.Tag, cur)
		}
		if seq <= v.lastSeq[from] {
			v.violate("sink %d: producer %d: sequence %d after %d (reordered within bag)",
				v.ctx.Instance(), from, seq, v.lastSeq[from])
		}
		v.lastSeq[from] = seq
	}
	return nil
}

func (v *orderSink) OnEOB(input, from int, tag Tag) error {
	cur := v.open(from)
	if tag != cur {
		v.violate("sink %d: producer %d: EOB for bag %d while bag %d open (EOB overtook data)",
			v.ctx.Instance(), from, tag, cur)
	}
	v.expecting[from] = cur + 1
	v.lastSeq[from] = -1
	v.eobs++
	if v.eobs == v.ctx.NumProducers(0)*v.bags {
		v.doneCh <- v.ctx.Instance()
	}
	return nil
}

// TestTransportOrderingStress drives many producers through the async
// cross-machine transport with a tiny batch size and checks that
// per-(producer, consumer, input) FIFO order of data and EOB envelopes
// survives. Run under -race it also exercises the egress queues and the
// close-and-drain stop.
func TestTransportOrderingStress(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const producers, sinks, bags, perBag = 4, 4, 15, 30
	var g Graph
	src := g.AddOp("src", producers, func(int) Vertex { return &bagSource{bags: bags, perBag: perBag} })
	var mu sync.Mutex
	var violations []string
	done := make(chan int, sinks)
	snk := g.AddOp("sink", sinks, func(int) Vertex {
		return &orderSink{mu: &mu, errs: &violations, bags: bags, doneCh: done}
	})
	// Shuffle by value hash so every producer talks to every sink.
	g.Connect(src, snk, 0, PartShuffleVal)

	job, err := NewJob(&g, cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("go")
	for i := 0; i < sinks; i++ {
		<-done
	}
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range violations {
		if i >= 10 {
			t.Errorf("... and %d more", len(violations)-10)
			break
		}
		t.Error(v)
	}
	st := job.Stats()
	if st.BytesSent != st.BytesReceived {
		t.Errorf("BytesSent = %d, BytesReceived = %d after clean run", st.BytesSent, st.BytesReceived)
	}
	if st.RemoteBatches == 0 || st.BytesSent == 0 {
		t.Errorf("no remote traffic recorded: %+v", st)
	}
	if st.MailboxDropped != 0 {
		t.Errorf("MailboxDropped = %d after clean run, want 0", st.MailboxDropped)
	}
}

// TestTransportByteAccounting checks the bytes counters differentially: the
// engine's BytesSent/BytesReceived (and the per-instance obs counters) must
// equal the wire size of the remote elements computed independently from
// val.EncodedSize plus the varint bag tag.
func TestTransportByteAccounting(t *testing.T) {
	const machines = 3
	cl, err := cluster.New(cluster.FastConfig(machines))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One source on machine 0 broadcasting to one sink per machine: the
	// elements cross the wire exactly machines-1 times.
	els := []Element{
		{Tag: 1, Val: val.Int(42)},
		{Tag: 1, Val: val.Str("hello transport")},
		{Tag: 1, Val: val.Pair(val.Int(7), val.Str("x"))},
		{Tag: 300, Val: val.Int(-1)}, // multi-byte varint tag
	}
	var g Graph
	src := g.AddOp("src", 1, func(int) Vertex { return &fixedSource{els: els} })
	done := make(chan int, machines)
	snk := g.AddOp("sink", machines, func(int) Vertex { return &eobSink{doneCh: done} })
	g.Connect(src, snk, 0, PartBroadcast)

	job, err := NewJob(&g, cl, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	job.Observe(o)
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("go")
	for i := 0; i < machines; i++ {
		<-done
	}
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	// Two independent oracles for the per-copy wire size: the codec's own
	// EncodedSize sum, and the frame encoding itself.
	perCopy := 0
	for _, e := range els {
		perCopy += len(binary.AppendVarint(nil, int64(e.Tag))) + val.EncodedSize(e.Val)
	}
	if enc := len(frameOf(els)); enc != perCopy {
		t.Fatalf("frame size %d != EncodedSize sum %d", enc, perCopy)
	}
	want := int64(perCopy * (machines - 1))
	st := job.Stats()
	if st.BytesSent != want {
		t.Errorf("BytesSent = %d, want %d", st.BytesSent, want)
	}
	if st.BytesReceived != want {
		t.Errorf("BytesReceived = %d, want %d", st.BytesReceived, want)
	}
	snap := o.Snapshot()
	if got := snap.Total("bytes_sent"); got != want {
		t.Errorf("obs bytes_sent = %d, want %d", got, want)
	}
	if got := snap.Total("bytes_received"); got != want {
		t.Errorf("obs bytes_received = %d, want %d", got, want)
	}
	if got := snap.Total("mailbox_dropped"); got != 0 {
		t.Errorf("obs mailbox_dropped = %d, want 0", got)
	}
	// The cluster charged exactly these bytes through the cost model.
	if nb := cl.Stats().NetBytes; nb != want {
		t.Errorf("cluster NetBytes = %d, want %d", nb, want)
	}
}

// fixedSource emits a fixed element slice then one EOB per bag tag present.
type fixedSource struct {
	baseVertex
	els []Element
}

func (v *fixedSource) OnControl(ev any) error {
	if ev != "go" {
		return nil
	}
	tags := map[Tag]bool{}
	for _, e := range v.els {
		v.ctx.Emit(e)
		tags[e.Tag] = true
	}
	for tag := range tags {
		v.ctx.EmitEOB(tag)
	}
	return nil
}

// eobSink signals done after one EOB per producer per bag it observes.
type eobSink struct {
	baseVertex
	eobs   map[Tag]int
	doneCh chan<- int
}

func (v *eobSink) OnEOB(input, from int, tag Tag) error {
	if v.eobs == nil {
		v.eobs = map[Tag]int{}
	}
	v.eobs[tag]++
	// The fixedSource above emits two bags; done after both are closed.
	closed := 0
	for _, n := range v.eobs {
		if n == v.ctx.NumProducers(0) {
			closed++
		}
	}
	if closed == 2 {
		v.doneCh <- v.ctx.Instance()
	}
	return nil
}

// timedSource records how long the emit path itself takes: with the async
// transport it must not pay the per-batch network delay.
type timedSource struct {
	baseVertex
	batches, batchSize int
	elapsed            chan<- time.Duration
}

func (v *timedSource) OnControl(ev any) error {
	if ev != "go" {
		return nil
	}
	start := time.Now()
	for b := 0; b < v.batches; b++ {
		for i := 0; i < v.batchSize; i++ {
			v.ctx.Emit(Element{Tag: 1, Val: val.Int(int64(b*v.batchSize + i))})
		}
	}
	v.ctx.EmitEOB(1)
	v.elapsed <- time.Since(start)
	return nil
}

// TestTransportDecouplesEmitFromNetDelay reproduces the sender-side stall
// this PR removes: with NetDelay > 0 and several machines, a broadcasting
// producer used to pay Machines-1 network delays synchronously per batch.
// With the async transport the emit path only serializes and enqueues, so
// its wall time stays far below the synchronous floor.
func TestTransportDecouplesEmitFromNetDelay(t *testing.T) {
	const machines, batches, batchSize = 4, 20, 8
	netDelay := 2 * time.Millisecond
	cfg := cluster.FastConfig(machines)
	cfg.NetDelay = netDelay
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var g Graph
	elapsed := make(chan time.Duration, 1)
	src := g.AddOp("src", 1, func(int) Vertex {
		return &timedSource{batches: batches, batchSize: batchSize, elapsed: elapsed}
	})
	snk := g.AddOp("sink", machines, func(int) Vertex { return &baseVertex{} })
	g.Connect(src, snk, 0, PartBroadcast)

	job, err := NewJob(&g, cl, batchSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("go")
	emitTime := <-elapsed
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	// Synchronous sending would block the producer for at least one
	// NetDelay per remote batch (simtime.Sleep never undershoots).
	syncFloor := time.Duration(batches*(machines-1)) * netDelay
	if emitTime >= syncFloor/2 {
		t.Errorf("emit path took %v, not decoupled from the %v synchronous network floor",
			emitTime, syncFloor)
	}
	if rb := job.Stats().RemoteBatches; rb != batches*(machines-1) {
		t.Errorf("RemoteBatches = %d, want %d", rb, batches*(machines-1))
	}
	// The network cost was still paid — by the sender goroutines.
	if nb := cl.Stats().NetBatches; nb < batches*(machines-1) {
		t.Errorf("NetBatches = %d, want >= %d", nb, batches*(machines-1))
	}
}

// TestEncodeDecodeBatch round-trips the wire format and rejects trailing
// garbage and truncation.
func TestEncodeDecodeBatch(t *testing.T) {
	batch := []Element{
		{Tag: 0, Val: val.Int(0)},
		{Tag: 5, Val: val.Str("abc")},
		{Tag: 1 << 20, Val: val.Pair(val.Int(-9), val.Str(""))},
	}
	buf := frameOf(batch)
	var slab val.Slab
	got, err := decodeBatch(nil, buf, len(batch), &slab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("decoded %d elements, want %d", len(got), len(batch))
	}
	for i := range batch {
		if got[i].Tag != batch[i].Tag || !got[i].Val.Equal(batch[i].Val) {
			t.Errorf("element %d: got (%d, %v), want (%d, %v)",
				i, got[i].Tag, got[i].Val, batch[i].Tag, batch[i].Val)
		}
	}
	if _, err := decodeBatch(nil, append(buf, 0), len(batch), &slab, nil); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := decodeBatch(nil, buf[:len(buf)-1], len(batch), &slab, nil); err == nil {
		t.Error("truncated buffer accepted")
	}
}

// heldSource emits n elements and an EOB on "go", once hold (if non-nil) is
// closed, then reports on emitted.
type heldSource struct {
	baseVertex
	n       int
	hold    <-chan struct{}
	emitted chan<- int
}

func (v *heldSource) OnControl(ev any) error {
	if ev != "go" {
		return nil
	}
	if v.hold != nil {
		<-v.hold
	}
	for i := 0; i < v.n; i++ {
		v.ctx.Emit(Element{Tag: 1, Val: val.Pair(val.Int(int64(i)), val.Int(1))})
	}
	v.ctx.EmitEOB(1)
	v.emitted <- v.ctx.Instance()
	return nil
}

// tallySink counts the elements and EOBs it is handed.
type tallySink struct {
	baseVertex
	elems, eobs *atomic.Int64
}

func (v *tallySink) OnBatch(input, from int, batch []Element) error {
	v.elems.Add(int64(len(batch)))
	return nil
}

func (v *tallySink) OnEOB(input, from int, tag Tag) error {
	v.eobs.Add(1)
	return nil
}

// TestCleanStopDrainsLoopback stops a job while its frames are still
// crossing the simulated network: every source has emitted everything, but
// each machine pair's sender goroutine still sleeps NetDelay per frame. A
// clean Stop closes the loopback, whose senders deliver the backlog, and
// only then closes the mailboxes — so every element and EOB arrives and
// nothing is dropped.
func TestCleanStopDrainsLoopback(t *testing.T) {
	const machines, perSource = 2, 64
	cfg := cluster.FastConfig(machines)
	cfg.NetDelay = 2 * time.Millisecond
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var elems, eobs atomic.Int64
	emitted := make(chan int, machines)
	var g Graph
	src := g.AddOp("src", machines, func(int) Vertex { return &heldSource{n: perSource, emitted: emitted} })
	snk := g.AddOp("sink", machines, func(int) Vertex { return &tallySink{elems: &elems, eobs: &eobs} })
	g.Connect(src, snk, 0, PartShuffleKey)
	job, err := NewJob(&g, cl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("go")
	for i := 0; i < machines; i++ {
		<-emitted
	}
	inFlight := 0
	for _, row := range job.tr.pairs {
		for _, eg := range row {
			if eg != nil {
				inFlight += eg.Depth()
			}
		}
	}
	if inFlight == 0 {
		t.Fatal("no frame left in the loopback at Stop: the test no longer exercises the drain")
	}
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := elems.Load(), int64(machines*perSource); got != want {
		t.Errorf("sinks received %d elements, want %d (%d frames were in flight at Stop)", got, want, inFlight)
	}
	if got, want := eobs.Load(), int64(machines*machines); got != want {
		t.Errorf("sinks received %d EOBs, want %d", got, want)
	}
	st := job.Stats()
	if st.MailboxDropped != 0 {
		t.Errorf("MailboxDropped = %d after a clean stop, want 0", st.MailboxDropped)
	}
	if st.BytesSent == 0 || st.BytesSent != st.BytesReceived {
		t.Errorf("BytesSent = %d, BytesReceived = %d after a clean stop", st.BytesSent, st.BytesReceived)
	}
}

// TestStoppedJobCountsLateFrames: a source that emits only after the job
// stopped has every envelope counted in MailboxDropped — after a clean stop
// the local one is refused by its mailbox and the remote one by the closed
// loopback, after a failed stop the loopback is still open and its sender
// delivers the remote one into the closed mailbox.
func TestStoppedJobCountsLateFrames(t *testing.T) {
	for _, stopErr := range []error{nil, errors.New("failed")} {
		cl, err := cluster.New(cluster.FastConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		hold := make(chan struct{})
		emitted := make(chan int, 1)
		var elems, eobs atomic.Int64
		var g Graph
		src := g.AddOp("src", 1, func(int) Vertex { return &heldSource{n: 1, hold: hold, emitted: emitted} })
		snk := g.AddOp("sink", 2, func(int) Vertex { return &tallySink{elems: &elems, eobs: &eobs} })
		g.Connect(src, snk, 0, PartBroadcast)
		job, err := NewJob(&g, cl, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Start(); err != nil {
			t.Fatal(err)
		}
		job.Broadcast("go")
		job.Stop(stopErr)
		close(hold)
		<-emitted
		if err := job.Wait(); !errors.Is(err, stopErr) {
			t.Fatalf("stop(%v): Wait = %v", stopErr, err)
		}
		// One data envelope and one EOB to each of the two sinks, all late.
		if got := job.Stats().MailboxDropped; got != 4 {
			t.Errorf("stop(%v): MailboxDropped = %d, want 4", stopErr, got)
		}
		if n := elems.Load() + eobs.Load(); n != 0 {
			t.Errorf("stop(%v): %d late envelopes reached a vertex", stopErr, n)
		}
		cl.Close()
	}
}

// TestDeliverAfterStopRunsAck: a remote frame that reaches a stopped
// partition is counted as dropped and its ack runs at once, so the TCP
// sender's flow-control credit is not stranded.
func TestDeliverAfterStopRunsAck(t *testing.T) {
	var g Graph
	g.AddOp("sink", 1, func(int) Vertex { return &baseVertex{} })
	job, err := NewPartitionedJob(&g, 1, 0, 8, nopRemote{})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Stop(errors.New("session closed"))
	acks := 0
	ack := func() { acks++ }
	if err := job.DeliverData(RemoteHeader{}, frameOf([]Element{{Tag: 1, Val: val.Int(1)}}), 1, nil, ack); err != nil {
		t.Fatal(err)
	}
	if err := job.DeliverEOB(RemoteHeader{}, 1, ack); err != nil {
		t.Fatal(err)
	}
	job.Wait()
	if acks != 2 {
		t.Errorf("%d of 2 refused frames acked", acks)
	}
	if got := job.Stats().MailboxDropped; got != 2 {
		t.Errorf("MailboxDropped = %d, want 2", got)
	}
}
