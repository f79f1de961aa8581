package dataflow

import (
	"fmt"
	"testing"

	"github.com/mitos-project/mitos/internal/val"
)

// intPairs returns n (int, int) pairs: a frame of them decodes into tuples
// alone, no string.
func intPairs(n int) []Element {
	batch := make([]Element, n)
	for i := range batch {
		batch[i] = Element{Tag: 1, Val: val.Pair(val.Int(int64(i)), val.Int(int64(7*i)))}
	}
	return batch
}

// deliverJob starts a one-machine partitioned job whose sink reads its only
// input, in place or not, and returns it with the ack and done channel a
// delivery is awaited by: DeliverData's ack runs once the batch is recycled.
func deliverJob(tb testing.TB, inPlace bool) (*Job, func(), chan struct{}) {
	tb.Helper()
	var g Graph
	src := g.AddOp("src", 1, func(int) Vertex { return &baseVertex{} })
	snk := g.AddOp("sink", 1, func(int) Vertex { return &baseVertex{} })
	g.Connect(src, snk, 0, PartShuffleKey).InPlace = inPlace
	j, err := NewPartitionedJob(&g, 1, 0, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := j.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		j.Stop(nil)
		if err := j.Wait(); err != nil {
			tb.Error(err)
		}
	})
	done := make(chan struct{}, 1)
	return j, func() { done <- struct{}{} }, done
}

// deliverFrame delivers payload, a frame of count elements, to the sink and
// waits until the batch is recycled.
func deliverFrame(tb testing.TB, j *Job, payload []byte, count int, slab *val.Slab, ack func(), done chan struct{}) {
	if err := j.DeliverData(RemoteHeader{Op: 1}, payload, count, slab, ack); err != nil {
		tb.Fatal(err)
	}
	<-done
}

// TestDeliverLentAllocFree: a full frame of pairs delivered into an in-place
// input builds its tuples in the batch's arena, which comes back with the
// batch, so a steady stream of frames allocates nothing; into any other
// input the same frame carves its 256 fields from the link's slab, a chunk
// (255 Values) per frame.
func TestDeliverLentAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	payload := frameOf(intPairs(DefaultBatchSize))
	for _, inPlace := range []bool{true, false} {
		j, ack, done := deliverJob(t, inPlace)
		var slab val.Slab
		allocs := testing.AllocsPerRun(200, func() { deliverFrame(t, j, payload, DefaultBatchSize, &slab, ack, done) })
		if inPlace && allocs != 0 {
			t.Errorf("delivering %d pairs into an in-place input: %.2f allocs, want 0", DefaultBatchSize, allocs)
		}
		if !inPlace && allocs == 0 {
			t.Errorf("delivering %d pairs into a carving input allocated nothing: the control no longer carves", DefaultBatchSize)
		}
	}
}

// BenchmarkDeliverLent is the receive side of one full remote frame of
// pairs into an in-place input, decode, mailbox and recycle included: the
// source of TestDeliverLentAllocFree's number.
func BenchmarkDeliverLent(b *testing.B) {
	payload := frameOf(intPairs(DefaultBatchSize))
	j, ack, done := deliverJob(b, true)
	var slab val.Slab
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliverFrame(b, j, payload, DefaultBatchSize, &slab, ack, done)
	}
}

// lendSource emits n lent pairs, built one after the other in one reused
// tuple, and an end-of-bag, per control event; poisons overwrites the tuple
// after every EmitLent when set.
type lendSource struct {
	baseVertex
	n      int
	tuple  [2]val.Value
	poison bool
	slab   val.Slab
}

func (v *lendSource) OnControl(any) error {
	for i := range v.n {
		v.tuple[0], v.tuple[1] = val.Int(int64(i)), val.Int(int64(3*i))
		v.ctx.EmitLent(Element{Tag: 1, Val: val.Tuple(v.tuple[:]...)}, &v.slab)
		if v.poison {
			v.tuple[0], v.tuple[1] = val.Str("lent poisoned"), val.Str("lent poisoned")
		}
	}
	v.ctx.EmitEOB(1)
	return nil
}

// bagEndSink signals done at every end-of-bag; by then every batch before it
// has been recycled.
type bagEndSink struct {
	baseVertex
	done chan struct{}
}

func (v *bagEndSink) OnEOB(int, int, Tag) error { v.done <- struct{}{}; return nil }

// TestLocalLentBatchAllocFree: a lending producer fills a local batch on an
// in-place edge with copies built in the batch's arena, so a steady stream
// of full batches allocates nothing; on any other edge each copy is carved
// from the producer's slab.
func TestLocalLentBatchAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	for _, inPlace := range []bool{true, false} {
		var g Graph
		done := make(chan struct{}, 1)
		src := g.AddOp("src", 1, func(int) Vertex { return &lendSource{n: DefaultBatchSize} })
		snk := g.AddOp("sink", 1, func(int) Vertex { return &bagEndSink{done: done} })
		g.Connect(src, snk, 0, PartShuffleKey).InPlace = inPlace
		j, err := NewPartitionedJob(&g, 1, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Start(); err != nil {
			t.Fatal(err)
		}
		var ev any = &g // boxed once: a broadcast of it allocates nothing
		allocs := testing.AllocsPerRun(200, func() {
			j.Broadcast(ev)
			<-done
		})
		j.Stop(nil)
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		if inPlace && allocs != 0 {
			t.Errorf("filling a local batch of %d lent pairs on an in-place edge: %.2f allocs, want 0", DefaultBatchSize, allocs)
		}
		if !inPlace && allocs == 0 {
			t.Errorf("filling a local batch of %d lent pairs on a carving edge allocated nothing: the control no longer carves", DefaultBatchSize)
		}
	}
}

// keepSink keeps every element of every other batch of batchSize elements
// (keys k of the first element where k/batchSize is odd), retaining the
// batch, and reads the others in place. It signals done at every
// end-of-bag.
type keepSink struct {
	baseVertex
	batchSize int
	kept      []val.Value
	read      int
	done      chan struct{}
}

func (v *keepSink) OnEOB(int, int, Tag) error { v.done <- struct{}{}; return nil }

func (v *keepSink) OnBatch(_ int, _ int, batch []Element) error {
	if batch[0].Val.Field(0).AsInt()/int64(v.batchSize)%2 == 0 {
		v.read += len(batch)
		return nil
	}
	v.ctx.RetainBatch()
	for _, e := range batch {
		v.kept = append(v.kept, e.Val)
	}
	return nil
}

// TestRetainedArenaNotReused: a vertex that keeps the elements of a batch it
// retained still reads them intact after the job has recycled, poisoned and
// reused the arenas of every other batch, remote and local, at batch sizes 1,
// 3 and DefaultBatchSize — a retained arena is never handed out again.
func TestRetainedArenaNotReused(t *testing.T) {
	poison := val.Str("arena poisoned")
	var recycled, retained [2]int
	SetArenaHook(func(_ string, remote, kept bool, slots []val.Value) {
		r := 0
		if remote {
			r = 1
		}
		if kept {
			retained[r]++
		} else {
			recycled[r]++
		}
		for i := range slots {
			slots[i] = poison
		}
	})
	defer SetArenaHook(nil)
	for _, bs := range []int{1, 3, DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch%d", bs), func(t *testing.T) {
			const frames = 40
			var g Graph
			done := make(chan struct{}, 1)
			sink := &keepSink{batchSize: bs, done: done}
			src := g.AddOp("src", 1, func(int) Vertex { return &lendSource{n: bs * frames, poison: true} })
			snk := g.AddOp("sink", 1, func(int) Vertex { return sink })
			g.Connect(src, snk, 0, PartForward).InPlace = true
			j, err := NewPartitionedJob(&g, 1, 0, bs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Start(); err != nil {
				t.Fatal(err)
			}
			// Remote frames: pairs (k, 7k).
			ack := func() { done <- struct{}{} }
			var slab val.Slab
			for f := range frames {
				batch := intPairs(bs)
				for i := range batch {
					batch[i].Val = val.Pair(val.Int(int64(f*bs+i)), val.Int(int64(7*(f*bs+i))))
				}
				if err := j.DeliverData(RemoteHeader{Op: 1}, frameOf(batch), bs, &slab, ack); err != nil {
					t.Fatal(err)
				}
				<-done
			}
			remoteKept := len(sink.kept)
			// Local batches from a lending, poisoning producer: (k, 3k).
			var ev any = &g
			j.Broadcast(ev)
			<-done
			j.Stop(nil)
			if err := j.Wait(); err != nil {
				t.Fatal(err)
			}
			if remoteKept == 0 || len(sink.kept) == remoteKept || sink.read == 0 {
				t.Fatalf("kept %d remote and %d local elements, read %d in place: want some of each", remoteKept, len(sink.kept)-remoteKept, sink.read)
			}
			for i, v := range sink.kept {
				mult := int64(7)
				if i >= remoteKept {
					mult = 3
				}
				k, w, ok := v.AsPair()
				if !ok || k.Kind() != val.KindInt || w.Kind() != val.KindInt || w.AsInt() != mult*k.AsInt() {
					t.Fatalf("kept element %d is %v, want (k, %d*k)", i, v, mult)
				}
			}
		})
	}
	for r, where := range []string{"local", "remote"} {
		if recycled[r] == 0 || retained[r] == 0 {
			t.Errorf("%s batches: %d arenas recycled, %d retained; want some of each", where, recycled[r], retained[r])
		}
	}
}
