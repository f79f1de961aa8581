package dataflow

import (
	"sync"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/val"
)

// collector records everything it receives, tagged by input slot.
type collector struct {
	baseVertex
	mu     *sync.Mutex
	bySlot map[int][]Element
	eobs   map[int]int
	notify chan<- struct{}
}

func (v *collector) OnBatch(input, from int, batch []Element) error {
	v.mu.Lock()
	v.bySlot[input] = append(v.bySlot[input], batch...)
	v.mu.Unlock()
	return nil
}

func (v *collector) OnEOB(input, from int, tag Tag) error {
	v.mu.Lock()
	v.eobs[input]++
	v.mu.Unlock()
	select {
	case v.notify <- struct{}{}:
	default:
	}
	return nil
}

// flushSource emits elements without reaching the batch size and relies on
// an explicit Flush, then EOB.
type flushSource struct {
	baseVertex
	n int
}

func (v *flushSource) OnControl(ev any) error {
	switch ev {
	case "emit":
		for i := 0; i < v.n; i++ {
			v.ctx.Emit(Element{Tag: 1, Val: val.Int(int64(i))})
		}
		v.ctx.Flush()
	case "finish":
		v.ctx.EmitEOB(1)
	}
	return nil
}

func TestContextFlushDeliversPartialBatches(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var g Graph
	src := g.AddOp("src", 1, func(int) Vertex { return &flushSource{n: 3} })
	var mu sync.Mutex
	notify := make(chan struct{}, 8)
	sink := &collector{mu: &mu, bySlot: map[int][]Element{}, eobs: map[int]int{}, notify: notify}
	snk := g.AddOp("sink", 1, func(int) Vertex { return sink })
	g.Connect(src, snk, 0, PartForward)

	job, err := NewJob(&g, cl, 1000) // batch size far above 3
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("emit") // data only reaches the sink because of Flush
	job.Broadcast("finish")
	<-notify
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sink.bySlot[0]) != 3 {
		t.Errorf("sink received %d elements, want 3", len(sink.bySlot[0]))
	}
	if sink.eobs[0] != 1 {
		t.Errorf("sink received %d EOBs, want 1", sink.eobs[0])
	}
}

func TestShuffleValVsShuffleKeyRouting(t *testing.T) {
	// The same pair elements must route by first field under ShuffleKey and
	// by the whole value under ShuffleVal: two pairs with equal keys but
	// different values land on the same instance under ShuffleKey, possibly
	// different ones under ShuffleVal. We verify the ShuffleKey guarantee
	// and that ShuffleVal preserves the multiset.
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	elems := make([]val.Value, 60)
	for i := range elems {
		elems[i] = val.Pair(val.Int(int64(i%4)), val.Int(int64(i)))
	}

	for _, part := range []Partitioning{PartShuffleKey, PartShuffleVal} {
		var g Graph
		src := g.AddOp("src", 2, func(inst int) Vertex {
			return &sliceSource{elems: elems}
		})
		var mu sync.Mutex
		received := make([]map[string]int, 4)
		for i := range received {
			received[i] = map[string]int{}
		}
		done := make(chan int, 4)
		snk := g.AddOp("sink", 4, func(inst int) Vertex {
			return &instanceSink{mu: &mu, into: received[inst], done: done}
		})
		g.Connect(src, snk, 0, part)
		job, err := NewJob(&g, cl, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Start(); err != nil {
			t.Fatal(err)
		}
		job.Broadcast("go")
		for i := 0; i < 4; i++ {
			<-done
		}
		job.Stop(nil)
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		total := 0
		keyAt := map[string]int{}
		for inst, m := range received {
			for k, n := range m {
				total += n
				key := k[:1] // first field rendered first
				if part == PartShuffleKey {
					if prev, ok := keyAt[key]; ok && prev != inst {
						t.Errorf("%v: key %s split across instances %d and %d", part, key, prev, inst)
					}
					keyAt[key] = inst
				}
			}
		}
		if total != 2*len(elems) { // two source instances
			t.Errorf("%v: total received = %d, want %d", part, total, 2*len(elems))
		}
	}
}

type sliceSource struct {
	baseVertex
	elems []val.Value
}

func (v *sliceSource) OnControl(ev any) error {
	if ev != "go" {
		return nil
	}
	for _, e := range v.elems {
		v.ctx.Emit(Element{Tag: 1, Val: e})
	}
	v.ctx.EmitEOB(1)
	return nil
}

type instanceSink struct {
	baseVertex
	mu   *sync.Mutex
	into map[string]int
	eobs int
	done chan<- int
}

func (v *instanceSink) OnBatch(input, from int, batch []Element) error {
	v.mu.Lock()
	for _, e := range batch {
		// Render "<key><value>" compactly: key is a single digit here.
		v.into[e.Val.Field(0).String()+"|"+e.Val.Field(1).String()]++
	}
	v.mu.Unlock()
	return nil
}

func (v *instanceSink) OnEOB(input, from int, tag Tag) error {
	v.eobs++
	if v.eobs == v.ctx.NumProducers(0) {
		v.done <- v.ctx.Instance()
	}
	return nil
}

func TestContextIntrospection(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var g Graph
	type probe struct {
		baseVertex
	}
	a := g.AddOp("a", 2, func(int) Vertex { return &probe{} })
	b := g.AddOp("b", 3, func(int) Vertex { return &probe{} })
	g.Connect(a, b, 0, PartShuffleKey)
	job, err := NewJob(&g, cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	// Inspect via the instances created by Start.
	bInst := job.insts[b.ID][2]
	if got := bInst.ctx.Parallelism(); got != 3 {
		t.Errorf("Parallelism = %d", got)
	}
	if got := bInst.ctx.Instance(); got != 2 {
		t.Errorf("Instance = %d", got)
	}
	if got := bInst.ctx.NumProducers(0); got != 2 {
		t.Errorf("NumProducers = %d", got)
	}
	if got := bInst.ctx.NumInputs(); got != 1 {
		t.Errorf("NumInputs = %d", got)
	}
	if got := bInst.ctx.Machine(); got != 2 {
		t.Errorf("Machine = %d", got)
	}
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}
