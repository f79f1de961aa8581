package dataflow

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/val"
)

// TestChainedPipeline runs a three-member chain (src -> f1 -> f2) feeding a
// gather sink: results must match the unchained topology, chain members
// must not own mailboxes or batches, and the chained-element counter must
// account for every direct hop.
func TestChainedPipeline(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var g Graph
	const par, perSource = 2, 50
	src := g.AddOp("src", par, func(int) Vertex { return &sourceVertex{n: perSource} })
	f1 := g.AddOp("f1", par, func(int) Vertex { return &forwarder{} })
	f2 := g.AddOp("f2", par, func(int) Vertex { return &forwarder{} })
	var mu sync.Mutex
	got := make(map[int64]int64)
	done := make(chan int, 1)
	snk := g.AddOp("sink", 1, func(int) Vertex {
		return &countSink{mu: &mu, got: got, seen: make(map[int64]bool), doneCh: done}
	})
	g.ConnectChained(src, f1, 0)
	g.ConnectChained(f1, f2, 0)
	g.Connect(f2, snk, 0, PartGather)

	job, err := NewJob(&g, cl, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Chain members share the driver's mailbox and goroutine.
	for _, op := range []*Op{f1, f2} {
		for i, in := range job.insts[op.ID] {
			if in.mbox != nil {
				t.Errorf("%s[%d] has a mailbox, want chained member without one", op.Name, i)
			}
			if in.driver != job.insts[src.ID][i] {
				t.Errorf("%s[%d] driver is not src[%d]", op.Name, i, i)
			}
		}
	}
	for i, drv := range job.insts[src.ID] {
		if len(drv.members) != 3 || drv.members[0] != drv ||
			drv.members[1] != job.insts[f1.ID][i] || drv.members[2] != job.insts[f2.ID][i] {
			t.Errorf("src[%d].members not in chain order", i)
		}
	}

	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("go")
	<-done
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	var total int64
	for _, c := range got {
		total += c
	}
	if total != par*perSource {
		t.Errorf("total = %d, want %d", total, par*perSource)
	}
	st := job.Stats()
	// Two chained hops per emitted element: src->f1 and f1->f2.
	if want := int64(2 * par * perSource); st.ElementsChained != want {
		t.Errorf("ElementsChained = %d, want %d", st.ElementsChained, want)
	}
	if st.MailboxDropped != 0 {
		t.Errorf("MailboxDropped = %d", st.MailboxDropped)
	}
}

// TestChainedFanOutCounts feeds one source to two chained sinks: each
// element crosses two chained edges but is emitted once, so it counts as
// chained once and ElementsChained never exceeds ElementsSent.
func TestChainedFanOutCounts(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var g Graph
	const par, perSource = 2, 50
	src := g.AddOp("src", par, func(int) Vertex { return &sourceVertex{n: perSource} })
	var mu sync.Mutex
	done := make(chan int, 2*par)
	for _, name := range []string{"a", "b"} {
		got := make(map[int64]int64)
		snk := g.AddOp(name, par, func(int) Vertex {
			return &countSink{mu: &mu, got: got, seen: make(map[int64]bool), doneCh: done}
		})
		g.ConnectChained(src, snk, 0)
	}
	job, err := NewJob(&g, cl, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("go")
	for range 2 * par {
		<-done
	}
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	st := job.Stats()
	if st.ElementsChained > st.ElementsSent {
		t.Errorf("ElementsChained = %d > ElementsSent = %d", st.ElementsChained, st.ElementsSent)
	}
	if want := int64(par * perSource); st.ElementsSent != want || st.ElementsChained != want {
		t.Errorf("ElementsSent, ElementsChained = %d, %d, want %d each", st.ElementsSent, st.ElementsChained, want)
	}
}

// chainRecorder logs its callbacks into a shared ordered trace. All chain
// members run on one driver goroutine, but the mutex also covers the
// test's final read.
type chainRecorder struct {
	baseVertex
	name    string
	mu      *sync.Mutex
	trace   *[]string
	forward bool
}

func (v *chainRecorder) log(ev string) {
	v.mu.Lock()
	*v.trace = append(*v.trace, v.name+":"+ev)
	v.mu.Unlock()
}

func (v *chainRecorder) OnBatch(input, from int, batch []Element) error {
	v.log("batch")
	if v.forward {
		for _, e := range batch {
			v.ctx.Emit(e)
		}
	}
	return nil
}

func (v *chainRecorder) OnEOB(input, from int, tag Tag) error {
	v.log("eob")
	if v.forward {
		v.ctx.EmitEOB(tag)
	}
	return nil
}

func (v *chainRecorder) OnControl(ev any) error {
	v.log("ctrl")
	if ev == "emit" && v.name == "a" {
		v.log("before-emit")
		v.ctx.Emit(Element{Tag: 1, Val: val.Int(7)})
		v.log("after-emit")
		v.log("before-eob")
		v.ctx.EmitEOB(1)
		v.log("after-eob")
	}
	return nil
}

// TestChainedInStackDelivery pins the synchronous semantics: a chained
// consumer's OnBatch/OnEOB run inside the producer's Emit/EmitEOB call, and
// broadcast control fans out to chain members consumer first, so a producer
// that emits from OnControl reaches consumers that have already taken the
// same control event.
func TestChainedInStackDelivery(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var g Graph
	var mu sync.Mutex
	var trace []string
	mk := func(name string, forward bool) func(int) Vertex {
		return func(int) Vertex { return &chainRecorder{name: name, mu: &mu, trace: &trace, forward: forward} }
	}
	a := g.AddOp("a", 1, mk("a", false))
	b := g.AddOp("b", 1, mk("b", true))
	c := g.AddOp("c", 1, mk("c", false))
	g.ConnectChained(a, b, 0)
	g.ConnectChained(b, c, 0)

	job, err := NewJob(&g, cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("emit")
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{
		// One control envelope per chain, fanned out in reverse chain order;
		// "a" emits during its callback, so b's and c's deliveries nest
		// inside it, after both saw the control event.
		"c:ctrl", "b:ctrl", "a:ctrl",
		"a:before-emit", "b:batch", "c:batch", "a:after-emit",
		"a:before-eob", "b:eob", "c:eob", "a:after-eob",
	}
	if len(trace) != len(want) {
		t.Fatalf("trace = %q, want %q", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q (full trace %q)", i, trace[i], want[i], trace)
		}
	}
}

// mergeVertex forwards both of its inputs and emits EOB once every producer
// on every input finished the bag.
type mergeVertex struct {
	baseVertex
	eobs int
}

func (v *mergeVertex) OnBatch(input, from int, batch []Element) error {
	for _, e := range batch {
		v.ctx.Emit(e)
	}
	return nil
}

func (v *mergeVertex) OnEOB(input, from int, tag Tag) error {
	v.eobs++
	if v.eobs == v.ctx.NumProducers(0)+v.ctx.NumProducers(1) {
		v.ctx.EmitEOB(tag)
	}
	return nil
}

// TestChainedMemberExternalInput covers a multi-input chain member: input 0
// is chained (direct calls), input 1 arrives from outside the chain through
// the shared driver mailbox.
func TestChainedMemberExternalInput(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var g Graph
	const par, perA, perB = 2, 20, 30
	srcA := g.AddOp("srcA", par, func(int) Vertex { return &sourceVertex{n: perA} })
	merge := g.AddOp("merge", par, func(int) Vertex { return &mergeVertex{} })
	srcB := g.AddOp("srcB", par, func(int) Vertex { return &sourceVertex{n: perB} })
	var mu sync.Mutex
	got := make(map[int64]int64)
	done := make(chan int, 1)
	snk := g.AddOp("sink", 1, func(int) Vertex {
		return &countSink{mu: &mu, got: got, seen: make(map[int64]bool), doneCh: done}
	})
	g.ConnectChained(srcA, merge, 0)
	g.Connect(srcB, merge, 1, PartShuffleKey)
	g.Connect(merge, snk, 0, PartGather)

	job, err := NewJob(&g, cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("go")
	<-done
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	var total int64
	for _, c := range got {
		total += c
	}
	if want := int64(par * (perA + perB)); total != want {
		t.Errorf("total = %d, want %d", total, want)
	}
	if st := job.Stats(); st.ElementsChained != par*perA {
		t.Errorf("ElementsChained = %d, want %d", st.ElementsChained, par*perA)
	}
}

// TestChainedErrorPropagation checks that an error returned by a chained
// consumer during direct delivery fails the job.
func TestChainedErrorPropagation(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var g Graph
	boom := errors.New("boom")
	src := g.AddOp("src", 1, func(int) Vertex { return &sourceVertex{n: 1} })
	bad := g.AddOp("bad", 1, func(int) Vertex { return &failingOnBatch{err: boom} })
	g.ConnectChained(src, bad, 0)

	job, err := NewJob(&g, cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("go")
	if err := job.Wait(); !errors.Is(err, boom) {
		t.Errorf("Wait = %v, want boom", err)
	}
}

type failingOnBatch struct {
	baseVertex
	err error
}

func (v *failingOnBatch) OnBatch(int, int, []Element) error { return v.err }

// TestChainScratchNotPooled is the chain-boundary recycling regression
// test: the direct-delivery scratch buffers must never enter the batch
// pool, even at batch size 1 where they would pass the pool's capacity
// guard and alias a live emit buffer on a later run.
func TestChainScratchNotPooled(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var g Graph
	const perSource = 40
	src := g.AddOp("src", 1, func(int) Vertex { return &sourceVertex{n: perSource} })
	fwd := g.AddOp("fwd", 1, func(int) Vertex { return &forwarder{} })
	var mu sync.Mutex
	got := make(map[int64]int64)
	done := make(chan int, 1)
	snk := g.AddOp("sink", 1, func(int) Vertex {
		return &countSink{mu: &mu, got: got, seen: make(map[int64]bool), doneCh: done}
	})
	g.ConnectChained(src, fwd, 0)
	g.Connect(fwd, snk, 0, PartForward) // chain boundary: batched at size 1

	job, err := NewJob(&g, cl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("go")
	<-done
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	var total int64
	for _, c := range got {
		total += c
	}
	if total != perSource {
		t.Errorf("total = %d, want %d", total, perSource)
	}

	// No pooled buffer may alias a direct-delivery scratch array.
	scratches := make(map[*Element]bool)
	for _, insts := range job.insts {
		for _, in := range insts {
			for _, oe := range in.outs {
				if oe.direct {
					scratches[&oe.scratch[0]] = true
				}
			}
		}
	}
	if len(scratches) == 0 {
		t.Fatal("no direct edges found")
	}
	job.batchMu.Lock()
	pooled := append([][]Element(nil), job.freeBatches...)
	job.batchMu.Unlock()
	for _, b := range pooled {
		if cap(b) > 0 && scratches[&b[:1][0]] {
			t.Fatal("direct-delivery scratch buffer entered the batch free list")
		}
	}
}

// TestGraphValidateChained covers the chained-edge structural checks.
func TestGraphValidateChained(t *testing.T) {
	mkOp := func(g *Graph, name string, par int) *Op {
		return g.AddOp(name, par, func(int) Vertex { return &baseVertex{} })
	}
	t.Run("against ID order", func(t *testing.T) {
		var g Graph
		a := mkOp(&g, "a", 1)
		b := mkOp(&g, "b", 1)
		g.ConnectChained(b, a, 0) // would allow a chain cycle
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "ID order") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("non-forward partitioning", func(t *testing.T) {
		var g Graph
		a := mkOp(&g, "a", 1)
		b := mkOp(&g, "b", 2)
		b.ins = append(b.ins, &EdgeDecl{From: a.ID, To: b.ID, Input: 0, Part: PartShuffleKey, Chained: true})
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "only forward edges chain") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("in place", func(t *testing.T) {
		var g Graph
		a := mkOp(&g, "a", 1)
		b := mkOp(&g, "b", 1)
		b.ins = append(b.ins, &EdgeDecl{From: a.ID, To: b.ID, Input: 0, Part: PartForward, Chained: true, InPlace: true})
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "marked in place") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("parallelism mismatch", func(t *testing.T) {
		var g Graph
		a := mkOp(&g, "a", 2)
		b := mkOp(&g, "b", 3)
		g.ConnectChained(a, b, 0)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "forward edge") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("chain fan-out and fan-in accepted", func(t *testing.T) {
		var g Graph
		a := mkOp(&g, "a", 2)
		b := mkOp(&g, "b", 2)
		c := mkOp(&g, "c", 2)
		g.ConnectChained(a, b, 0)
		g.ConnectChained(a, c, 0)
		g.ConnectChained(b, c, 1)
		if err := g.Validate(); err != nil {
			t.Errorf("err = %v", err)
		}
		comps := chainComponents(&g)
		if len(comps) != 1 || len(comps[0]) != 3 {
			t.Errorf("components = %v, want one chain of 3", comps)
		}
	})
}

// TestChainComponents checks group discovery on a graph mixing chained and
// unchained edges.
func TestChainComponents(t *testing.T) {
	var g Graph
	mk := func(name string) *Op { return g.AddOp(name, 1, func(int) Vertex { return &baseVertex{} }) }
	a, b, c, d, e := mk("a"), mk("b"), mk("c"), mk("d"), mk("e")
	g.ConnectChained(a, b, 0)       // chain {a, b}
	g.Connect(b, c, 0, PartGather)  // boundary
	g.ConnectChained(c, d, 0)       // chain {c, d}
	g.Connect(d, e, 0, PartForward) // unchained forward edge: no chain
	comps := chainComponents(&g)
	if len(comps) != 2 {
		t.Fatalf("components = %v, want 2", comps)
	}
	if comps[0][0] != a.ID || comps[0][1] != b.ID || comps[1][0] != c.ID || comps[1][1] != d.ID {
		t.Errorf("components = %v", comps)
	}
	if len(comps[0]) != 2 || len(comps[1]) != 2 {
		t.Errorf("components = %v", comps)
	}
	_ = e
}

// benchEmitChained is benchEmit's chained twin: src -> sink over one
// chained edge, so each element is one direct call instead of a batch
// buffer append plus (amortized) mailbox enqueue and goroutine handoff.
func benchEmitChained(b *testing.B) {
	const par = 4
	cl, err := cluster.New(cluster.FastConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	g := &Graph{}
	done := make(chan struct{})
	var finished atomic.Int64
	src := g.AddOp("src", par, func(int) Vertex { return &benchSource{} })
	snk := g.AddOp("sink", par, func(int) Vertex {
		return &benchSink{finished: &finished, insts: par, done: done}
	})
	g.ConnectChained(src, snk, 0)
	j, err := NewJob(g, cl, 0)
	if err != nil {
		b.Fatal(err)
	}
	j.Observe(nil)
	if err := j.Start(); err != nil {
		b.Fatal(err)
	}
	perInst := b.N/par + 1
	b.ReportAllocs()
	b.ResetTimer()
	j.Broadcast(perInst)
	<-done
	b.StopTimer()
	j.Stop(nil)
	if err := j.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEmitChainedLocal vs BenchmarkEmitForwardLocal is the chained vs
// unchained forward-emit comparison (ns/element, allocs/op).
func BenchmarkEmitChainedLocal(b *testing.B) { benchEmitChained(b) }

// TestEmitChainedAllocFree enforces the 0 allocs/op steady state of the
// direct-delivery path, like TestEmitNilObserverAllocFree does for the
// batched path.
func TestEmitChainedAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	res := testing.Benchmark(BenchmarkEmitChainedLocal)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("chained emit path allocates %d allocs/op, want 0", a)
	}
}
