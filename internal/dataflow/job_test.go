package dataflow

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/val"
)

// baseVertex provides no-op defaults for tests.
type baseVertex struct{ ctx *Context }

func (v *baseVertex) Open(ctx *Context) error                        { v.ctx = ctx; return nil }
func (v *baseVertex) OnBatch(input, from int, batch []Element) error { return nil }
func (v *baseVertex) OnEOB(input, from int, tag Tag) error           { return nil }
func (v *baseVertex) OnControl(ev any) error                         { return nil }
func (v *baseVertex) Close() error                                   { return nil }

// sourceVertex emits n elements per instance on a "go" control event, then
// an EOB.
type sourceVertex struct {
	baseVertex
	n int
}

func (v *sourceVertex) OnControl(ev any) error {
	if ev != "go" {
		return nil
	}
	for i := 0; i < v.n; i++ {
		v.ctx.Emit(Element{Tag: 1, Val: val.Pair(val.Int(int64(i%7)), val.Int(1))})
	}
	v.ctx.EmitEOB(1)
	return nil
}

// countSink counts elements per key; when it has one EOB per producer, it
// records the totals and signals done.
type countSink struct {
	baseVertex
	mu     *sync.Mutex
	got    map[int64]int64
	seen   map[int64]bool // keys seen by this instance (partitioning check)
	eobs   int
	doneCh chan<- int
}

func (v *countSink) OnBatch(input, from int, batch []Element) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, e := range batch {
		k := e.Val.Field(0).AsInt()
		v.got[k] += e.Val.Field(1).AsInt()
		v.seen[k] = true
	}
	return nil
}

func (v *countSink) OnEOB(input, from int, tag Tag) error {
	v.eobs++
	if v.eobs == v.ctx.NumProducers(0) {
		v.doneCh <- v.ctx.Instance()
	}
	return nil
}

func TestJobShuffledCount(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var g Graph
	const sources, sinks, perSource = 4, 3, 50
	src := g.AddOp("src", sources, func(inst int) Vertex { return &sourceVertex{n: perSource} })
	var mu sync.Mutex
	got := make(map[int64]int64)
	done := make(chan int, sinks)
	perInstanceKeys := make([]map[int64]bool, sinks)
	snk := g.AddOp("sink", sinks, func(inst int) Vertex {
		perInstanceKeys[inst] = make(map[int64]bool)
		return &countSink{mu: &mu, got: got, seen: perInstanceKeys[inst], doneCh: done}
	})
	g.Connect(src, snk, 0, PartShuffleKey)

	job, err := NewJob(&g, cl, 8)
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

	// Totals: keys 0..6, key k appears ceil/floor across sources.
	var total int64
	for _, c := range got {
		total += c
	}
	if total != sources*perSource {
		t.Errorf("total = %d, want %d", total, sources*perSource)
	}
	// Key-partitioning: no key may appear at two sink instances.
	seenAt := make(map[int64]int)
	for inst, keys := range perInstanceKeys {
		for k := range keys {
			if prev, ok := seenAt[k]; ok && prev != inst {
				t.Errorf("key %d seen at instances %d and %d", k, prev, inst)
			}
			seenAt[k] = inst
		}
	}
	st := job.Stats()
	if st.ElementsSent != sources*perSource {
		t.Errorf("ElementsSent = %d", st.ElementsSent)
	}
	if st.BatchesSent == 0 {
		t.Error("no batches recorded")
	}
}

func TestJobBroadcastAndGather(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var g Graph
	src := g.AddOp("src", 1, func(int) Vertex { return &sourceVertex{n: 10} })
	// Broadcast to 3 middles; each forwards everything; gather into 1 sink.
	midOp := g.AddOp("mid", 3, func(int) Vertex { return &forwarder{} })
	var mu sync.Mutex
	got := make(map[int64]int64)
	done := make(chan int, 1)
	snk := g.AddOp("sink", 1, func(inst int) Vertex {
		return &countSink{mu: &mu, got: got, seen: make(map[int64]bool), doneCh: done}
	})
	g.Connect(src, midOp, 0, PartBroadcast)
	g.Connect(midOp, snk, 0, PartGather)

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
	// 10 elements broadcast to 3 middles -> 30 at the sink.
	var total int64
	for _, c := range got {
		total += c
	}
	if total != 30 {
		t.Errorf("total = %d, want 30", total)
	}
}

// forwarder passes elements through and forwards one EOB after receiving
// EOB from all its producers.
type forwarder struct {
	baseVertex
	eobs int
}

func (v *forwarder) OnBatch(input, from int, batch []Element) error {
	for _, e := range batch {
		v.ctx.Emit(e)
	}
	return nil
}

func (v *forwarder) OnEOB(input, from int, tag Tag) error {
	v.eobs++
	if v.eobs == v.ctx.NumProducers(0) {
		v.ctx.EmitEOB(tag)
	}
	return nil
}

func TestJobErrorPropagation(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var g Graph
	boom := errors.New("boom")
	g.AddOp("bad", 2, func(int) Vertex { return &failingVertex{err: boom} })
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

type failingVertex struct {
	baseVertex
	err error
}

func (v *failingVertex) OnControl(any) error { return v.err }

func TestGraphValidate(t *testing.T) {
	mkOp := func(g *Graph, name string, par int) *Op {
		return g.AddOp(name, par, func(int) Vertex { return &baseVertex{} })
	}
	t.Run("forward parallelism mismatch", func(t *testing.T) {
		var g Graph
		a := mkOp(&g, "a", 2)
		b := mkOp(&g, "b", 3)
		g.Connect(a, b, 0, PartForward)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "forward edge") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("input slot gap", func(t *testing.T) {
		var g Graph
		a := mkOp(&g, "a", 1)
		b := mkOp(&g, "b", 1)
		g.Connect(a, b, 1, PartForward) // slot 0 missing
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "slot") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("duplicate slot", func(t *testing.T) {
		var g Graph
		a := mkOp(&g, "a", 1)
		b := mkOp(&g, "b", 1)
		g.Connect(a, b, 0, PartForward)
		g.Connect(a, b, 0, PartForward)
		if err := g.Validate(); err == nil {
			t.Error("duplicate slot accepted")
		}
	})
	t.Run("zero parallelism", func(t *testing.T) {
		var g Graph
		mkOp(&g, "a", 0)
		if err := g.Validate(); err == nil {
			t.Error("zero parallelism accepted")
		}
	})
	t.Run("negative slot", func(t *testing.T) {
		var g Graph
		a := mkOp(&g, "a", 1)
		b := mkOp(&g, "b", 1)
		g.Connect(a, b, -1, PartForward)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "slot") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("no vertex factory", func(t *testing.T) {
		var g Graph
		g.AddOp("a", 1, nil)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "factory") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("partitioning names", func(t *testing.T) {
		for p := PartForward; p <= PartGather; p++ {
			if strings.HasPrefix(p.String(), "Partitioning(") {
				t.Errorf("missing name for %d", p)
			}
		}
	})
}

func TestJobCyclicGraphDelivers(t *testing.T) {
	// A two-op cycle: pinger sends a token that bounces ponger -> pinger
	// n times. Exercises cycles and the unbounded mailboxes.
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var g Graph
	done := make(chan struct{})
	a := g.AddOp("ping", 1, func(int) Vertex { return &pingpong{limit: 20, done: done, start: true} })
	b := g.AddOp("pong", 1, func(int) Vertex { return &pingpong{limit: 20} })
	g.Connect(a, b, 0, PartForward)
	g.Connect(b, a, 0, PartForward)

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
}

type pingpong struct {
	baseVertex
	limit int
	count int
	start bool
	done  chan struct{}
}

func (v *pingpong) OnControl(ev any) error {
	if ev == "go" && v.start {
		v.ctx.Emit(Element{Tag: 0, Val: val.Int(0)})
		v.ctx.Flush()
	}
	return nil
}

func (v *pingpong) OnBatch(input, from int, batch []Element) error {
	for _, e := range batch {
		v.count++
		if v.start && v.count >= v.limit {
			close(v.done)
			return nil
		}
		v.ctx.Emit(Element{Tag: 0, Val: val.Int(e.Val.AsInt() + 1)})
		v.ctx.Flush()
	}
	return nil
}

func TestClusterOverheads(t *testing.T) {
	cfg := cluster.DefaultConfig(4)
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.LaunchJob()
	cl.Barrier()
	cl.CtrlSleep()
	st := cl.Stats()
	if st.JobsLaunched != 1 || st.TasksDispatched != 4 || st.Barriers != 1 || st.CtrlMessages != 1 {
		t.Errorf("stats = %+v", st)
	}
	if cl.Place(5) != 1 || cl.Place(4) != 0 {
		t.Error("placement helpers broken")
	}
	if _, err := cluster.New(cluster.Config{}); err == nil {
		t.Error("zero machines accepted")
	}
}

func TestJobStopIdempotent(t *testing.T) {
	cl, _ := cluster.New(cluster.FastConfig(1))
	defer cl.Close()
	var g Graph
	g.AddOp("noop", 1, func(int) Vertex { return &baseVertex{} })
	job, err := NewJob(&g, cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Stop(nil)
	job.Stop(fmt.Errorf("late")) // must not override the clean outcome
	if err := job.Wait(); err != nil {
		t.Errorf("Wait after clean stop + late Stop(err) = %v, want nil", err)
	}
	if d := job.Stats().MailboxDropped; d != 0 {
		t.Errorf("MailboxDropped = %d after clean stop, want 0", d)
	}
}

// TestEmptyPartitionWaitStopRace covers a partition that hosts no instance
// (every operator of a scalar program lives on machine 0): with no event
// loop to wait for, Wait returns at once, possibly while a teardown on
// another goroutine is still in Stop(err). Run under -race, this is the
// regression test for Job.err being a plain field.
func TestEmptyPartitionWaitStopRace(t *testing.T) {
	var g Graph
	g.AddOp("solo", 1, func(int) Vertex { return &baseVertex{} })
	job, err := NewPartitionedJob(&g, 2, 1, 0, nopRemote{})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error)
	go func() { waited <- job.Wait() }()
	job.Stop(errors.New("session closed"))
	<-waited
	if err := job.Wait(); err == nil {
		t.Error("Wait after Stop(err) = nil, want the stop reason")
	}
}

// nopRemote is the Remote of a partition that never sends.
type nopRemote struct{}

func (nopRemote) SendData(int, RemoteHeader, []byte, int) {}
func (nopRemote) SendEOB(int, RemoteHeader, Tag)          {}
