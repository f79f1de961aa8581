package dataflow

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/mitos-project/mitos/internal/val"
)

// frameOf is the reference encoding of a frame: its elements' appendElement
// encodings back to back.
func frameOf(batch []Element) []byte {
	var dst []byte
	for _, e := range batch {
		dst = appendElement(dst, e)
	}
	return dst
}

// randValue draws a value of any kind, tuples nested up to depth levels.
func randValue(r *rand.Rand, depth int) val.Value {
	switch k := r.Intn(6); {
	case k == 0:
		return val.Int(r.Int63n(1<<40) - 1<<39)
	case k == 1:
		return val.Float(r.NormFloat64())
	case k == 2:
		return val.Bool(r.Intn(2) == 0)
	case k == 3 || depth == 0:
		return val.Str(fmt.Sprintf("s%d", r.Intn(1000)))
	default:
		fields := make([]val.Value, 1+r.Intn(3))
		for i := range fields {
			fields[i] = randValue(r, depth-1)
		}
		return val.Tuple(fields...)
	}
}

// frameRecorder is a Remote that keeps every frame it is handed, per
// addressee, in order; an EOB is kept as a frame with a nil payload.
type frameRecorder struct {
	mu     sync.Mutex
	frames map[RemoteHeader][]recordedFrame
}

type recordedFrame struct {
	payload []byte
	count   int
	tag     Tag // EOB frames only
}

func (r *frameRecorder) SendData(dest int, h RemoteHeader, payload []byte, count int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames[h] = append(r.frames[h], recordedFrame{payload: bytes.Clone(payload), count: count})
	val.PutScratch(payload)
}

func (r *frameRecorder) SendEOB(dest int, h RemoteHeader, tag Tag) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames[h] = append(r.frames[h], recordedFrame{tag: tag})
}

// lendingSource emits its bags on "go", each element through EmitLent when
// lend is set: it builds the element's top-level tuple in its own array and
// overwrites the array with a sentinel as soon as EmitLent returns.
type lendingSource struct {
	baseVertex
	bags [][]val.Value
	lend bool
	slab val.Slab
	lent [4]val.Value
}

var lentSentinel = val.Str("lent tuple poisoned")

func (v *lendingSource) OnControl(ev any) error {
	if ev != "go" {
		return nil
	}
	for b, elems := range v.bags {
		tag := Tag(b + 1)
		for _, x := range elems {
			if !v.lend || x.Kind() != val.KindTuple {
				v.ctx.Emit(Element{Tag: tag, Val: x})
				continue
			}
			lent := v.lent[:copy(v.lent[:], x.Fields())]
			v.ctx.EmitLent(Element{Tag: tag, Val: val.Tuple(lent...)}, &v.slab)
			for i := range lent {
				lent[i] = lentSentinel
			}
		}
		v.ctx.EmitEOB(tag)
	}
	return nil
}

// recordingSink keeps a copy of every batch it is handed, shallow for an
// element that arrives over a batching edge and deep for one that arrives
// over a chained edge, whose lent tuple the producer reuses; it reports on
// done once left end-of-bags have arrived.
type recordingSink struct {
	baseVertex
	chained bool
	mu      *sync.Mutex
	got     map[int][][]Element // by instance
	left    int
	done    chan<- struct{}
}

func (v *recordingSink) OnBatch(input, from int, batch []Element) error {
	b := make([]Element, len(batch))
	for i, e := range batch {
		b[i] = e
		if v.chained && e.Val.Kind() == val.KindTuple {
			b[i].Val = val.Tuple(append([]val.Value(nil), e.Val.Fields()...)...)
		}
	}
	v.mu.Lock()
	v.got[v.ctx.Instance()] = append(v.got[v.ctx.Instance()], b)
	v.mu.Unlock()
	return nil
}

func (v *recordingSink) OnEOB(input, from int, tag Tag) error {
	if v.left--; v.left == 0 {
		v.done <- struct{}{}
	}
	return nil
}

// frameCase is one run of the frame harness: a source of frameSrcPar
// instances, of which the one on machine self is hosted, feeding a sink over
// each partitioning and one over a chained edge, through EmitLent when lend
// is set.
type frameCase struct {
	batchSize int
	self      int
	lend      bool
}

const (
	frameMachines = 3
	frameSrcPar   = 2
)

var frameParts = []Partitioning{PartShuffleKey, PartShuffleVal, PartBroadcast, PartGather, PartForward}

// runFrames runs c over bags and returns the frames the Remote recorded and
// the batches each local sink received, by sink op name.
func runFrames(t *testing.T, c frameCase, bags [][]val.Value) (*frameRecorder, map[string]map[int][][]Element, *Graph) {
	t.Helper()
	var g Graph
	src := g.AddOp("src", frameSrcPar, func(int) Vertex { return &lendingSource{bags: bags, lend: c.lend} })
	rec := &frameRecorder{frames: map[RemoteHeader][]recordedFrame{}}
	var mu sync.Mutex
	got := map[string]map[int][][]Element{}
	done := make(chan struct{}, 64)
	waits := 0
	sink := func(name string, par int, chained bool) *Op {
		got[name] = map[int][][]Element{}
		for i := 0; i < par; i++ {
			if i%frameMachines == c.self {
				waits++
			}
		}
		return g.AddOp(name, par, func(int) Vertex {
			return &recordingSink{chained: chained, mu: &mu, got: got[name], left: len(bags), done: done}
		})
	}
	for _, p := range frameParts {
		par := frameMachines // a target on every machine
		switch p {
		case PartForward:
			par = frameSrcPar
		case PartGather:
			par = 1 // instances past the first would get no end-of-bag
		}
		g.Connect(src, sink(p.String(), par, false), 0, p)
	}
	g.ConnectChained(src, sink("chained", frameSrcPar, true), 0)
	job, err := NewPartitionedJob(&g, frameMachines, c.self, c.batchSize, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	job.Broadcast("go")
	for i := 0; i < waits; i++ {
		<-done
	}
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	return rec, got, &g
}

// route returns the sink instances an element of the source goes to over p.
func route(p Partitioning, from, par int, v val.Value) []int {
	switch p {
	case PartShuffleKey:
		return []int{int(v.Key().Hash() % uint64(par))}
	case PartShuffleVal:
		return []int{int(v.Hash() % uint64(par))}
	case PartGather:
		return []int{0}
	case PartForward:
		return []int{from}
	}
	all := make([]int, par)
	for i := range all {
		all[i] = i
	}
	return all
}

func frameBags(seed int64) [][]val.Value {
	r := rand.New(rand.NewSource(seed))
	bags := make([][]val.Value, 3)
	for b := range bags {
		for i := 0; i < 50+r.Intn(300); i++ {
			if r.Intn(4) == 0 {
				bags[b] = append(bags[b], randValue(r, 2))
			} else {
				bags[b] = append(bags[b], val.Tuple(randValue(r, 1), randValue(r, 2), randValue(r, 0))) // a host's lent width
			}
		}
	}
	return bags
}

// checkFrames compares, for every edge of the run, the frames recorded for
// each remote sink instance with the reference encoding of the elements
// routed to it, cut every batchSize elements and at every end-of-bag, and
// the batches each local sink instance received with those elements
// themselves, value by value.
func checkFrames(t *testing.T, c frameCase, bags [][]val.Value, rec *frameRecorder, got map[string]map[int][][]Element, g *Graph) {
	t.Helper()
	remotes, locals := 0, 0
	for _, op := range g.Ops()[1:] {
		part, name := PartForward, op.Name
		for _, p := range frameParts {
			if p.String() == name {
				part = p
			}
		}
		// want[i] is the elements routed to sink instance i, with nil
		// Values marking end-of-bags.
		want := make([][]Element, op.Parallelism)
		for b, elems := range bags {
			for _, x := range elems {
				for _, i := range route(part, c.self, op.Parallelism, x) {
					want[i] = append(want[i], Element{Tag: Tag(b + 1), Val: x})
				}
			}
			// An end-of-bag goes to every instance over a shuffle or a
			// broadcast, and to the one data goes to over gather and forward.
			for j := range want {
				if part != PartGather && part != PartForward || j == route(part, c.self, op.Parallelism, val.Value{})[0] {
					want[j] = append(want[j], Element{Tag: Tag(b + 1)})
				}
			}
		}
		for i, w := range want {
			if len(w) == 0 {
				continue // not a target of the hosted producer
			}
			if i%frameMachines == c.self {
				locals++
				var flat []Element
				for _, batch := range got[name][i] {
					if len(batch) > c.batchSize {
						t.Errorf("%s[%d]: a batch of %d elements at batch size %d", name, i, len(batch), c.batchSize)
					}
					flat = append(flat, batch...)
				}
				var data []Element
				for _, e := range w {
					if e.Val.IsValid() {
						data = append(data, e)
					}
				}
				if len(flat) != len(data) {
					t.Errorf("%s[%d]: received %d elements, want %d", name, i, len(flat), len(data))
					continue
				}
				for k := range data {
					if flat[k].Tag != data[k].Tag || !flat[k].Val.Equal(data[k].Val) {
						t.Errorf("%s[%d] element %d: (%d, %v), want (%d, %v)", name, i, k, flat[k].Tag, flat[k].Val, data[k].Tag, data[k].Val)
						break
					}
				}
				continue
			}
			remotes++
			var ref []recordedFrame
			var cur []Element
			cut := func() {
				if len(cur) > 0 {
					ref = append(ref, recordedFrame{payload: frameOf(cur), count: len(cur)})
					cur = nil
				}
			}
			for _, e := range w {
				if !e.Val.IsValid() {
					cut()
					ref = append(ref, recordedFrame{tag: e.Tag})
					continue
				}
				if cur = append(cur, e); len(cur) == c.batchSize {
					cut()
				}
			}
			h := RemoteHeader{Op: op.ID, Inst: i, Input: 0, From: c.self}
			have := rec.frames[h]
			if len(have) != len(ref) {
				t.Errorf("%s[%d]: %d frames, want %d", name, i, len(have), len(ref))
				continue
			}
			for k := range ref {
				if have[k].count != ref[k].count || have[k].tag != ref[k].tag || !bytes.Equal(have[k].payload, ref[k].payload) {
					t.Errorf("%s[%d] frame %d: %d elements, tag %d, %d bytes; want %d, %d, %d (payloads equal: %t)",
						name, i, k, have[k].count, have[k].tag, len(have[k].payload), ref[k].count, ref[k].tag, len(ref[k].payload),
						bytes.Equal(have[k].payload, ref[k].payload))
					break
				}
			}
		}
	}
	if remotes == 0 || locals == 0 {
		t.Fatalf("%d remote and %d local sink instances checked, want some of each", remotes, locals)
	}
}

// TestEmitFramesMatchBatchEncoding: a remote target's frame, encoded as each
// element is emitted, is byte for byte the reference encoding of the same
// elements in order, cut at the same batch size and end-of-bags as a batch,
// over shuffle, broadcast and gather edges with local and remote targets,
// at batch sizes 1, 3 and DefaultBatchSize; local targets receive the
// elements themselves. The source's hosted instance sits on machine 0, where
// the gather target is local, and on machine 1, where it is remote.
func TestEmitFramesMatchBatchEncoding(t *testing.T) {
	for _, bs := range []int{1, 3, DefaultBatchSize} {
		for self := 0; self < frameSrcPar; self++ {
			c := frameCase{batchSize: bs, self: self}
			t.Run(fmt.Sprintf("batch%d/machine%d", bs, self), func(t *testing.T) {
				bags := frameBags(int64(bs*10 + self))
				rec, got, g := runFrames(t, c, bags)
				checkFrames(t, c, bags, rec, got, g)
			})
		}
	}
}

// TestEmitLentPoison: a producer that overwrites the tuple it lent with a
// sentinel the moment EmitLent returns must still reach every target with
// the element it emitted — a local batch keeps a copy, a remote frame the
// encoding, and a chained reader reads it before the call returns.
func TestEmitLentPoison(t *testing.T) {
	var remote, local sync.Map
	SetLentHook(func(r bool) {
		if r {
			remote.Store(true, true)
		} else {
			local.Store(true, true)
		}
	})
	defer SetLentHook(nil)
	for _, bs := range []int{1, 3, DefaultBatchSize} {
		for self := 0; self < frameSrcPar; self++ {
			c := frameCase{batchSize: bs, self: self, lend: true}
			t.Run(fmt.Sprintf("batch%d/machine%d", bs, self), func(t *testing.T) {
				bags := frameBags(int64(bs*10 + self))
				rec, got, g := runFrames(t, c, bags)
				checkFrames(t, c, bags, rec, got, g)
			})
		}
	}
	if _, ok := remote.Load(true); !ok {
		t.Error("no lent element was encoded into a remote frame")
	}
	if _, ok := local.Load(true); !ok {
		t.Error("no lent element was copied into a local batch")
	}
}
