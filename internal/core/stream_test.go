package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// These tests pin the input-bag lifetime rule (DESIGN.md Sec. 16): which
// slots the plan classifies single-use, and what the host then does with
// their bags — stream them through, keep nothing consumed — while
// re-readable bags stay buffered and intact.

// TestSingleUseAnalysis checks Plan.singleUse on the control-flow shapes
// that matter, each spelled as a script so the blocks are the ones the
// front end really produces. A slot is named by its consumer's SSA variable.
func TestSingleUseAnalysis(t *testing.T) {
	const nested = `
inv = readFile("inv")
i = 0
while (i < 3) {
  a = readFile("f" + i)
  u = a.union(inv)
  if (i == 1) {
    b = u.map(x => x + 1)
  } else {
    b = u.map(x => x + 2)
  }
  c = b.map(x => x)
  j = 0
  while (j < 2) {
    e = c.map(x => x + 7)
    e.writeFile("o")
    j = j + 1
  }
  i = i + 1
}
`
	const doWhile = `
t = newBag(0)
do {
  t = t.map(x => x + 1)
  n = only(t.sum())
} while (n < 5)
t.writeFile("o")
`
	const solutionInside = `
data = readFile("in")
d = data
i = 0
do {
  w = data.deltaMerge(d, (a, b) => min(a, b))
  s = w.solution()
  d = s.map(t => (t.0, t.1 + 1))
  i = i + 1
} while (i < 3)
s.writeFile("out")
`
	cases := []struct {
		name, src, consumer string
		slot                int
		want                bool
	}{
		{"straight line", `a = readFile("in")` + "\n" + `b = a.map(x => x)` + "\n" + `b.writeFile("o")`, "b.1", 0, true},
		{"same block inside a loop", nested, "u.1", 0, true},
		{"loop-invariant input into a loop", nested, "u.1", 1, false},
		{"loop header into the body", nested, "$t5.1", 0, true},
		{"if branch inside a loop", nested, "b.1", 0, true},
		{"phi joining an if/else inside a loop", nested, "b.3", 1, true},
		{"outer body into a nested loop", nested, "e.1", 0, false},
		{"phi entry edge of a loop", nested, "i.2", 0, true},
		{"phi back edge of a loop", nested, "i.2", 1, true},
		{"phi back edge in a one-block do-while", doWhile, "t.2", 1, true},
		{"read after a do-while", doWhile, "$w7.1", 0, true},
		{"solution() after the loop", ccSrc, "comp.1", 0, true},
		{"solution() inside the loop", solutionInside, "s.1", 0, true},
		{"deltaMerge seed", solutionInside, "w.1", 0, false},
		{"deltaMerge delta through the back-edge phi", solutionInside, "w.1", 1, true},
	}
	plans := map[string]*Plan{}
	for _, c := range cases {
		p := plans[c.src]
		if p == nil {
			var err error
			if p, err = BuildPlan(compile(t, c.src), 2); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			plans[c.src] = p
		}
		op := p.ByVar[c.consumer]
		if op == nil {
			t.Fatalf("%s: no operator %s in\n%s", c.name, c.consumer, p)
		}
		if got := p.singleUse(op, c.slot); got != c.want {
			t.Errorf("%s: singleUse(%s, %d) = %v, want %v", c.name, c.consumer, c.slot, got, c.want)
		}
	}
}

// TestSingleUseNeverSelectedTwice is the analysis' oracle: on random
// control-flow graphs and random walks through them, a slot classified
// single-use never has the host's own selection rule (startOutput) pick the
// same input bag for two outputs. (Precision — which shapes must come out
// single-use — is TestSingleUseAnalysis' table.)
func TestSingleUseNeverSelectedTwice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		p := randomCFG(r)
		n := len(p.IR.Blocks)
		for prod := 0; prod < n; prod++ {
			for cons := 0; cons < n; cons++ {
				checkSelections(t, r, p, ir.BlockID(prod), ir.BlockID(cons))
			}
		}
	}
}

// randomCFG is a plan over 2–6 blocks with one or two random successors each.
func randomCFG(r *rand.Rand) *Plan {
	n := 2 + r.Intn(5)
	g := &ir.Graph{InSSA: true}
	for b := 0; b < n; b++ {
		succs := []ir.BlockID{ir.BlockID(r.Intn(n))}
		if r.Intn(2) == 0 {
			succs = append(succs, ir.BlockID(r.Intn(n)))
		}
		g.Blocks = append(g.Blocks, &ir.Block{ID: ir.BlockID(b), Term: ir.Terminator{Succs: succs}})
	}
	g.ComputePreds()
	return &Plan{IR: g}
}

// randomWalk is a path of the given length through p's graph from block 0.
func randomWalk(r *rand.Rand, p *Plan, steps int) []ir.BlockID {
	path := make([]ir.BlockID, 0, steps)
	b := ir.BlockID(0)
	for len(path) < steps {
		path = append(path, b)
		succs := p.IR.Blocks[b].Term.Succs
		b = succs[r.Intn(len(succs))]
	}
	return path
}

func checkSelections(t *testing.T, r *rand.Rand, p *Plan, prod, cons ir.BlockID) {
	producer := &PlanOp{Instr: &ir.Instr{Var: "in"}, Block: prod}
	ops := []*PlanOp{{
		Instr: &ir.Instr{Var: "x", Kind: ir.OpCopy}, Block: cons,
		Inputs: []PlanInput{{Producer: producer}},
	}}
	for _, pred := range p.IR.Blocks[cons].Preds {
		ops = append(ops, &PlanOp{
			Instr: &ir.Instr{Var: "phi", Kind: ir.OpPhi}, Block: cons,
			Inputs: []PlanInput{{Producer: producer, PredBlock: pred}},
		})
	}
	for _, op := range ops {
		if !p.singleUse(op, 0) {
			continue
		}
		for walk := 0; walk < 20; walk++ {
			h := newHost(&runtime{plan: p}, op, 0)
			path := randomWalk(r, p, 30)
			feedPath(h, path...)
			last := -1
			for pos, blk := range path {
				if blk != cons {
					continue
				}
				// Outputs whose producer never ran, or a phi arriving over
				// another edge, select nothing.
				if err := startAt(h, pos+1); err != nil {
					continue
				}
				sel := h.cur.inPos[0]
				if sel == last {
					t.Fatalf("%s b%d <- b%d classified single-use, but path %v selects bag %d twice\n%s",
						op.Instr.Kind, cons, prod, path, sel, p.IR)
				}
				last = sel
			}
		}
	}
}

// TestWindowedSelectionMatchesLongestPrefix is the differential test of the
// host's frontier (DESIGN.md Sec. 19): on the random graphs and walks above,
// a host that keeps no path and only the occurrences an output can still
// select must choose, for every slot of every output, the bag a brute-force
// longest-prefix search over the whole path chooses. Outputs start in path
// order, some as soon as they are scheduled (so occurrences supersede) and
// some after the path has run ahead (so they queue).
func TestWindowedSelectionMatchesLongestPrefix(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	blockOf := func(n int) ir.BlockID { return ir.BlockID(r.Intn(n)) }
	for trial := 0; trial < 2000; trial++ {
		p := randomCFG(r)
		n := len(p.IR.Blocks)
		cons := blockOf(n)
		// An ordinary two-input operator (a producer in its own block now
		// and then) and a phi with one slot per predecessor edge.
		ordinary := &PlanOp{Instr: &ir.Instr{Var: "x", Kind: ir.OpUnion}, Block: cons}
		for i := 0; i < 2; i++ {
			src := &PlanOp{Instr: &ir.Instr{Var: fmt.Sprint("in", i)}, Block: blockOf(n)}
			if r.Intn(3) == 0 {
				src.Block = cons
			}
			ordinary.Inputs = append(ordinary.Inputs, PlanInput{Producer: src})
		}
		phi := &PlanOp{Instr: &ir.Instr{Var: "phi", Kind: ir.OpPhi}, Block: cons}
		for i, pred := range p.IR.Blocks[cons].Preds {
			src := &PlanOp{Instr: &ir.Instr{Var: fmt.Sprint("in", i)}, Block: blockOf(n)}
			phi.Inputs = append(phi.Inputs, PlanInput{Producer: src, PredBlock: pred})
		}
		path := randomWalk(r, p, 60)
		for _, op := range []*PlanOp{ordinary, phi} {
			h := newHost(&runtime{plan: p}, op, 0)
			eager := r.Intn(2) == 0
			for fed, b := range path {
				feedPath(h, b)
				// As of its last occurrence, a queue holds one position the first
				// scheduled output can reach and those after it — one position
				// in all once every output has started.
				behind := 0
				if h.pendingHead < len(h.pendingOut) {
					behind = h.pathLen - h.pendingOut[h.pendingHead].pos + 1
				}
				for _, q := range h.occ {
					if q.block == b && len(q.pos) > 1+behind {
						t.Fatalf("occurrence queue of b%d holds %v with the first scheduled output %d positions behind", q.block, q.pos, behind)
					}
				}
				if !eager && r.Intn(4) != 0 && fed != len(path)-1 {
					continue
				}
				for h.pendingHead < len(h.pendingOut) {
					pos := h.pendingOut[h.pendingHead].pos
					err := startAt(h, pos)
					want, ok := bruteForceSelection(op, path, pos)
					if (err == nil) != ok {
						t.Fatalf("%s in b%d at %d of %v: err = %v, brute force selects %v (ok=%v)", op.Instr.Kind, cons, pos, path, err, want, ok)
					}
					if ok && !slices.Equal(h.cur.inPos, want) {
						t.Fatalf("%s in b%d at %d of %v: inPos = %v, brute force selects %v", op.Instr.Kind, cons, pos, path, h.cur.inPos, want)
					}
				}
			}
		}
	}
}

// bruteForceSelection is the selection rule of paper Sec. 5.2.3 read off the
// whole path: per slot, the last occurrence of the producer's block at or
// before the limit. ok is false where startOutput must refuse.
func bruteForceSelection(op *PlanOp, path []ir.BlockID, pos int) (sel []int, ok bool) {
	lastOcc := func(b ir.BlockID, limit int) int {
		for q := limit; q >= 1; q-- {
			if path[q-1] == b {
				return q
			}
		}
		return 0
	}
	sel = make([]int, len(op.Inputs))
	if op.Instr.Kind != ir.OpPhi {
		for i, in := range op.Inputs {
			if sel[i] = lastOcc(in.Producer.Block, pos); sel[i] == 0 {
				return nil, false
			}
		}
		return sel, true
	}
	if pos < 2 {
		return nil, false
	}
	taken := false
	for i, in := range op.Inputs {
		sel[i] = -1
		if in.PredBlock == path[pos-2] && !taken {
			taken = true
			if sel[i] = lastOcc(in.Producer.Block, pos-1); sel[i] == 0 {
				return nil, false
			}
		}
	}
	return sel, taken
}

// collector is the chained sink of a hand-fed host: it records what the
// host emits, per bag.
type collector struct {
	bags map[int][]val.Value
	eobs []int
}

func (c *collector) Open(*dataflow.Context) error { return nil }
func (c *collector) OnBatch(_, _ int, batch []Element) error {
	for _, e := range batch {
		c.bags[int(e.Tag)] = append(c.bags[int(e.Tag)], e.Val)
	}
	return nil
}
func (c *collector) OnEOB(_, _ int, tag dataflow.Tag) error {
	c.eobs = append(c.eobs, int(tag))
	return nil
}
func (c *collector) OnControl(any) error { return nil }
func (c *collector) Close() error        { return nil }

// loopPlan is the control-flow graph every hand-fed host below runs in:
// b0 (entry) -> b1 (a one-block loop) -> b2 (exit).
func loopPlan() *Plan {
	g := &ir.Graph{InSSA: true}
	for b, term := range []ir.Terminator{
		{Kind: ir.TermJump, Succs: []ir.BlockID{1}},
		{Kind: ir.TermBranch, Succs: []ir.BlockID{1, 2}},
		{Kind: ir.TermExit},
	} {
		g.Blocks = append(g.Blocks, &ir.Block{ID: ir.BlockID(b), Term: term})
	}
	g.ComputePreds()
	p := &Plan{IR: g}
	if err := p.resolveSegments(); err != nil {
		panic(err)
	}
	return p
}

// handFedRuntime is the runtime of hand-fed hosts: loopPlan, every option on
// but templates, so that each path frame a test sends covers its head block
// alone (visit).
func handFedRuntime(st store.Store) *runtime {
	opts := DefaultOptions()
	opts.Templates = false
	return &runtime{plan: loopPlan(), store: st, opts: opts, emit: func(CoordEvent) {}}
}

// handFedHost builds a host for an operator of the given kind in block b1
// of loopPlan (handFedHostIn: in any of its blocks), with one producer per
// entry of producers (its block; a phi takes slot i when the path arrives
// from there), inside a started dataflow job so the host has a real Context:
// idle stand-in producers on forward edges, and — when sink is non-nil — sink
// as a chained consumer, so emissions land in it synchronously. The test then
// calls the host's Vertex methods itself.
func handFedHost(tb testing.TB, kind ir.OpKind, f *lang.UDF, st store.Store, producers []ir.BlockID, sink *collector) *host {
	tb.Helper()
	return handFedHostIn(tb, 1, kind, f, st, producers, sink)
}

func handFedHostIn(tb testing.TB, block ir.BlockID, kind ir.OpKind, f *lang.UDF, st store.Store, producers []ir.BlockID, sink *collector) *host {
	tb.Helper()
	op := &PlanOp{Instr: &ir.Instr{Var: "x", Kind: kind, F: f}, Block: block, Par: 1}
	for i, pb := range producers {
		op.Inputs = append(op.Inputs, PlanInput{
			Producer:  &PlanOp{Instr: &ir.Instr{Var: fmt.Sprintf("in%d", i)}, Block: pb},
			PredBlock: pb,
			Part:      dataflow.PartForward,
		})
	}
	rt := handFedRuntime(st)
	var g dataflow.Graph
	var h *host
	hostOp := g.AddOp("x", 1, func(int) dataflow.Vertex {
		h = newHost(rt, op, 0)
		return h
	})
	for i := range producers {
		src := g.AddOp(fmt.Sprintf("in%d", i), 1, func(int) dataflow.Vertex { return &collector{} })
		g.Connect(src, hostOp, i, dataflow.PartForward)
	}
	if sink != nil {
		sink.bags = map[int][]val.Value{}
		g.ConnectChained(hostOp, g.AddOp("sink", 1, func(int) dataflow.Vertex { return sink }), 0)
	}
	startHandFed(tb, &g)
	return h
}

// startHandFed starts a one-machine job over g, whose hosts the test then
// drives through their Vertex methods, and stops it when the test ends.
func startHandFed(tb testing.TB, g *dataflow.Graph) {
	tb.Helper()
	cl, err := cluster.New(cluster.FastConfig(1))
	if err != nil {
		tb.Fatal(err)
	}
	job, err := dataflow.NewJob(g, cl, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if err := job.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		job.Stop(nil)
		if err := job.Wait(); err != nil {
			tb.Error(err)
		}
		cl.Close()
	})
}

// visit extends the host's path by one block.
func visit(tb testing.TB, h *host, b ir.BlockID) {
	tb.Helper()
	if err := h.OnControl(&PathSegment{Pos: h.pathLen + 1, Head: b}); err != nil {
		tb.Fatal(err)
	}
}

// feed delivers vals as one batch of bag pos on slot.
func feed(tb testing.TB, h *host, slot, pos int, vals ...val.Value) {
	tb.Helper()
	batch := make([]Element, len(vals))
	for i, v := range vals {
		batch[i] = Element{Tag: dataflow.Tag(pos), Val: v}
	}
	if err := h.OnBatch(slot, 0, batch); err != nil {
		tb.Fatal(err)
	}
}

func eob(tb testing.TB, h *host, slot, pos int) {
	tb.Helper()
	if err := h.OnEOB(slot, 0, dataflow.Tag(pos)); err != nil {
		tb.Fatal(err)
	}
}

// bufferedAt is how many elements slot holds for bag pos (0 when it holds no
// such bag).
func bufferedAt(h *host, slot, pos int) int {
	for _, b := range h.inbufs[slot].bags {
		if b.pos == pos {
			return b.elems.len()
		}
	}
	return 0
}

func ints(xs ...int) []val.Value {
	out := make([]val.Value, len(xs))
	for i, x := range xs {
		out[i] = val.Int(int64(x))
	}
	return out
}

// TestHostRereadAndStream feeds a union in the loop body the way a
// pipelined run does — the whole path known up front, part of each step's
// bag arriving before the previous step has finished — and checks that the
// loop-invariant bag is re-read intact by every step while the per-step
// bags, streamed or buffered early, leave nothing behind once consumed.
func TestHostRereadAndStream(t *testing.T) {
	sink := &collector{}
	h := handFedHost(t, ir.OpUnion, nil, store.NewMemStore(), []ir.BlockID{0, 1}, sink)
	if h.inbufs[0].singleUse || !h.inbufs[1].singleUse {
		t.Fatalf("singleUse = [%v %v], want [false true]", h.inbufs[0].singleUse, h.inbufs[1].singleUse)
	}
	const steps = 5
	visit(t, h, 0)
	for s := 0; s < steps; s++ {
		visit(t, h, 1)
	}
	invariant := ints(100, 101, 102)
	feed(t, h, 0, 1, invariant...)
	eob(t, h, 0, 1)
	for pos := 2; pos < 2+steps; pos++ {
		// First half of this step's bag, then an early piece of the next
		// step's, then the rest and the end-of-bag.
		feed(t, h, 1, pos, ints(pos*10, pos*10+1)...)
		if h.cur == nil || h.cur.pos != pos {
			t.Fatalf("step %d is not the live output", pos)
		}
		if n := bufferedAt(h, 1, pos); n != 0 {
			t.Errorf("step %d: %d elements of the live single-use bag were buffered", pos, n)
		}
		if pos+1 < 2+steps {
			feed(t, h, 1, pos+1, ints((pos+1)*10+3)...)
			if n := bufferedAt(h, 1, pos+1); n != 1 {
				t.Errorf("step %d: early element of the next bag: %d buffered, want 1", pos, n)
			}
		}
		feed(t, h, 1, pos, ints(pos*10+2)...)
		eob(t, h, 1, pos)
		// The next output is live now and has drained what arrived early.
		for _, b := range h.inbufs[1].bags {
			if n := b.elems.len(); n != 0 {
				t.Errorf("after step %d: single-use bag %d still holds %d elements", pos, b.pos, n)
			}
		}
		if got := h.inbufs[0].bags[0].elems.flatten(); !bag.Equal(got, invariant) {
			t.Errorf("after step %d: re-readable bag = %v, want %v", pos, got, invariant)
		}
	}
	for pos := 2; pos < 2+steps; pos++ {
		want := append(ints(pos*10, pos*10+1, pos*10+2), invariant...)
		if pos > 2 {
			want = append(want, val.Int(int64(pos*10+3))) // the early piece
		}
		if !bag.Equal(sink.bags[pos], want) {
			t.Errorf("output bag %d = %v, want %v", pos, bag.Sorted(sink.bags[pos]), bag.Sorted(want))
		}
	}
	if len(sink.eobs) != steps {
		t.Errorf("%d output bags closed, want %d", len(sink.eobs), steps)
	}
}

// keepStore keeps the very slice it is given, as a Store may.
type keepStore struct{ sets map[string][]val.Value }

func (s *keepStore) ReadDataset(name string) ([]val.Value, error) { return s.sets[name], nil }
func (s *keepStore) ReadPartition(name string, part, parts int, _ *val.Slab, fn func(val.Value) error) error {
	return store.ReadStride(s.sets[name], part, parts, fn)
}
func (s *keepStore) WriteDataset(name string, elems []val.Value) error {
	s.sets[name] = elems
	return nil
}

// TestWriteFileNeverClearsStoredDataset: a store may keep the slice
// writeFile hands it, and recycling the bag clears its buffer, so the
// stored dataset must not share the bag's chunks. A single-use and a
// re-readable bag, in one chunk or spanning several, are stored in order.
func TestWriteFileNeverClearsStoredDataset(t *testing.T) {
	for _, n := range []int{3, 3*bagChunk0 + 5} {
		for _, dataBlock := range []ir.BlockID{1, 0} {
			st := &keepStore{sets: map[string][]val.Value{}}
			h := handFedHost(t, ir.OpWriteFile, nil, st, []ir.BlockID{dataBlock, 1}, nil)
			if got, want := h.inbufs[0].singleUse, dataBlock == 1; got != want {
				t.Fatalf("data from b%d: singleUse = %v, want %v", dataBlock, got, want)
			}
			visit(t, h, 0)
			want := ints(seq(n)...)
			if dataBlock == 0 {
				feed(t, h, 0, 1, want...)
				eob(t, h, 0, 1)
			}
			for pos := 2; pos <= 4; pos++ {
				visit(t, h, 1)
				if dataBlock == 1 {
					feed(t, h, 0, pos, want...)
					eob(t, h, 0, pos)
				}
				feed(t, h, 1, pos, val.Str(fmt.Sprint("out", pos)))
				eob(t, h, 1, pos)
			}
			// Steps 3 and 4 retired (and recycled) the bags of steps 2 and 3.
			if dataBlock == 1 && len(h.freeBags) == 0 {
				t.Error("no input bag was recycled; the test does not exercise the hazard")
			}
			for pos := 2; pos <= 4; pos++ {
				if got := st.sets[fmt.Sprint("out", pos)]; !equalInOrder(got, want) {
					t.Errorf("%d elements from b%d: stored out%d = %v, want %v", n, dataBlock, pos, got, want)
				}
			}
		}
	}
}

func mustUDF(tb testing.TB, e lang.Expr) *lang.UDF {
	tb.Helper()
	f, err := lang.MakeUDF(e)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

var (
	incUDF  = lang.Fn1("x", lang.Add(lang.Var("x"), lang.IntLit(1)))
	addUDF  = lang.Fn2("a", "b", lang.Add(lang.Var("a"), lang.Var("b")))
	pairUDF = lang.Fn1("x", lang.TupleOf(lang.Var("x"), lang.IntLit(1)))
)

// TestHostCallAllocFree pins the argument scratch: a compiled UDF call from
// the element path allocates nothing for its arguments (a scalar-returning
// lambda allocates nothing at all).
func TestHostCallAllocFree(t *testing.T) {
	h1 := &host{op: &PlanOp{Instr: &ir.Instr{F: mustUDF(t, incUDF)}}}
	h2 := &host{op: &PlanOp{Instr: &ir.Instr{F: mustUDF(t, addUDF)}}}
	x, y := val.Int(41), val.Int(1)
	if n := testing.AllocsPerRun(1000, func() {
		if v, err := h1.call(x); err != nil || v.AsInt() != 42 {
			t.Fatalf("call = %v, %v", v, err)
		}
	}); n != 0 {
		t.Errorf("1-arg UDF call: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if v, err := h2.call2(x, y); err != nil || v.AsInt() != 42 {
			t.Fatalf("call2 = %v, %v", v, err)
		}
	}); n != 0 {
		t.Errorf("2-arg UDF call: %v allocs/op, want 0", n)
	}
}

// TestHostTupleLambdaAllocs pins the host-owned frame: the tuple a lambda like
// x => (x, 1) builds is carved from the host's slab, a chunk per 127 calls
// where it was an allocation per call; and the combine path, which hands the
// UDF the run's captured singletons instead of the scratch, allocates nothing
// (one frame per call here was 100k mallocs a job on a 50 000-step loop).
func TestHostTupleLambdaAllocs(t *testing.T) {
	h := newHost(&runtime{}, &PlanOp{Instr: &ir.Instr{F: mustUDF(t, pairUDF)}}, 0)
	x := val.Str("page0042")
	if n := testing.AllocsPerRun(1000, func() {
		if v, err := h.call(x); err != nil || v.Len() != 2 {
			t.Fatalf("call = %v, %v", v, err)
		}
	}); n >= 0.05 {
		t.Errorf("tuple-building UDF call: %v allocs/op, want < 0.05", n)
	}
	hc := newHost(&runtime{}, &PlanOp{Instr: &ir.Instr{Kind: ir.OpCombine, F: mustUDF(t, addUDF)}}, 0)
	captured := []val.Value{val.Int(41), val.Int(1)}
	if n := testing.AllocsPerRun(1000, func() {
		if v, err := hc.apply(captured); err != nil || v.AsInt() != 42 {
			t.Fatalf("apply = %v, %v", v, err)
		}
	}); n != 0 {
		t.Errorf("combine UDF call: %v allocs/op, want 0", n)
	}
}

// BenchmarkTupleLambda is one call of x => (x, 1) from the element path: the
// source of TestHostTupleLambdaAllocs' number.
func BenchmarkTupleLambda(b *testing.B) {
	h := newHost(&runtime{}, &PlanOp{Instr: &ir.Instr{F: mustUDF(b, pairUDF)}}, 0)
	x := val.Str("page0042")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.call(x); err != nil {
			b.Fatal(err)
		}
	}
}

// bagFeeder drives a hand-fed single-input host in b1 one bag per loop
// step, in 64-element batches of prebuilt values.
type bagFeeder struct {
	h     *host
	batch []Element
}

func newBagFeeder(tb testing.TB, kind ir.OpKind, f lang.Expr, elem func(i int) val.Value) *bagFeeder {
	fd := &bagFeeder{
		h:     handFedHost(tb, kind, mustUDF(tb, f), store.NewMemStore(), []ir.BlockID{1}, nil),
		batch: make([]Element, 64),
	}
	for i := range fd.batch {
		fd.batch[i].Val = elem(i)
	}
	visit(tb, fd.h, 0)
	return fd
}

// bag feeds one whole bag of the given number of batches.
func (fd *bagFeeder) bag(tb testing.TB, batches int) {
	visit(tb, fd.h, 1)
	pos := fd.h.pathLen
	for i := range fd.batch {
		fd.batch[i].Tag = dataflow.Tag(pos)
	}
	for i := 0; i < batches; i++ {
		if err := fd.h.OnBatch(0, 0, fd.batch); err != nil {
			tb.Fatal(err)
		}
	}
	eob(tb, fd.h, 0, pos)
}

func mapFeeder(tb testing.TB) *bagFeeder {
	return newBagFeeder(tb, ir.OpMap, incUDF, func(i int) val.Value { return val.Int(int64(i)) })
}

func reduceByKeyFeeder(tb testing.TB) *bagFeeder {
	return newBagFeeder(tb, ir.OpReduceByKey, addUDF, func(i int) val.Value {
		return val.Pair(val.Int(int64(i%16)), val.Int(1))
	})
}

// TestHostStreamAllocsFlat: consuming a single-use bag costs the same
// number of allocations whatever its length — nothing is materialised.
func TestHostStreamAllocsFlat(t *testing.T) {
	for name, mk := range map[string]func(testing.TB) *bagFeeder{"map": mapFeeder, "reduceByKey": reduceByKeyFeeder} {
		fd := mk(t)
		short := testing.AllocsPerRun(50, func() { fd.bag(t, 1) })
		long := testing.AllocsPerRun(50, func() { fd.bag(t, 256) })
		if long > short+1 {
			t.Errorf("%s: %v allocs for a 16384-element bag, %v for a 64-element one", name, long, short)
		}
	}
}

// benchHostStream reports the cost of one 64-element batch; the bag length
// only sets how often a bag boundary is paid, so bytes/op must not grow
// with it.
func benchHostStream(b *testing.B, mk func(testing.TB) *bagFeeder) {
	for _, batches := range []int{16, 1024} {
		b.Run(fmt.Sprintf("bag=%d", 64*batches), func(b *testing.B) {
			fd := mk(b)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batches {
				fd.bag(b, batches)
			}
		})
	}
}

func BenchmarkHostStreamMap(b *testing.B)   { benchHostStream(b, mapFeeder) }
func BenchmarkHostReduceByKey(b *testing.B) { benchHostStream(b, reduceByKeyFeeder) }

// TestUDFErrorsSurviveStreaming: a UDF failure on a streamed element fails
// the job with the operator named, exactly as on the buffered path.
func TestUDFErrorsSurviveStreaming(t *testing.T) {
	h := handFedHost(t, ir.OpMap, mustUDF(t, incUDF), store.NewMemStore(), []ir.BlockID{1}, nil)
	visit(t, h, 0)
	visit(t, h, 1)
	err := h.OnBatch(0, 0, []Element{{Tag: 2, Val: val.Bool(true)}})
	if err == nil || !strings.Contains(err.Error(), "core: x:") {
		t.Errorf("OnBatch error = %v, want the map's UDF error", err)
	}
}
