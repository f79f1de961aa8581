package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// These tests pin the one-frontier rule (DESIGN.md Sec. 19): hosts and the
// coordinator keep only what an output bag can still select, whatever the
// number of steps, and every protocol check still names absolute positions.

// TestExitConsumerRetiresSupersededBags: the consumer in a loop's exit block
// of a value produced in the loop receives one bag per loop step and reads
// only the last. Each new occurrence of the producer's block supersedes the
// bag before it, which goes as soon as it is complete — not in one sweep when
// the loop exits.
func TestExitConsumerRetiresSupersededBags(t *testing.T) {
	sink := &collector{}
	h := handFedHostIn(t, 2, ir.OpCopy, nil, store.NewMemStore(), []ir.BlockID{1}, sink)
	visit(t, h, 0)
	held := func() int { return len(h.inbufs[0].bags) }
	for step := 0; step < 10000; step++ {
		visit(t, h, 1)
		pos := h.pathLen
		feed(t, h, 0, pos, val.Int(int64(pos)))
		eob(t, h, 0, pos)
		if held() > 2 || h.held != held() || len(h.freeBags) > 2 {
			t.Fatalf("step %d: %d bags buffered (counted %d), %d free; want at most 2 of each", step, held(), h.held, len(h.freeBags))
		}
	}
	// A retired position is still behind the low-water mark for the checks.
	err := h.OnBatch(0, 0, []Element{{Tag: 2, Val: val.Int(2)}})
	if err == nil || !strings.Contains(err.Error(), "element for GCed bag at 2") {
		t.Errorf("element of a retired bag: err = %v, want the GCed-bag error", err)
	}
	err = h.OnEOB(0, 0, 2)
	if err == nil || !strings.Contains(err.Error(), "EOB for GCed bag at 2") {
		t.Errorf("end-of-bag of a retired bag: err = %v, want the GCed-bag error", err)
	}

	// A superseded bag whose end-of-bag is still out stays until it is in:
	// its producer may yet send elements, and they are not errors.
	visit(t, h, 1)
	open := h.pathLen
	feed(t, h, 0, open, val.Int(-1))
	for i := 0; i < 2; i++ {
		visit(t, h, 1)
		feed(t, h, 0, h.pathLen, val.Int(int64(h.pathLen)))
		eob(t, h, 0, h.pathLen)
	}
	if bufferedAt(h, 0, open) != 1 || h.inbufs[0].lowWater > open {
		t.Errorf("superseded bag %d retired before its end-of-bag (lowWater %d)", open, h.inbufs[0].lowWater)
	}
	feed(t, h, 0, open, val.Int(-2))
	eob(t, h, 0, open)
	if held() != 1 || h.inbufs[0].bags[0].pos != h.pathLen {
		t.Errorf("after the late end-of-bag: %d bags buffered, want only the last", held())
	}

	// The exit block's output reads the last bag.
	last := h.pathLen
	visit(t, h, 2)
	if got := sink.bags[h.pathLen]; !bag.Equal(got, ints(last)) {
		t.Errorf("exit output = %v, want [%d]", got, last)
	}
	if !slices.Equal(sink.eobs, []int{h.pathLen}) {
		t.Errorf("output bags closed at %v, want [%d]", sink.eobs, h.pathLen)
	}
}

// loopStepper drives a hand-fed host of loopPlan's one-block loop b1 one
// visit at a time: the control segment, one element of the bag the visit's
// output selects, and its end-of-bag.
type loopStepper struct {
	h    *host
	elem val.Value
	// phi reads the previous visit's bag over the back edge (slot 1; the
	// first visit reads slot 0, from b0); the others read their own visit's.
	phi   bool
	batch [1]Element
}

func newLoopStepper(tb testing.TB, kind string) *loopStepper {
	s := &loopStepper{elem: val.Int(7)}
	st := store.NewMemStore()
	switch kind {
	case "phi":
		s.phi = true
		s.h = handFedHost(tb, ir.OpPhi, nil, st, []ir.BlockID{0, 1}, nil)
	case "map":
		s.h = handFedHost(tb, ir.OpMap, mustUDF(tb, incUDF), st, []ir.BlockID{1}, nil)
	case "condition":
		s.elem = val.Bool(true)
		s.h = handFedHost(tb, ir.OpCopy, nil, st, []ir.BlockID{1}, nil)
		s.h.op.IsCondition = true
	default:
		tb.Fatalf("no loop stepper for %q", kind)
	}
	visit(tb, s.h, 0)
	return s
}

func (s *loopStepper) step(tb testing.TB) {
	h := s.h
	pos := h.pathLen + 1
	if err := h.OnControl(&PathSegment{Pos: pos, Head: loopBody}); err != nil {
		tb.Fatal(err)
	}
	slot, sel := 0, pos
	if s.phi {
		sel = pos - 1
		if pos > 2 {
			slot = 1
		}
	}
	s.batch[0] = Element{Tag: dataflow.Tag(sel), Val: s.elem}
	if err := h.OnBatch(slot, 0, s.batch[:]); err != nil {
		tb.Fatal(err)
	}
	if err := h.OnEOB(slot, 0, dataflow.Tag(sel)); err != nil {
		tb.Fatal(err)
	}
	if h.cur != nil || int(h.bagsDone.Load()) != pos-1 {
		tb.Fatalf("visit %d: output not finished (%d bags done)", pos, h.bagsDone.Load())
	}
}

const loopBody ir.BlockID = 1

// TestHostStepAllocsFlat: one loop step through a host — control, a batch,
// an end-of-bag — allocates nothing once its queues and its two input-bag
// buffers exist.
func TestHostStepAllocsFlat(t *testing.T) {
	for _, kind := range []string{"phi", "map", "condition"} {
		s := newLoopStepper(t, kind)
		for i := 0; i < 100; i++ {
			s.step(t)
		}
		if n := testing.AllocsPerRun(1000, func() { s.step(t) }); n != 0 {
			t.Errorf("%s host: %v allocs per loop step, want 0", kind, n)
		}
		if s.h.held > 2 || len(s.h.freeBags) > 2 {
			t.Errorf("%s host: %d bags buffered, %d free after 1100 steps", kind, s.h.held, len(s.h.freeBags))
		}
	}
}

// BenchmarkHostLoopStep is one loop step of the loop-carried phi: one control
// segment, one element, one end-of-bag.
func BenchmarkHostLoopStep(b *testing.B) {
	s := newLoopStepper(b, "phi")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(b)
	}
}

// TestDeltaSlotsUnderTheFrontier replays the two input slots of the
// connected-components iteration (ccSrc) that do not follow the common
// pattern. Once the deltaMerge's state is seeded, a step takes its seed slot
// as a whole bag: it waits for the seed bag's end-of-bags and never reads its
// elements, so the first seed bag survives until the first step has read it,
// the low-water mark passes only complete seed bags, and a seed element
// below the mark is the same protocol error as on any other slot. The
// solution() after the loop selects the last step.
func TestDeltaSlotsUnderTheFrontier(t *testing.T) {
	minUDF := mustUDF(t, lang.Fn2("a", "b", lang.CallFn("min", lang.Var("a"), lang.Var("b"))))
	sink := &collector{}
	h := handFedHost(t, ir.OpDeltaMerge, minUDF, store.NewMemStore(), []ir.BlockID{1, 1}, sink)
	pair := func(k, v int) val.Value { return val.Pair(val.Int(int64(k)), val.Int(int64(v))) }
	visit(t, h, 0)
	visit(t, h, 1)
	feed(t, h, 0, 2, pair(1, 10), pair(2, 20))
	eob(t, h, 0, 2)
	visit(t, h, 1) // the path runs a step ahead of the first merge
	if h.cur == nil || h.cur.pos != 2 || h.slotUse(h.cur, 0) != slotStreams {
		t.Fatalf("first step is not the live output streaming its seed")
	}
	// Only changes are emitted: (2, 30) changes nothing if the seed was read.
	feed(t, h, 1, 2, pair(2, 30), pair(3, 7))
	eob(t, h, 1, 2)
	if want := []val.Value{pair(3, 7)}; !bag.Equal(sink.bags[2], want) {
		t.Fatalf("first step emitted %v, want %v: the seed bag did not survive to its reader", sink.bags[2], want)
	}
	if h.cur == nil || h.cur.pos != 3 || h.slotUse(h.cur, 0) != slotWhole {
		t.Fatalf("second step did not start with the seed slot taken whole")
	}
	for pos := 3; pos <= 5; pos++ {
		if pos > 3 {
			visit(t, h, 1)
		}
		feed(t, h, 1, pos, pair(1, 10-pos))
		eob(t, h, 1, pos)
		if h.cur == nil || h.cur.pos != pos {
			t.Fatalf("step %d finished before its seed bag's end-of-bags", pos)
		}
		if low := h.inbufs[0].lowWater; low != pos-1 {
			t.Fatalf("step %d: seed slot lowWater = %d, want %d: the mark passed an incomplete bag", pos, low, pos-1)
		}
		// A seed element of a seeded step is never read: (9, 9) would be
		// a change.
		feed(t, h, 0, pos, pair(9, 9))
		eob(t, h, 0, pos)
	}
	if low := h.inbufs[0].lowWater; low != 5 {
		t.Fatalf("seed slot lowWater = %d, want 5", low)
	}
	for pos := 3; pos <= 5; pos++ {
		if got, want := sink.bags[pos], []val.Value{pair(1, 10-pos)}; !bag.Equal(got, want) {
			t.Errorf("step %d emitted %v, want %v", pos, got, want)
		}
	}
	if h.held > 2 {
		t.Errorf("%d bags buffered after 4 steps", h.held)
	}
	// No slot forgives a late arrival, the seed slot included.
	late := []Element{{Tag: 4, Val: pair(9, 9)}}
	if err := h.OnBatch(0, 0, late); err == nil || !strings.Contains(err.Error(), "element for GCed bag at 4") {
		t.Errorf("late element on the seed slot: err = %v, want the GCed-bag error", err)
	}
	if err := h.OnEOB(1, 0, 3); err == nil || !strings.Contains(err.Error(), "EOB for GCed bag at 3") {
		t.Errorf("late end-of-bag on the delta slot: err = %v, want the GCed-bag error", err)
	}

	p, err := BuildPlan(compile(t, ccSrc), 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, dm := findOp(t, p, ir.OpSolution), findOp(t, p, ir.OpDeltaMerge)
	hs := newHost(&runtime{plan: p}, sol, 0)
	feedPath(hs, p.IR.Entry())
	for i := 0; i < 50; i++ {
		feedPath(hs, dm.Block)
	}
	feedPath(hs, sol.Block)
	if err := startAt(hs, 52); err != nil {
		t.Fatal(err)
	}
	if got := hs.cur.inPos[0]; got != 51 {
		t.Errorf("solution() after the loop reads step %d, want the last, 51", got)
	}
	if q := hs.occ[0].pos; len(q) != 1 {
		t.Errorf("solution host queues %v after a 50-step loop", q)
	}
}

// TestSolutionSlotDropsElements: the edge from a deltaMerge to solution()
// only names the step to dump, so the slot drops every element on arrival —
// its bags are made and completed by their end-of-bags alone — and an element
// behind the slot's low-water mark is still the protocol error.
func TestSolutionSlotDropsElements(t *testing.T) {
	sink := &collector{}
	h := handFedHostIn(t, 2, ir.OpSolution, nil, store.NewMemStore(), []ir.BlockID{1}, sink)
	if !h.inbufs[0].discard {
		t.Fatal("solution slot not marked discard")
	}
	pair := func(k, v int) val.Value { return val.Pair(val.Int(int64(k)), val.Int(int64(v))) }
	visit(t, h, 0)
	for pos := 2; pos <= 3; pos++ {
		visit(t, h, 1)
		feed(t, h, 0, pos, pair(pos, 1), pair(pos, 2))
		if n := bufferedAt(h, 0, pos); n != 0 {
			t.Fatalf("step %d: slot holds %d elements, want 0", pos, n)
		}
		eob(t, h, 0, pos)
	}
	visit(t, h, 2)
	if !slices.Equal(sink.eobs, []int{4}) {
		t.Fatalf("solution output bags closed at %v, want [4]", sink.eobs)
	}
	if low := h.inbufs[0].lowWater; low != 3 {
		t.Fatalf("lowWater = %d, want 3, the step the dump read", low)
	}
	err := h.OnBatch(0, 0, []Element{{Tag: 2, Val: pair(2, 3)}})
	if err == nil || !strings.Contains(err.Error(), "element for GCed bag at 2") {
		t.Errorf("element behind the low-water mark: err = %v, want the GCed-bag error", err)
	}
}

// windowPlane is a ControlPlane that plays the operator hosts of a counted
// loop against the coordinator without keeping its frames: drain answers
// every released position with its branch decision (stay in the loop for
// loopFor decisions) and its completions, and falls silent before the
// decision numbered silentAt.
type windowPlane struct {
	t         *testing.T
	plan      *Plan
	co        *Coordinator
	loopFor   int
	silentAt  int
	decisions int
	next      int // first position not answered yet
	todo      []ir.BlockID
	barriers  int
	stops     []error
	templated bool
	// Every frame is carved from slab, as simControlPlane carves it for
	// Job.Broadcast; every 997th is kept, with a copy of what it was released
	// with.
	slab       FrameSlab
	kept       []*PathSegment
	keptCopy   []PathSegment
	frames     int
	maxPath    int
	maxPending int
}

func (w *windowPlane) Barrier()       { w.barriers++ }
func (w *windowPlane) Stop(err error) { w.stops = append(w.stops, err) }

func (w *windowPlane) Broadcast(seg PathSegment) {
	if seg.Pos != w.next+len(w.todo) {
		w.t.Fatalf("frame at %d, want %d", seg.Pos, w.next+len(w.todo))
	}
	f := w.slab.New(seg)
	if w.frames++; w.frames%997 == 1 {
		w.kept = append(w.kept, f)
		w.keptCopy = append(w.keptCopy, seg)
	}
	w.todo = append(w.todo, w.plan.Segment(f.Head, w.templated)...)
}

// drain answers every released position, in path order. OnEvent re-enters
// Broadcast, which only queues.
func (w *windowPlane) drain() {
	for len(w.todo) > 0 && len(w.stops) == 0 {
		pos, blk := w.next, w.plan.IR.Blocks[w.todo[0]]
		if blk.Term.Kind == ir.TermBranch && w.decisions+1 == w.silentAt {
			return
		}
		w.todo = w.todo[1:]
		w.next++
		if blk.Term.Kind == ir.TermBranch {
			w.decisions++
			w.co.OnEvent(CoordEvent{Kind: EvDecision, Pos: pos, Branch: w.decisions <= w.loopFor})
		}
		w.co.OnEvent(CoordEvent{Kind: EvCompletion, Pos: pos, Count: w.plan.InstancesPerBlock[blk.ID]})
		w.maxPath = max(w.maxPath, cap(w.co.path))
		w.maxPending = max(w.maxPending, cap(w.co.pending))
	}
}

func newWindowPlane(t *testing.T, opts Options, loopFor, silentAt int) *windowPlane {
	g := compile(t, "i = 0\nwhile (i < 3) {\n  i = i + 1\n}\nnewBag(i).writeFile(\"out\")\n")
	plan, err := Compile(g, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := &windowPlane{t: t, plan: plan, loopFor: loopFor, silentAt: silentAt, next: 1, templated: opts.Templated()}
	w.co = NewCoordinator(plan, opts, 3, w)
	w.co.Seed()
	return w
}

// TestCoordinatorWindow: the coordinator's path, completion counts and
// deciders are windows over what is neither released nor complete yet, so a
// long loop does not grow them; every frame carved from a FrameSlab still
// reads the (pos, head) it was released with at the end of the loop, which a
// slab that reused a chunk would fail; and counts and errors name absolute
// positions.
func TestCoordinatorWindow(t *testing.T) {
	const decisions = 100000
	for _, mode := range []struct{ pipelining, templates bool }{{true, true}, {true, false}, {false, true}} {
		t.Run(fmt.Sprintf("pipelining=%v,templates=%v", mode.pipelining, mode.templates), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Pipelining, opts.Templates = mode.pipelining, mode.templates
			w := newWindowPlane(t, opts, decisions, 0)
			w.drain()
			if len(w.stops) != 1 || w.stops[0] != nil {
				t.Fatalf("stops = %v, want one clean stop", w.stops)
			}
			// Entry, then header and body per decision that stayed, then the
			// header once more and the exit.
			if got, want := w.co.Result().Steps, 1+2*decisions+2; got != want || w.next != want+1 {
				t.Errorf("Steps = %d (%d positions answered), want %d", got, w.next-1, want)
			}
			if w.maxPath > 4*windowSlack || w.maxPending > 4*windowSlack {
				t.Errorf("cap(path) reached %d and cap(pending) %d over %d positions; want at most %d", w.maxPath, w.maxPending, w.next-1, 4*windowSlack)
			}
			if len(w.kept) < 50 {
				t.Fatalf("only %d frames kept", len(w.kept))
			}
			for i, f := range w.kept {
				if *f != w.keptCopy[i] {
					t.Fatalf("frame %d reads %+v, was released as %+v", 997*i+1, *f, w.keptCopy[i])
				}
			}
			if !mode.pipelining && w.barriers != w.next-2 {
				t.Errorf("%d barriers, want %d", w.barriers, w.next-2)
			}
		})
	}

	// Errors about positions behind the window and at its edge, 5000
	// decisions into a loop whose next decision is still out.
	for _, c := range []struct {
		ev   func(w *windowPlane) CoordEvent
		want func(w *windowPlane) string
	}{
		{func(*windowPlane) CoordEvent { return CoordEvent{Kind: EvCompletion, Pos: 3} },
			func(*windowPlane) string {
				return "completion for position 3, which every instance had already completed"
			}},
		{func(w *windowPlane) CoordEvent { return CoordEvent{Kind: EvCompletion, Pos: w.next + 5} },
			func(w *windowPlane) string { return fmt.Sprintf("completion for unknown position %d", w.next+5) }},
		{func(w *windowPlane) CoordEvent { return CoordEvent{Kind: EvDecision, Pos: 3, Branch: true} },
			func(w *windowPlane) string {
				return fmt.Sprintf("decision for position 3, path has %d determined positions", w.next)
			}},
	} {
		w := newWindowPlane(t, DefaultOptions(), 5000, 5000)
		w.drain()
		if w.co.base == 0 {
			t.Fatalf("window never moved in %d positions", w.next)
		}
		w.co.OnEvent(c.ev(w))
		if len(w.stops) != 1 || w.stops[0] == nil || !strings.Contains(w.stops[0].Error(), c.want(w)) {
			t.Errorf("stops = %v, want one error saying %q", w.stops, c.want(w))
		}
	}
}
