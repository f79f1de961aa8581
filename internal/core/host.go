package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/obs/lineage"
	"github.com/mitos-project/mitos/internal/val"
)

// host is the bag operator host (paper Sec. 5): it wraps one physical
// instance of one logical operator and implements the coordination logic —
// choosing output bags from the execution path, choosing input bags by the
// longest-prefix rule, tagging emitted elements with their bag, tracking
// end-of-bag across physical inputs, and the pipelining/hoisting behaviour.
type host struct {
	rt   *runtime
	op   *PlanOp
	inst int
	ctx  *dataflow.Context

	// The execution path as known to this instance is its length and its last
	// block, nothing more: everything an output bag can still select lives in
	// pendingOut, occ and the input buffers, and all three forget behind the
	// same frontier (DESIGN.md Sec. 19), so a host's memory does not grow with
	// the number of steps.
	pathLen   int
	lastBlock ir.BlockID
	// occ holds, per distinct block of an input's producer, the (1-based)
	// positions at which that block occurs and that an output bag may still
	// select. No other block is ever looked up.
	occ []occQueue
	// freeBags recycles retired input-bag buffers, so a long loop's
	// steady-state bag churn allocates nothing; held counts the bags buffered
	// right now over all slots (Result.MaxBufferedBags is its high-water mark).
	freeBags []*inBag
	held     int

	pendingOut  []scheduled // output bags still to produce, in path order
	pendingHead int         // consumed prefix of pendingOut (head index, not re-slice, so append reuses capacity)
	cur         *outputRun
	freeRun     *outputRun // recycled run; a loop allocates one run, not one per step

	inbufs []inputBuf
	// frame is the activation record of every UDF call this host makes and
	// args its argument scratch (see call); slab is where the UDFs' tuples and
	// the host's own output tuples are carved. UDFs are shared across
	// instances, so all three live on the host, whose chain driver's goroutine
	// is their only user.
	frame lang.Frame
	args  [2]val.Value
	slab  val.Slab
	// readEmit is the callback finishReadFile hands a store's read, made once
	// per host so that a read allocates none: it emits each element into
	// readRun and keeps emit's error, which is the run's and not the read's,
	// in readErr.
	readEmit func(val.Value) error
	readRun  *outputRun
	readErr  error
	// scratch is the tuple a join, cross or group output is built in when
	// the operator's first stages only project it (Stage.Scratch); it is
	// read and written by runStages alone.
	scratch [3]val.Value
	// lent is the tuple the operator's last map, or its group output, fills
	// its output into when the operator lends (PlanOp.Lends): each element is
	// one Context.EmitLent, after which no reader holds the tuple — a chained
	// one kept only its fields, a batching edge encoded or copied it — so the
	// next element may overwrite it. Separate from scratch, which that map may
	// be reading. Only runStages and consume's map path set it as the frame's
	// Out, and only emitTuple fills it itself.
	lent [lendWidth]val.Value

	// Loop-invariant hoisting: position of the input bag the cached join
	// build state was built from (-1 when none), and the cached hash table.
	cachedBuildPos int
	cachedBuild    *val.Map[[]val.Value]

	// Delta iteration state: the solution-set partition this instance
	// writes (deltaMerge) or reads (solution), and the reader slot used
	// for undo-journal GC.
	state      *solutionStore
	readerSlot int

	// Observability handles; nil (no-op) unless the run has an observer.
	trc        *obs.Tracer
	lin        *lineage.Tracker
	machine    int
	lane       int
	bagsOut    *obs.Counter
	decisions  *obs.Counter
	joinBuilds *obs.Counter
	joinReuses *obs.Counter
	combineIn  *obs.Counter
	combineOut *obs.Counter
	// Frontier-shrinkage metrics of deltaMerge operators: per-step delta
	// size counters and solution-set size gauges (per-instance high-water;
	// exact current size at one instance per machine, the default).
	deltaIn          *obs.Counter
	deltaChanged     *obs.Counter
	deltaTouched     *obs.Counter
	solutionElements *obs.Gauge
	solutionBytes    *obs.Gauge
	// Fused stages count their elements_in and elements_out under their own
	// variables, and headOut adds each element a stage drops to the
	// operator's own elements_out, which the engine counts after the last
	// stage: every SSA variable reports the counts it reported unfused. They
	// count into plain fields, added to the counters once per output bag
	// (foldStageCounts), as the engine's own element counters are.
	stageIO  []stageCounters
	headOut  *obs.Counter
	headDrop int64

	// Live progress for Job.Introspect, maintained unconditionally (one
	// atomic store per bag, not per element) and read concurrently by the
	// introspection server.
	curPos   atomic.Int64
	bagsDone atomic.Int64
}

type stageCounters struct {
	in, out   *obs.Counter
	nIn, nOut int64 // since the last foldStageCounts
}

// scheduled is an output bag the path has determined and the host has not
// started: its position and the block the path arrived from, which is all a
// phi ever reads of the path before it.
type scheduled struct {
	pos  int
	from ir.BlockID
}

// occQueue is the selectable occurrences of one block, ascending. Its head
// is the earliest position any output not yet started can select. The
// invariant both ends rely on: selection limits only grow from one output bag
// to the next (positions are monotone per host, and a host's limit is always
// pos or always pos-1). So latestOcc drops what precedes the occurrence it
// returns, and noteOcc what the first scheduled output can no longer reach.
type occQueue struct {
	block ir.BlockID
	pos   []int
}

type inputBuf struct {
	bags     []*inBag // buffered bags in position order; short, so a slice and no map
	lowWater int      // bags below this position are garbage
	occ      int      // index in host.occ of the producer block's queue
	// singleUse marks a slot whose bags are each read by one output bag only
	// (Plan.singleUse): their elements stream through and are never kept
	// once consumed. The zero value, re-readable, buffers every bag until
	// the low-water GC.
	singleUse bool
	// discard marks a slot whose kind reads no element values — a
	// solution's edge from its deltaMerge only names the step to dump — so
	// its bags are created and completed by their end-of-bags and never
	// hold an element.
	discard bool
	// lent marks a chained slot whose producer lends its elements
	// (PlanOp.Lends): one that is buffered instead of consumed live is copied
	// first. An element that arrives over a batching edge is already a copy
	// or freshly decoded.
	lent bool
}

type inBag struct {
	pos      int
	elems    bagBuf
	eobs     int
	complete bool
}

// outputRun is the production of one output bag (one bag identifier:
// this operator + the execution-path prefix of length pos).
type outputRun struct {
	pos      int
	inPos    []int // selected input bag per slot; -1 = unused (phi)
	cursor   []int // per slot: elements of a re-readable bag consumed so far
	slotDone []bool

	// The keyed tables outlive the bag: releaseRun clears them for the
	// host's next output bag (keyedTable).
	hash     *val.Map[val.Value]   // reduceByKey groups / deltaMerge candidate fold
	seedHash *val.Map[val.Value]   // deltaMerge seed fold (first step only)
	build    *val.Map[[]val.Value] // join build table
	distinct *val.Map[struct{}]
	args     []val.Value // captured singleton inputs (combine, readFile, writeFile)
	acc      val.Value   // reduce accumulator
	accSet   bool
	sumInt   int64
	sumFloat float64
	sumIsF   bool
	count    int64
	emitted  val.Value // last singleton emitted (condition capture)
	nEmitted int64

	traceStart time.Duration // tracer clock at startOutput (tracing only)
}

func newHost(rt *runtime, op *PlanOp, inst int) *host {
	h := &host{
		rt:             rt,
		op:             op,
		inst:           inst,
		inbufs:         make([]inputBuf, len(op.Inputs)),
		cachedBuildPos: -1,
	}
	h.frame.Slab = &h.slab
	if rt.plan != nil {
		h.freeRun = rt.plan.runs.take(op, inst)
	}
	for i, in := range op.Inputs {
		buf := &h.inbufs[i]
		buf.singleUse = rt.plan != nil && rt.plan.singleUse(op, i)
		buf.discard = op.Instr.Kind == ir.OpSolution && op.Synth == SynthNone
		buf.lent = in.Producer.Lends && in.Chained
		buf.occ = slices.IndexFunc(h.occ, func(q occQueue) bool { return q.block == in.Producer.Block })
		if buf.occ < 0 {
			buf.occ = len(h.occ)
			h.occ = append(h.occ, occQueue{block: in.Producer.Block})
		}
	}
	return h
}

// Open implements dataflow.Vertex.
func (h *host) Open(ctx *dataflow.Context) error {
	h.ctx = ctx
	if o := ctx.Observer(); o != nil {
		reg := o.Reg()
		name := h.op.Instr.Var
		h.trc = o.Trc()
		h.lin = o.Lin()
		h.machine = ctx.Machine()
		h.lane = ctx.Lane()
		h.bagsOut = reg.Counter(h.machine, name, "bags_out")
		if h.op.IsCondition {
			h.decisions = reg.Counter(h.machine, name, "decisions")
		}
		if h.op.Instr.Kind == ir.OpJoin {
			h.joinBuilds = reg.Counter(h.machine, name, "join_builds")
			h.joinReuses = reg.Counter(h.machine, name, "join_build_reuses")
		}
		if h.op.Synth != SynthNone {
			h.combineIn = reg.Counter(h.machine, name, "combine_in")
			h.combineOut = reg.Counter(h.machine, name, "combine_out")
		}
		if h.op.Instr.Kind == ir.OpDeltaMerge && h.op.Synth == SynthNone {
			h.deltaIn = reg.Counter(h.machine, name, "delta_in")
			h.deltaChanged = reg.Counter(h.machine, name, "delta_changed")
			h.deltaTouched = reg.Counter(h.machine, name, "delta_touched")
			h.solutionElements = reg.Gauge(h.machine, name, "solution_elements")
			h.solutionBytes = reg.Gauge(h.machine, name, "solution_bytes")
		}
		if len(h.op.Stages) > 0 {
			h.headOut = reg.Counter(h.machine, name, "elements_out")
			h.stageIO = make([]stageCounters, len(h.op.Stages))
			for i, st := range h.op.Stages {
				h.stageIO[i] = stageCounters{
					in:  reg.Counter(h.machine, st.Instr.Var, "elements_in"),
					out: reg.Counter(h.machine, st.Instr.Var, "elements_out"),
				}
			}
		}
	}
	// Synthetic combiners clone their consumer's Instr (including its
	// kind), so only true deltaMerge/solution operators own state.
	if h.op.Synth == SynthNone {
		switch h.op.Instr.Kind {
		case ir.OpDeltaMerge:
			h.state = h.rt.stateStore(h.op, h.inst)
		case ir.OpSolution:
			h.state = h.rt.stateStore(h.op.Inputs[0].Producer, h.inst)
			h.readerSlot = h.state.addReader()
		}
	}
	return nil
}

// Close implements dataflow.Vertex.
func (h *host) Close() error {
	h.foldStageCounts()
	h.keepRun()
	return nil
}

// foldStageCounts adds the stage counts since the last call to the fused
// stages' counters and the operator's elements_out. It runs when an output
// bag finishes and when the host closes, so the counters are exact once the
// job is done and a live reading lags by at most one bag.
func (h *host) foldStageCounts() {
	for i := range h.stageIO {
		c := &h.stageIO[i]
		c.in.Add(c.nIn)
		c.out.Add(c.nOut)
		c.nIn, c.nOut = 0, 0
	}
	h.headOut.Add(h.headDrop)
	h.headDrop = 0
}

// WantsControlWake implements dataflow.ControlWaker: a path extension can
// only make this host runnable if its own block is among the new
// positions — that is when a new output bag becomes startable (possibly
// from already-buffered inputs). Extensions over other blocks are ingested
// lazily at the next wake; bag selection is unaffected because it only
// ever consults path positions at or before the bag being produced.
func (h *host) WantsControlWake(ev any) bool {
	seg, ok := ev.(*PathSegment)
	if !ok {
		return true
	}
	return slices.Contains(h.segment(seg), h.op.Block)
}

// OnControl ingests execution-path extensions.
func (h *host) OnControl(ev any) error {
	seg, ok := ev.(*PathSegment)
	if !ok {
		return nil
	}
	if seg.Pos != h.pathLen+1 {
		return fmt.Errorf("core: path segment at %d out of order (have %d)", seg.Pos, h.pathLen)
	}
	for _, b := range h.segment(seg) {
		h.step(b)
	}
	return h.progress()
}

// segment resolves the blocks a path frame covers from the plan, the way
// its sender cut it.
func (h *host) segment(seg *PathSegment) []ir.BlockID {
	return h.rt.plan.Segment(seg.Head, h.rt.opts.Templated())
}

// step extends the path by block b. An own-block position is scheduled
// before its occurrence is noted, so that a phi fed from its own block (a
// one-block do-while, limit pos-1) still finds the previous visit queued.
func (h *host) step(b ir.BlockID) {
	h.pathLen++
	if b == h.op.Block {
		h.pendingOut = append(h.pendingOut, scheduled{pos: h.pathLen, from: h.lastBlock})
	}
	h.noteOcc(b, h.pathLen)
	h.lastBlock = b
}

// batchHook, when a test sets it, sees how many elements of each batch on
// an input slot were streamed and how many were buffered.
var batchHook func(op *PlanOp, input, streamed, buffered int)

// tableHook, when a test sets it, sees every output bag that fills a keyed
// table an earlier bag of the same host left cleared, by operator variable.
// It may be called from many hosts at once.
var tableHook func(op string)

// SetTableHook installs fn as tableHook, for tests outside this package; nil
// removes it. Not safe while a job runs.
func SetTableHook(fn func(op string)) { tableHook = fn }

// OnBatch hands elements of the single-use bag the current output is
// consuming on this slot straight to the operator logic and drops those of a
// discard slot; everything else — a bag that arrives before its output
// started, the probe side during a join build, a re-readable bag — is
// buffered into its bag and pumped. A lent element is buffered as a copy
// carved from this host's slab: its producer overwrites it as soon as this
// call returns. A batch one of whose elements is buffered is retained: on an
// in-place input (dataflow.EdgeDecl.InPlace) the element's tuple lives in
// the batch's arena. This is the only place a host retains a batch.
func (h *host) OnBatch(input, from int, batch []Element) error {
	buf := &h.inbufs[input]
	live, run := -1, h.cur
	if run != nil && buf.singleUse && !run.slotDone[input] && h.slotUse(run, input) == slotStreams {
		live = run.inPos[input]
	}
	buffered := 0
	var b *inBag // the bag of the last buffered element; a batch rarely spans two
	for _, e := range batch {
		pos := int(e.Tag)
		if pos == live {
			if err := h.consume(run, input, e.Val); err != nil {
				return err
			}
			continue
		}
		if pos < buf.lowWater {
			return fmt.Errorf("core: %s input %d: element for GCed bag at %d (lowWater %d)", h.op.Instr.Var, input, pos, buf.lowWater)
		}
		if buf.discard {
			continue
		}
		if b == nil || b.pos != pos {
			b = h.bagAt(input, pos)
		}
		if buf.lent {
			e.Val = h.slab.Tuple(e.Val.Fields()...)
		}
		if buffered == 0 {
			h.ctx.RetainBatch()
		}
		b.elems.add(e.Val)
		buffered++
	}
	if batchHook != nil {
		batchHook(h.op, input, len(batch)-buffered, buffered)
	}
	if buffered == 0 {
		return nil // streamed elements change nothing progress looks at
	}
	return h.progress()
}

// Element aliases the engine element type for brevity.
type Element = dataflow.Element

// OnEOB counts end-of-bag markers per physical producer.
func (h *host) OnEOB(input, from int, tag dataflow.Tag) error {
	buf := &h.inbufs[input]
	pos := int(tag)
	if pos < buf.lowWater {
		return fmt.Errorf("core: %s input %d: EOB for GCed bag at %d", h.op.Instr.Var, input, pos)
	}
	b := h.bagAt(input, pos)
	b.eobs++
	if b.eobs > h.ctx.NumProducers(input) {
		return fmt.Errorf("core: %s input %d: too many EOBs for bag %d", h.op.Instr.Var, input, pos)
	}
	if b.complete = b.eobs == h.ctx.NumProducers(input); b.complete {
		if h.lin != nil {
			h.lin.Delivered(h.op.Inputs[input].Producer.Instr.Var, pos, h.op.Instr.Var)
		}
		h.retire(input)
	}
	return h.progress()
}

// BagProgress implements dataflow.Progresser: the path position of the bag
// currently being produced and the number of output bags finished so far.
func (h *host) BagProgress() (cur, done int64) {
	return h.curPos.Load(), h.bagsDone.Load()
}

// progress advances the host state machine: start the next scheduled output
// bag, then pump the current one.
func (h *host) progress() error {
	for {
		if h.cur == nil {
			if h.pendingHead == len(h.pendingOut) {
				h.pendingOut = h.pendingOut[:0]
				h.pendingHead = 0
				return nil
			}
			out := h.pendingOut[h.pendingHead]
			h.pendingHead++
			if err := h.startOutput(out.pos, out.from); err != nil {
				return err
			}
		}
		finished, err := h.pump()
		if err != nil {
			return err
		}
		if !finished {
			return nil
		}
		if err := h.finishOutput(); err != nil {
			return err
		}
	}
}

// noteOcc records that block b occurs at (1-based) path position pos, if b
// is an input producer's block, and forgets every queued occurrence that has
// a successor at or below the smallest limit an output not yet started can
// have: the first scheduled output's pos-1, or, when every scheduled output
// has already selected its inputs, pos itself — any later output lies after
// it, so the new occurrence supersedes all the queued ones. The bags they
// named can go as soon as they are complete.
func (h *host) noteOcc(b ir.BlockID, pos int) {
	for qi := range h.occ {
		q := &h.occ[qi]
		if q.block != b {
			continue
		}
		q.pos = append(q.pos, pos)
		limit := pos
		if h.pendingHead < len(h.pendingOut) {
			limit = h.pendingOut[h.pendingHead].pos - 1
		}
		n := 0
		for n+1 < len(q.pos) && q.pos[n+1] <= limit {
			n++
		}
		if n > 0 {
			q.pos = q.pos[:copy(q.pos, q.pos[n:])]
			for i := range h.inbufs {
				if h.inbufs[i].occ == qi {
					h.retire(i)
				}
			}
		}
		return
	}
}

// latestOcc returns the largest queued occurrence of slot i's producer
// block that is <= limit, or 0 if none, and drops the occurrences before it:
// limits only grow (see occQueue), so they can never be returned again.
func (h *host) latestOcc(i, limit int) int {
	q := &h.occ[h.inbufs[i].occ]
	n := len(q.pos)
	for n > 0 && q.pos[n-1] > limit {
		n--
	}
	if n == 0 {
		return 0
	}
	q.pos = q.pos[:copy(q.pos, q.pos[n-1:])]
	return q.pos[0]
}

// startOutput chooses the input bag identifiers for the output bag at pos:
// for ordinary inputs the longest prefix of the output's execution path
// that ends with the producer's basic block (paper Sec. 5.2.3); for phi
// inputs, the slot whose predecessor block the path arrived from, with the
// prefix bounded by pos-1 so a value produced later in the same block visit
// is never selected.
func (h *host) startOutput(pos int, from ir.BlockID) error {
	n := len(h.op.Inputs)
	run := h.freeRun
	if run == nil {
		run = &outputRun{}
	}
	h.freeRun = nil
	run.pos = pos
	run.inPos = sizedInts(run.inPos, n)
	run.cursor = sizedInts(run.cursor, n)
	run.slotDone = sizedBools(run.slotDone, n)
	if h.op.Instr.Kind == ir.OpPhi {
		if pos < 2 {
			return fmt.Errorf("core: phi %s scheduled at path position %d", h.op.Instr.Var, pos)
		}
		selected := -1
		for i, in := range h.op.Inputs {
			if in.PredBlock == from && selected == -1 {
				selected = i
				p := h.latestOcc(i, pos-1)
				if p == 0 {
					return fmt.Errorf("core: phi %s: no bag from %s on path before %d", h.op.Instr.Var, in.Producer.Instr.Var, pos)
				}
				run.inPos[i] = p
			} else {
				run.inPos[i] = -1
				run.slotDone[i] = true
			}
		}
		if selected == -1 {
			return fmt.Errorf("core: phi %s: no input for predecessor b%d", h.op.Instr.Var, from)
		}
	} else if h.op.Instr.Kind == ir.OpSolution {
		h.startSolution(run, pos)
	} else {
		for i, in := range h.op.Inputs {
			p := h.latestOcc(i, pos)
			if p == 0 {
				return fmt.Errorf("core: %s input %d: producer block b%d never occurred before %d",
					h.op.Instr.Var, i, in.Producer.Block, pos)
			}
			run.inPos[i] = p
		}
	}
	if h.trc != nil {
		run.traceStart = h.trc.Clock()
	}
	h.curPos.Store(int64(pos))
	if h.lin != nil {
		// Record provenance: the input bag IDs this output bag reads. The
		// selection is deterministic across instances (same path, same
		// longest-prefix rule), so the first instance to open wins.
		ins := make([]lineage.BagID, 0, len(h.op.Inputs))
		for i, in := range h.op.Inputs {
			if run.inPos[i] > 0 {
				ins = append(ins, lineage.BagID{Op: in.Producer.Instr.Var, Pos: run.inPos[i]})
			}
		}
		h.lin.BagOpen(h.op.Instr.Var, pos, int(h.op.Block), ins)
	}
	h.cur = run
	return h.beginKind(run)
}

// bagFor returns the input bag the current run reads on slot i, creating
// the (possibly still empty) buffer entry.
func (h *host) bagFor(run *outputRun, i int) *inBag {
	return h.bagAt(i, run.inPos[i])
}

// bagAt returns slot i's buffered bag at pos, inserting an empty one in
// position order. Bags arrive nearly in order and retire from the front, so
// the scan from the back is a step or two.
func (h *host) bagAt(i, pos int) *inBag {
	buf := &h.inbufs[i]
	n := len(buf.bags)
	for n > 0 && buf.bags[n-1].pos > pos {
		n--
	}
	if n > 0 && buf.bags[n-1].pos == pos {
		return buf.bags[n-1]
	}
	b := h.takeBag()
	b.pos = pos
	buf.bags = append(buf.bags, nil)
	copy(buf.bags[n+1:], buf.bags[n:])
	buf.bags[n] = b
	h.held++
	h.rt.noteBuffered(int64(h.held))
	return b
}

// retire recycles the leading bags of slot i that no output bag can select
// any more (paper Sec. 5.2.4): those below the low-water mark, and those that
// are complete and below the slot's frontier — the smaller of the running
// output's selected bag and the head of the producer block's occurrence
// queue. A bag behind the frontier whose end-of-bags are still out is kept
// until they are in, and lowWater follows only retired bags; every producer
// sends its bags in position order, so once a bag is complete nothing at or
// below its position can arrive, and an element for a position below
// lowWater is still the protocol error it always was.
func (h *host) retire(i int) {
	buf := &h.inbufs[i]
	frontier := 0
	if q := h.occ[buf.occ].pos; len(q) > 0 {
		frontier = q[0]
		if h.cur != nil && h.cur.inPos[i] > 0 {
			frontier = min(frontier, h.cur.inPos[i])
		}
	}
	n := 0
	for ; n < len(buf.bags); n++ {
		b := buf.bags[n]
		if b.pos >= buf.lowWater {
			if b.pos >= frontier || !b.complete {
				break
			}
			buf.lowWater = b.pos + 1
		}
		h.recycleBag(b)
	}
	buf.bags = buf.bags[:copy(buf.bags, buf.bags[n:])]
	h.held -= n
}

// takeBag returns a recycled input-bag buffer (see recycleBag) or a fresh
// one.
func (h *host) takeBag() *inBag {
	if n := len(h.freeBags); n > 0 {
		b := h.freeBags[n-1]
		h.freeBags = h.freeBags[:n-1]
		return b
	}
	return &inBag{}
}

// recycleBag resets a retired bag buffer and keeps it for reuse.
// Safe because a retired position can never be selected again (input
// positions are monotone across outputs) and no element slice leaves a
// pump: writeFile stores a copy.
func (h *host) recycleBag(b *inBag) {
	b.elems.reset()
	b.eobs = 0
	b.complete = false
	h.freeBags = append(h.freeBags, b)
}

// finishOutput emits the end-of-bag, reports completion to the
// control-flow manager, sends the branch decision if this operator is a
// condition node, and retires the input bags behind the ones this output
// selected (input positions are monotone across outputs).
func (h *host) finishOutput() error {
	run := h.cur
	h.cur = nil
	h.ctx.EmitEOB(dataflow.Tag(run.pos))
	h.foldStageCounts()
	h.bagsOut.Inc()
	h.bagsDone.Add(1)
	if h.lin != nil {
		h.lin.BagClose(h.op.Instr.Var, run.pos, run.nEmitted)
	}
	if h.trc != nil {
		// One span per output bag: the bag identifier is (operator,
		// path position), exactly the paper's Sec. 5 naming scheme.
		h.trc.Span("bag", h.op.Instr.Var, h.machine, h.lane, run.traceStart,
			map[string]any{"pos": run.pos, "elements": run.nEmitted})
	}
	if h.op.IsCondition {
		if run.nEmitted != 1 {
			return fmt.Errorf("core: condition %s produced %d elements, want 1", h.op.Instr.Var, run.nEmitted)
		}
		if run.emitted.Kind() != val.KindBool {
			return fmt.Errorf("core: condition %s is %s, want bool", h.op.Instr.Var, run.emitted.Kind())
		}
		h.decisions.Inc()
		if h.trc != nil {
			h.trc.Instant("cfm", "decision", h.machine, h.lane,
				map[string]any{"pos": run.pos, "branch": run.emitted.AsBool()})
		}
		h.rt.emit(CoordEvent{Kind: EvDecision, Pos: run.pos, Block: h.op.Block, Branch: run.emitted.AsBool()})
	}
	h.rt.emit(CoordEvent{Kind: EvCompletion, Pos: run.pos, Block: h.op.Block})
	for i := range h.op.Inputs {
		buf := &h.inbufs[i]
		buf.lowWater = max(buf.lowWater, run.inPos[i])
		h.retire(i)
	}
	h.releaseRun(run)
	return nil
}

// releaseRun recycles a finished run's slice capacity and keyed tables for
// the next output bag on this host. The tables are cleared, so no key or
// value leaks between bags, and everything else is zeroed. A join build
// table that h.cachedBuild holds for hoisting is the cache's, not the run's:
// beginKind clears it once a new build bag supersedes it. The deltaMerge
// seed table serves the first step only and is dropped.
func (h *host) releaseRun(run *outputRun) {
	clear(run.args)
	if run.hash != nil {
		run.hash.Clear()
	}
	if run.distinct != nil {
		run.distinct.Clear()
	}
	build := run.build
	if build == h.cachedBuild {
		build = nil
	} else if build != nil {
		build.Clear()
	}
	*run = outputRun{
		inPos:    run.inPos[:0],
		cursor:   run.cursor[:0],
		slotDone: run.slotDone[:0],
		args:     run.args[:0],
		hash:     run.hash,
		distinct: run.distinct,
		build:    build,
	}
	h.freeRun = run
}

// keptRuns holds a plan's released output runs across jobs, one slot per
// operator instance: a host starts from its slot's run (newHost) and puts
// its own back when it closes (keepRun), so the next job of the plan refills
// the keyed tables this one grew instead of growing its own. Of two jobs of
// the plan running at once, the later to take a slot finds it empty and
// starts afresh, and the later to close keeps its run.
type keptRuns struct {
	mu   sync.Mutex
	runs [][]*outputRun // [op ID][instance]
}

// newKeptRuns returns an empty slot for every operator instance of p.
func newKeptRuns(p *Plan) *keptRuns {
	k := &keptRuns{runs: make([][]*outputRun, len(p.Ops))}
	for _, op := range p.Ops {
		k.runs[op.ID] = make([]*outputRun, op.Par)
	}
	return k
}

// take empties instance inst of op's slot and returns what it held; a nil
// k holds nothing.
func (k *keptRuns) take(op *PlanOp, inst int) *outputRun {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	r := k.runs[op.ID][inst]
	k.runs[op.ID][inst] = nil
	return r
}

// put fills instance inst of op's slot with r.
func (k *keptRuns) put(op *PlanOp, inst int, r *outputRun) {
	k.mu.Lock()
	k.runs[op.ID][inst] = r
	k.mu.Unlock()
}

// keepRun puts the host's released run, if any, in its slot of the plan's
// kept runs. A hoisted join build holds this job's data, read from this
// job's store, so it never crosses jobs: it goes along only cleared, as the
// run's build table when the run has none.
func (h *host) keepRun() {
	run := h.freeRun
	if h.rt.plan == nil || h.rt.plan.runs == nil || run == nil {
		return
	}
	if h.cachedBuild != nil && run.build == nil {
		h.cachedBuild.Clear()
		run.build = h.cachedBuild
	}
	h.cachedBuild, h.freeRun = nil, nil
	h.rt.plan.runs.put(h.op, h.inst, run)
}

// sizedInts returns s resized to n, zero-filled, reusing capacity.
func sizedInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// sizedBools returns s resized to n, zero-filled, reusing capacity.
func sizedBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// sizedVals returns s resized to n, zero-filled, reusing capacity.
func sizedVals(s []val.Value, n int) []val.Value {
	if cap(s) < n {
		return make([]val.Value, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = val.Value{}
	}
	return s
}

// call applies the operator's UDF in the host's frame: a literal F.Call(x)
// heap-allocates its variadic slice and a frame for every element, and gives
// a tuple-building body nowhere to carve from.
func (h *host) call(x val.Value) (val.Value, error) {
	h.args[0] = x
	return h.apply(h.args[:1])
}

// call2 is call for the two-argument (fold) UDFs.
func (h *host) call2(a, b val.Value) (val.Value, error) {
	h.args[0], h.args[1] = a, b
	return h.apply(h.args[:2])
}

func (h *host) apply(args []val.Value) (val.Value, error) {
	h.frame.Args = args
	return h.op.Instr.F.Apply(&h.frame)
}

// emit sends v, one element of the current output bag, through the
// operator's fused stages and downstream.
func (h *host) emit(run *outputRun, v val.Value) error {
	if len(h.op.Stages) == 0 {
		h.send(run, v)
		return nil
	}
	return h.runStages(run, v, nil)
}

// emitTuple emits the tuple of fields: a join's, cross's or group output's
// element. When the first stage runs on scratch the tuple is built in the
// host's scratch tuple; when the operator has no stages and lends — a group
// output — in its lent tuple; otherwise it is carved from the slab.
func (h *host) emitTuple(run *outputRun, fields ...val.Value) error {
	switch {
	case len(h.op.Stages) == 0 && h.op.Lends:
		h.send(run, val.Tuple(h.lent[:copy(h.lent[:], fields)]...))
		if scratchHook != nil {
			scratchHook(h.lent[:len(fields)], true)
		}
		return nil
	case len(h.op.Stages) == 0 || !h.op.Stages[0].Scratch:
		return h.emit(run, h.slab.Tuple(fields...))
	}
	return h.runStages(run, val.Value{}, fields)
}

// scratchHook, when a test sets it, sees the scratch tuple after every
// stage evaluation that leaves the element off it, and the lent tuple after
// every element that leaves it (lent), and may overwrite either.
var scratchHook func(tuple []val.Value, lent bool)

// runStages is the stage-evaluation function: it runs the operator's fused
// stages on one element, in order, and sends what the last one passes on.
// Given fields, the element is that tuple, filled into the scratch tuple
// for the leading stages marked Scratch — they only project it, so none can
// keep it — and copied into the slab only at the first stage that could,
// or on its way out: an element a scratch filter drops is never carved.
// When the operator lends, the last stage, a map, builds its tuple in the
// lent tuple, which is free again once send returns.
func (h *host) runStages(run *outputRun, v val.Value, fields []val.Value) error {
	onScratch := fields != nil
	if onScratch {
		v = val.Tuple(h.scratch[:copy(h.scratch[:], fields)]...)
	}
	last := len(h.op.Stages) - 1
	for i, st := range h.op.Stages {
		if onScratch && !st.Scratch {
			v, onScratch = h.slab.Tuple(v.Fields()...), false
		}
		if h.stageIO != nil {
			h.stageIO[i].nIn++
		}
		h.args[0] = v
		h.frame.Args = h.args[:1]
		if i == last && h.op.Lends {
			h.frame.Out = h.lent[:]
		}
		y, err := st.Instr.F.Apply(&h.frame)
		h.frame.Out = nil
		if err != nil {
			return fmt.Errorf("core: %s: %w", st.Instr.Var, err)
		}
		keep := true
		if st.Instr.Kind == ir.OpMap {
			v, onScratch = y, false
		} else if y.Kind() != val.KindBool {
			return fmt.Errorf("core: %s: filter predicate returned %s, want bool", st.Instr.Var, y.Kind())
		} else {
			keep = y.AsBool()
		}
		if !onScratch && scratchHook != nil {
			scratchHook(h.scratch[:], false)
		}
		if !keep {
			h.headDrop++
			return nil
		}
		if h.stageIO != nil {
			h.stageIO[i].nOut++
		}
	}
	if onScratch {
		v = h.slab.Tuple(v.Fields()...)
		if scratchHook != nil {
			scratchHook(h.scratch[:], false)
		}
	}
	h.send(run, v)
	if h.op.Lends && scratchHook != nil {
		scratchHook(h.lent[:], true)
	}
	return nil
}

// send hands one element of the current output bag to the consumers, lent
// when the operator lends: v is then the host's lent tuple, which the next
// element overwrites.
func (h *host) send(run *outputRun, v val.Value) {
	run.emitted = v
	run.nEmitted++
	e := dataflow.Element{Tag: dataflow.Tag(run.pos), Val: v}
	if h.op.Lends {
		h.ctx.EmitLent(e, &h.slab)
		return
	}
	h.ctx.Emit(e)
}
