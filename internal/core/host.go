package core

import (
	"fmt"
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

	// Execution path as known to this instance.
	path []ir.BlockID
	// occ[b] lists the (1-based) positions at which block b occurs,
	// indexed by the dense BlockID (hot on every control ingest and every
	// input-bag selection, so a slice, not a map).
	occ [][]int
	// freeBags recycles input-bag buffers retired by the low-water GC, so
	// a long loop's steady-state bag churn allocates nothing.
	freeBags []*inBag

	nextScan    int   // path index not yet scanned for own-block occurrences
	pendingOut  []int // positions of output bags still to produce, in order
	pendingHead int   // consumed prefix of pendingOut (head index, not re-slice, so append reuses capacity)
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

	// Loop-invariant hoisting: position of the input bag the cached join
	// build state was built from (-1 when none), and the cached hash table.
	cachedBuildPos int
	cachedBuild    *val.Map[[]val.Value]

	// Delta iteration state: the solution-set partition this instance
	// writes (deltaMerge) or reads (solution), and the reader slot used
	// for undo-journal GC.
	state      *solutionStore
	readerSlot int
	// seedStale is set once a deltaMerge's state is seeded: steps from then
	// on skip the seed slot without draining it, so its producer's bags can
	// arrive after the low-water GC has already passed them — expected
	// garbage on this one slot, a protocol violation anywhere else.
	seedStale bool

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

	// Live progress for Job.Introspect, maintained unconditionally (one
	// atomic store per bag, not per element) and read concurrently by the
	// introspection server.
	curPos   atomic.Int64
	bagsDone atomic.Int64
}

type inputBuf struct {
	bags     map[int]*inBag
	lowWater int // bags below this position are garbage
	// singleUse marks a slot whose bags are each read by one output bag only
	// (Plan.singleUse): their elements stream through and are never kept
	// once consumed. The zero value, re-readable, buffers every bag until
	// the low-water GC.
	singleUse bool
}

type inBag struct {
	elems    []val.Value
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
		h.occ = make([][]int, len(rt.plan.IR.Blocks))
	}
	for i := range h.inbufs {
		h.inbufs[i].bags = make(map[int]*inBag)
		h.inbufs[i].singleUse = rt.plan != nil && rt.plan.singleUse(op, i)
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
func (h *host) Close() error { return nil }

// WantsControlWake implements dataflow.ControlWaker: a path extension can
// only make this host runnable if its own block is among the new
// positions — that is when a new output bag becomes startable (possibly
// from already-buffered inputs). Extensions over other blocks are ingested
// lazily at the next wake; bag selection is unaffected because it only
// ever consults path positions at or before the bag being produced.
func (h *host) WantsControlWake(ev any) bool {
	seg, ok := ev.(PathSegment)
	if !ok {
		return true
	}
	for _, b := range seg.Blocks {
		if b == h.op.Block {
			return true
		}
	}
	return false
}

// OnControl ingests execution-path extensions.
func (h *host) OnControl(ev any) error {
	seg, ok := ev.(PathSegment)
	if !ok {
		return nil
	}
	if seg.Pos != len(h.path)+1 {
		return fmt.Errorf("core: path segment at %d out of order (have %d)", seg.Pos, len(h.path))
	}
	for i, b := range seg.Blocks {
		h.path = append(h.path, b)
		h.noteOcc(b, seg.Pos+i)
	}
	return h.progress()
}

// batchHook, when a test sets it, sees how many elements of each batch on
// an input slot were streamed and how many were buffered.
var batchHook func(op *PlanOp, input, streamed, buffered int)

// OnBatch hands elements of the single-use bag the current output is
// consuming on this slot straight to the operator logic; everything else —
// a bag that arrives before its output started, the probe side during a
// join build, a re-readable bag — is buffered into its bag and pumped.
func (h *host) OnBatch(input, from int, batch []Element) error {
	buf := &h.inbufs[input]
	live, run := -1, h.cur
	if run != nil && buf.singleUse && !run.slotDone[input] && h.slotUse(run, input) == slotStreams {
		live = run.inPos[input]
	}
	buffered := 0
	for _, e := range batch {
		pos := int(e.Tag)
		if pos == live {
			if err := h.consume(run, input, e.Val); err != nil {
				return err
			}
			continue
		}
		if pos < buf.lowWater {
			if h.seedStale && input == 0 {
				continue
			}
			return fmt.Errorf("core: %s input %d: element for GCed bag at %d (lowWater %d)", h.op.Instr.Var, input, pos, buf.lowWater)
		}
		b := buf.bags[pos]
		if b == nil {
			b = h.takeBag()
			buf.bags[pos] = b
		}
		b.elems = append(b.elems, e.Val)
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
		if h.seedStale && input == 0 {
			return h.progress()
		}
		return fmt.Errorf("core: %s input %d: EOB for GCed bag at %d", h.op.Instr.Var, input, pos)
	}
	b := buf.bags[pos]
	if b == nil {
		b = h.takeBag()
		buf.bags[pos] = b
	}
	b.eobs++
	if b.eobs > h.ctx.NumProducers(input) {
		return fmt.Errorf("core: %s input %d: too many EOBs for bag %d", h.op.Instr.Var, input, pos)
	}
	b.complete = b.eobs == h.ctx.NumProducers(input)
	if b.complete && h.lin != nil {
		h.lin.Delivered(h.op.Inputs[input].Producer.Instr.Var, pos, h.op.Instr.Var)
	}
	return h.progress()
}

// BagProgress implements dataflow.Progresser: the path position of the bag
// currently being produced and the number of output bags finished so far.
func (h *host) BagProgress() (cur, done int64) {
	return h.curPos.Load(), h.bagsDone.Load()
}

// progress advances the host state machine: schedule newly visible output
// bags, then pump the current one.
func (h *host) progress() error {
	for h.nextScan < len(h.path) {
		if h.path[h.nextScan] == h.op.Block {
			h.pendingOut = append(h.pendingOut, h.nextScan+1)
		}
		h.nextScan++
	}
	for {
		if h.cur == nil {
			if h.pendingHead == len(h.pendingOut) {
				h.pendingOut = h.pendingOut[:0]
				h.pendingHead = 0
				return nil
			}
			pos := h.pendingOut[h.pendingHead]
			h.pendingHead++
			if err := h.startOutput(pos); err != nil {
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

// noteOcc records that block b occurs at (1-based) path position pos. The
// occurrence table is presized from the plan; the grow loop only runs for
// hand-fed hosts in tests.
func (h *host) noteOcc(b ir.BlockID, pos int) {
	for int(b) >= len(h.occ) {
		h.occ = append(h.occ, nil)
	}
	h.occ[b] = append(h.occ[b], pos)
}

// latestOcc returns the largest occurrence position of block b that is
// <= limit, or 0 if none.
func (h *host) latestOcc(b ir.BlockID, limit int) int {
	if int(b) >= len(h.occ) {
		return 0
	}
	occ := h.occ[b]
	best := 0
	for i := len(occ) - 1; i >= 0; i-- {
		if occ[i] <= limit {
			best = occ[i]
			break
		}
	}
	return best
}

// startOutput chooses the input bag identifiers for the output bag at pos:
// for ordinary inputs the longest prefix of the output's execution path
// that ends with the producer's basic block (paper Sec. 5.2.3); for phi
// inputs, the slot whose predecessor block the path arrived from, with the
// prefix bounded by pos-1 so a value produced later in the same block visit
// is never selected.
func (h *host) startOutput(pos int) error {
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
		pred := h.path[pos-2]
		selected := -1
		for i, in := range h.op.Inputs {
			if in.PredBlock == pred && selected == -1 {
				selected = i
				p := h.latestOcc(in.Producer.Block, pos-1)
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
			return fmt.Errorf("core: phi %s: no input for predecessor b%d", h.op.Instr.Var, pred)
		}
	} else if h.op.Instr.Kind == ir.OpSolution {
		h.startSolution(run, pos)
	} else {
		for i, in := range h.op.Inputs {
			p := h.latestOcc(in.Producer.Block, pos)
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
	buf := &h.inbufs[i]
	b := buf.bags[run.inPos[i]]
	if b == nil {
		b = h.takeBag()
		buf.bags[run.inPos[i]] = b
	}
	return b
}

// bagKeepCap bounds the element capacity an input-bag buffer may retain;
// larger backing arrays (transient wide bags) go back to the collector.
const bagKeepCap = 1024

// dropElems empties the bag's buffer. Values are cleared so the retained
// capacity does not pin them.
func (b *inBag) dropElems() {
	if cap(b.elems) > bagKeepCap {
		b.elems = nil
		return
	}
	clear(b.elems)
	b.elems = b.elems[:0]
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

// recycleBag resets a low-water-retired bag buffer and keeps it for reuse.
// Safe because a retired position can never be selected again (input
// positions are monotone across outputs) and an element slice only leaves
// a pump by being detached from its bag (writeFile).
func (h *host) recycleBag(b *inBag) {
	b.dropElems()
	b.eobs = 0
	b.complete = false
	h.freeBags = append(h.freeBags, b)
}

// finishOutput emits the end-of-bag, reports completion to the
// control-flow manager, sends the branch decision if this operator is a
// condition node, and garbage-collects input bags that can no longer be
// selected (input positions are monotone across outputs).
func (h *host) finishOutput() error {
	run := h.cur
	h.cur = nil
	h.ctx.EmitEOB(dataflow.Tag(run.pos))
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
		h.rt.emit(CoordEvent{Kind: EvDecision, Pos: run.pos, Branch: run.emitted.AsBool()})
	}
	h.rt.emit(CoordEvent{Kind: EvCompletion, Pos: run.pos})
	total := 0
	for i := range h.op.Inputs {
		buf := &h.inbufs[i]
		if run.inPos[i] > buf.lowWater {
			buf.lowWater = run.inPos[i]
			for p, b := range buf.bags {
				if p < buf.lowWater {
					h.recycleBag(b)
					delete(buf.bags, p)
				}
			}
		}
		total += len(buf.bags)
	}
	h.rt.noteBuffered(int64(total))
	h.releaseRun(run)
	return nil
}

// releaseRun recycles a finished run's slice capacity for the next output
// bag on this host. Everything else is zeroed: values and tables must not
// leak between bags (h.cachedBuild keeps its own reference to a reused
// join build table, so nilling run.build here is safe).
func (h *host) releaseRun(run *outputRun) {
	for i := range run.args {
		run.args[i] = val.Value{}
	}
	*run = outputRun{
		inPos:    run.inPos[:0],
		cursor:   run.cursor[:0],
		slotDone: run.slotDone[:0],
		args:     run.args[:0],
	}
	h.freeRun = run
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

// emit sends one element of the current output bag downstream.
func (h *host) emit(run *outputRun, v val.Value) {
	run.emitted = v
	run.nEmitted++
	h.ctx.Emit(dataflow.Element{Tag: dataflow.Tag(run.pos), Val: v})
}
