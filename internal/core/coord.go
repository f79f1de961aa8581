package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/obs/lineage"
)

// The control-flow manager (paper Sec. 5.2.1): condition operators report
// their branch decisions; the coordinator extends the global execution path
// and broadcasts every extension to all operator instances (the paper's
// per-machine managers connected by TCP; here the broadcast goes through a
// ControlPlane — the simulated cluster pays its control-message latency,
// the real TCP backend pays actual sockets).
//
// With loop pipelining enabled, extensions are broadcast the moment they
// are determined, letting later iteration steps start while earlier ones
// are still processing. With pipelining disabled, the coordinator holds
// position p+1 back until every operator instance of position p has
// reported completion, and pays a superstep barrier — Flink-style
// lockstep execution, used as the ablation baseline in Fig. 9.

// CoordEventKind discriminates control-plane events operator hosts report
// to the control-flow manager.
type CoordEventKind uint8

const (
	// EvDecision carries a condition operator's branch outcome.
	EvDecision CoordEventKind = iota
	// EvCompletion reports that one instance finished one output bag.
	EvCompletion
)

// CoordEvent is one event on the hosts -> coordinator control channel. On
// the TCP backend these cross the worker's coordinator connection as wire
// messages; on the simulated cluster they are direct calls into OnEvent.
// Block is the emitting host's block, by which a TCP worker folds
// completions and speculates; the wire does not carry it. Count lets a worker
// aggregate several local completions of the same position into one event
// (0 and 1 both mean a single completion).
type CoordEvent struct {
	Kind   CoordEventKind
	Branch bool
	Pos    int
	Block  ir.BlockID
	Count  int
}

// ControlPlane is how the control-flow manager reaches the running job —
// the one seam between the coordinator and whatever carries its frames.
// The simulated cluster's implementation (simControlPlane) charges modeled
// control latency and calls Job.Broadcast directly; the TCP backend's
// writes wire messages to every worker; tests substitute a recorder.
type ControlPlane interface {
	// Broadcast delivers one path extension to every operator instance, in
	// mailbox order relative to data.
	Broadcast(seg PathSegment)
	// Barrier blocks until all in-flight work has drained — the superstep
	// barrier paid between steps when pipelining is off.
	Barrier()
	// Stop ends the job; nil means clean completion.
	Stop(err error)
}

// Coordinator is the control-flow manager of one execution. Both backends
// drive it the same way: Seed once the job can accept broadcasts, then
// OnEvent for every decision and completion — by direct call from the
// deciding host's goroutine on the simulated cluster (which keeps the path
// extension and the next broadcast off a goroutine wake-up on the per-step
// critical path), from the goroutine draining the workers' event frames on
// the TCP backend. The mutex makes either safe; on the simulated cluster
// nothing called under it blocks (Barrier only charges modeled latency and
// Job.Stop is an idempotent mailbox close).
type Coordinator struct {
	mu         sync.Mutex
	plan       *Plan
	pipelining bool
	cp         ControlPlane
	// stopped is set once Stop has been called — clean completion or a
	// protocol error. From then on the coordinator is inert.
	stopped bool

	// path, pending and decidedBy are windows over the determined path:
	// index i holds position base+i+1, and base, released and doneUpTo are
	// absolute. A position is pinned until it is both released (release reads
	// its block) and complete (pending counts its outstanding completions);
	// the last position is pinned by the decision that will extend it
	// (onDecision reads its block). Everything before that is retired, so the
	// coordinator's memory does not grow with the number of steps.
	base      int
	path      []ir.BlockID // determined positions after base
	pathFinal bool         // exit block appended
	released  int          // positions broadcast so far

	pending  []int // completions still outstanding per position (parallel to path)
	doneUpTo int   // all positions <= doneUpTo are complete

	// seen marks the blocks whose template is installed: the first extension
	// a block heads installs it, every later one instantiates it. nil when
	// templates are off.
	seen           []bool
	installs       int
	instantiations int

	// Observability handles; nil (no-op) unless the run has an observer.
	// bcast has one counter per machine: the per-machine control-flow
	// managers each receive every path extension, so an N-frame run
	// records exactly N broadcasts on every machine.
	trc       *obs.Tracer
	driverPID int
	bcast     []*obs.Counter
	pathLen   *obs.Gauge

	// Lineage recording (nil when off): per-position decider bags for the
	// critical-path analyzer. condVar maps a branch block to its condition
	// operator; curDecider is the condition bag whose decision produced the
	// positions currently being appended (zero on the entry jump chain).
	lin        *lineage.Tracker
	condVar    map[ir.BlockID]string
	curDecider lineage.BagID
	decidedBy  []lineage.BagID // parallel to path
}

// NewCoordinator builds the control-flow manager for one execution of plan
// over the given number of machines. Call Seed once the job can accept
// broadcasts; deliver events with OnEvent.
func NewCoordinator(plan *Plan, opts Options, machines int, cp ControlPlane) *Coordinator {
	c := &Coordinator{plan: plan, pipelining: opts.Pipelining, cp: cp}
	if opts.Templated() {
		c.seen = make([]bool, len(plan.IR.Blocks))
	}
	if opts.Obs != nil {
		reg := opts.Obs.Reg()
		c.trc = opts.Obs.Trc()
		c.driverPID = machines // the driver timeline sits after the machines
		c.bcast = make([]*obs.Counter, machines)
		for m := range c.bcast {
			c.bcast[m] = reg.Counter(m, "cfm", "broadcasts")
		}
		c.pathLen = reg.Gauge(obs.MachineDriver, "cfm", "path_len")
		if c.lin = opts.Obs.Lin(); c.lin != nil {
			c.condVar = make(map[ir.BlockID]string)
			for _, op := range plan.Ops {
				if op.IsCondition {
					c.condVar[op.Block] = op.Instr.Var
				}
			}
		}
	}
	return c
}

// Seed extends the path with the entry jump chain and stops the job
// outright if the program has no conditional work at all.
func (c *Coordinator) Seed() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.extend(c.plan.IR.Entry())
	c.stopIfDone(nil)
}

// OnEvent applies one decision or completion event. It calls cp.Stop when
// the path is final and fully completed, or on a protocol error; either
// way the coordinator then goes inert, so events that trail a failure are
// absorbed and their senders never block.
func (c *Coordinator) OnEvent(ev CoordEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	var err error
	switch ev.Kind {
	case EvDecision:
		err = c.onDecision(ev.Pos, ev.Branch)
	case EvCompletion:
		err = c.onCompletion(ev.Pos, ev.Count)
	}
	c.stopIfDone(err)
}

func (c *Coordinator) stopIfDone(err error) {
	if err != nil || (c.pathFinal && c.doneUpTo == c.determined()) {
		c.stopped = true
		c.cp.Stop(err)
	}
}

// Result reports the control plane's share of the execution's Result: the
// path length, the template cache counters, and the chained-edge count of
// the plan it drove. Call after the job has finished (no host can emit
// further events); Merge the hosts' share into it.
func (c *Coordinator) Result() *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Result{
		Steps:                  c.determined(),
		ChainedEdges:           c.plan.ChainedEdges(),
		TemplateInstalls:       c.installs,
		TemplateInstantiations: c.instantiations,
	}
}

// extend grows the path by the jump-chain segment starting at block b —
// b and every position after it that needs no further runtime decision —
// and releases what the mode permits. The path grows by the whole segment
// in every mode; only the frames release cuts differ. With templates on,
// every visit of b but the first instantiates the template the first
// installed.
func (c *Coordinator) extend(b ir.BlockID) {
	blocks := c.plan.Segment(b, true)
	switch {
	case c.seen == nil:
	case c.seen[b]:
		c.instantiations++
	default:
		c.seen[b] = true
		c.installs++
	}
	for _, blk := range blocks {
		c.path = append(c.path, blk)
		c.pending = append(c.pending, c.plan.InstancesPerBlock[blk])
		if c.lin != nil {
			c.decidedBy = append(c.decidedBy, c.curDecider)
		}
	}
	c.pathFinal = c.plan.IR.Blocks[blocks[len(blocks)-1]].Term.Kind == ir.TermExit
	c.pathLen.Set(int64(c.determined()))
	c.advanceDone()
	c.release()
}

// determined is the number of path positions determined so far.
func (c *Coordinator) determined() int { return c.base + len(c.path) }

func (c *Coordinator) onDecision(pos int, branch bool) error {
	if pos != c.determined() {
		return fmt.Errorf("core: decision for position %d, path has %d determined positions", pos, c.determined())
	}
	blk := c.plan.IR.Blocks[c.path[pos-1-c.base]]
	if blk.Term.Kind != ir.TermBranch {
		return fmt.Errorf("core: decision for non-branch block b%d", blk.ID)
	}
	if c.lin != nil {
		c.curDecider = lineage.BagID{Op: c.condVar[blk.ID], Pos: pos}
	}
	if branch {
		c.extend(blk.Term.Succs[0])
	} else {
		c.extend(blk.Term.Succs[1])
	}
	return nil
}

func (c *Coordinator) onCompletion(pos, count int) error {
	if pos < 1 || pos > c.determined() {
		return fmt.Errorf("core: completion for unknown position %d", pos)
	}
	if pos <= c.base {
		return fmt.Errorf("core: completion for position %d, which every instance had already completed", pos)
	}
	if count < 1 {
		count = 1
	}
	i := pos - 1 - c.base
	c.pending[i] -= count
	if c.pending[i] < 0 {
		want := c.plan.InstancesPerBlock[c.path[i]]
		return fmt.Errorf("core: position %d completed %d times, expected %d", pos, want-c.pending[i], want)
	}
	c.advanceDone()
	c.release()
	c.retire()
	return nil
}

// advanceDone moves the fully-completed prefix marker.
func (c *Coordinator) advanceDone() {
	for c.doneUpTo < c.determined() && c.pending[c.doneUpTo-c.base] == 0 {
		c.doneUpTo++
	}
}

// windowSlack is how many retirable positions the coordinator lets
// accumulate before it moves its windows: the move costs a copy of what is
// kept, so it is taken once per windowSlack positions.
const windowSlack = 1024

// retire drops the positions nothing pins any more (see Coordinator.base),
// moving what is kept down in place. No frame aliases the windows — a frame
// names its head block, and receivers resolve the rest from the plan — so
// they are the coordinator's own.
func (c *Coordinator) retire() {
	n := min(c.doneUpTo, c.released, c.determined()-1) - c.base
	kept := len(c.path) - n
	if n < windowSlack || n < kept {
		return
	}
	c.path = c.path[:copy(c.path, c.path[n:])]
	c.pending = c.pending[:copy(c.pending, c.pending[n:])]
	if c.lin != nil {
		c.decidedBy = c.decidedBy[:copy(c.decidedBy, c.decidedBy[n:])]
	}
	c.base += n
}

// release broadcasts the determined-but-unreleased positions the mode
// permits, one frame at a time; the modes are policies over this one loop.
// A frame is everything determined when segments are templates (pipelined
// by construction, so that is exactly the segment just instantiated), and
// a single block otherwise — the per-position update is the one-block
// segment. With pipelining off, position p+1 is held back until positions
// <= p are complete, and pays a superstep barrier. A frame is the position
// of its first block and that block; the control plane's receivers resolve
// the rest from the plan (Plan.Segment).
func (c *Coordinator) release() {
	for c.released < c.determined() {
		end := c.determined()
		if c.seen == nil {
			end = c.released + 1
		}
		var barrier time.Duration
		if !c.pipelining && c.released > 0 {
			if c.doneUpTo < c.released {
				return
			}
			t0 := time.Now()
			c.cp.Barrier()
			barrier = time.Since(t0)
		}
		blocks := c.path[c.released-c.base : end-c.base]
		seg := PathSegment{Pos: c.released + 1, Head: blocks[0]}
		c.cp.Broadcast(seg)
		for _, n := range c.bcast {
			n.Inc()
		}
		if c.trc != nil {
			c.trc.Instant("cfm", "broadcast", c.driverPID, 0,
				map[string]any{"pos": seg.Pos, "blocks": len(blocks), "final": c.pathFinal && end == c.determined()})
		}
		if c.lin != nil {
			for i, b := range blocks {
				pos := seg.Pos + i
				c.lin.Broadcast(pos, int(b), c.pathFinal && pos == c.determined(), c.decidedBy[pos-1-c.base], barrier)
			}
		}
		c.released = end
	}
}
