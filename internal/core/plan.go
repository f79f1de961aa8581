// Package core implements Mitos proper: the translation of an SSA program
// into a single (cyclic) dataflow job (paper Sec. 4.3), and the distributed
// control-flow coordination based on bag identifiers (paper Sec. 5) — the
// control flow manager, the bag operator host, loop pipelining, and
// loop-invariant hoisting.
package core

import (
	"fmt"

	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
)

// Plan is the physical plan of one Mitos job: one dataflow operator per SSA
// instruction, one edge per variable reference, with parallelism and
// partitioning decided per the operator's semantics.
type Plan struct {
	IR  *ir.Graph
	Ops []*PlanOp
	// ByVar maps an SSA variable to the operator defining it.
	ByVar map[string]*PlanOp
	// InstancesPerBlock, indexed by block, is the number of physical operator
	// instances that must complete each visit of a block — the control-flow
	// coordinator's per-position completion target.
	InstancesPerBlock []int
	// Chains lists the operator-chaining groups (BuildChains), each in
	// ascending (topological) ID order. Empty until BuildChains runs.
	Chains [][]*PlanOp

	// segments, indexed by block, is the jump-chain segment each block heads
	// (Segment), resolved by BuildPlan and read-only from then on.
	segments [][]ir.BlockID
	// free is the batch and arena free lists of the PlanMemo that planned
	// it, which every job of the plan draws from and recycles into; nil for
	// a plan no memo keeps, whose jobs each have lists of their own.
	free *dataflow.FreeLists
	// runs keeps, per operator instance, the output run the host of its last
	// job released, keyed tables cleared, for the next job's host of the
	// instance (host.keepRun); nil when free is.
	runs *keptRuns
}

// PlanOp is one planned operator.
type PlanOp struct {
	ID    int // index in Plan.Ops and dataflow.OpID
	Instr *ir.Instr
	Block ir.BlockID
	Par   int
	// IsCondition marks the operator whose singleton bool output drives its
	// block's branch terminator.
	IsCondition bool
	// Synth marks synthetic operators inserted by plan rewrites (map-side
	// combiners); SynthNone for operators that mirror an SSA instruction.
	Synth  SynthKind
	Inputs []PlanInput
	// Chain is the 1-based index into Plan.Chains of the operator's chain
	// group, 0 when unchained (or before BuildChains runs).
	Chain int
	// Stages are the map and filter operators BuildChains fused into this
	// one, in order: the host runs them on every element the operator
	// emits, and what the last one passes on is the operator's output.
	Stages []Stage
	// Lends marks an operator whose output elements are lent (Plan.lends):
	// its last map — its last stage, or the operator itself when it is a map
	// with none — has a tuple literal for a body, or it is a key combiner or
	// reduceByKey with no stages, and every reader of its output either reads
	// its elements in place (readsInPlace) over a chained edge or is behind a
	// batching edge. The host fills the tuple into its lent tuple (host.lent)
	// instead of carving it; a chained reader copies an element into its own
	// slab only to buffer it, and a batching edge encodes it or copies it
	// from the host's slab (dataflow.Context.EmitLent).
	Lends bool
	// StateJournal, on deltaMerge operators, marks that some solution
	// operator reads the state from inside a loop that also contains the
	// deltaMerge: with pipelining the merge may run ahead of the read, so
	// the state store must keep per-step undo records to reconstruct the
	// step the reader targets. Off for the common read-after-loop case.
	StateJournal bool
}

// Stage is one map or filter operator fused into the operator that feeds it.
type Stage struct {
	Instr *ir.Instr
	// Scratch marks a stage that reads its element from the host's scratch
	// tuple instead of a tuple carved for it: the operator emits tuples (a
	// join, cross or group output), every stage before this one is a
	// scratch filter, and this stage's lambda reads its parameter only
	// under a field projection (lang.ReadSet), so nothing it returns can
	// hold the tuple itself.
	Scratch bool
}

// PlanInput describes one logical input slot.
type PlanInput struct {
	// Producer is the operator defining the referenced variable.
	Producer *PlanOp
	// Part is the edge partitioning.
	Part dataflow.Partitioning
	// PredBlock is, for phi inputs only, the predecessor block whose
	// incoming control-flow edge selects this slot.
	PredBlock ir.BlockID
	// Combined marks an input fed by a synthetic partial-aggregation
	// operator instead of raw elements. Finalizers whose merge differs from
	// their element-wise logic (count) dispatch on it.
	Combined bool
	// Chained marks a forward edge fused by operator chaining (BuildChains):
	// it is translated to dataflow.ConnectChained, making the hop a direct
	// call inside one chained physical vertex.
	Chained bool
}

// BuildPlan plans the dataflow job for an SSA graph. parallelism is the
// degree of parallelism of data-parallel operators (readers, joins,
// aggregations' pre-stages); singleton-producing operators always run with
// one instance. It resolves every block's path segment (Segment) up front, so
// an IR whose jumps form a cycle that no branch leaves fails here, reached or
// not.
func BuildPlan(g *ir.Graph, parallelism int) (*Plan, error) {
	if !g.InSSA {
		return nil, fmt.Errorf("core: plan requires an SSA graph")
	}
	if parallelism < 1 {
		return nil, fmt.Errorf("core: parallelism %d", parallelism)
	}
	p := &Plan{IR: g, ByVar: make(map[string]*PlanOp), InstancesPerBlock: make([]int, len(g.Blocks))}
	if err := p.resolveSegments(); err != nil {
		return nil, err
	}
	// Create one op per instruction.
	for _, b := range g.Blocks {
		condVar := ""
		if b.Term.Kind == ir.TermBranch {
			condVar = b.Term.Cond
		}
		for _, in := range b.Instrs {
			op := &PlanOp{
				ID:          len(p.Ops),
				Instr:       in,
				Block:       b.ID,
				IsCondition: in.Var == condVar,
			}
			p.Ops = append(p.Ops, op)
			p.ByVar[in.Var] = op
		}
	}
	// Resolve inputs.
	for _, op := range p.Ops {
		op.Inputs = make([]PlanInput, len(op.Instr.Args))
		for i, a := range op.Instr.Args {
			prod, ok := p.ByVar[a]
			if !ok {
				return nil, fmt.Errorf("core: %s references undefined %s", op.Instr, a)
			}
			op.Inputs[i].Producer = prod
			if op.Instr.Kind == ir.OpPhi {
				op.Inputs[i].PredBlock = g.Blocks[op.Block].Preds[i]
			}
		}
	}
	if err := p.resolveDeltaSources(); err != nil {
		return nil, err
	}
	if err := p.inferParallelism(parallelism); err != nil {
		return nil, err
	}
	p.choosePartitionings(p.placements())
	for _, op := range p.Ops {
		p.InstancesPerBlock[op.Block] += op.Par
	}
	return p, nil
}

// resolveDeltaSources rewires every solution operator's input from the
// copy/phi chain it syntactically references straight to the deltaMerge
// operator whose partitioned state it dumps. The data edge then carries no
// elements at run time (the host drains and discards it); it exists so the
// bag-identifier protocol still tells the solution operator *which step* of
// the deltaMerge its output must reflect. It also decides, per deltaMerge,
// whether the state store needs an undo journal (see PlanOp.StateJournal).
func (p *Plan) resolveDeltaSources() error {
	var defs map[string][]*ir.Instr
	var loops *ir.Loops
	for _, op := range p.Ops {
		if op.Instr.Kind != ir.OpSolution {
			continue
		}
		if defs == nil {
			defs = p.IR.Defs()
			loops = ir.AnalyzeLoops(p.IR)
		}
		src, err := ir.ResolveDeltaSource(defs, op.Instr.Args[0])
		if err != nil {
			return err
		}
		srcOp := p.ByVar[src.Var]
		op.Inputs[0].Producer = srcOp
		// The journal is needed only when this reader can observe the
		// state mid-loop while the deltaMerge pipelines ahead: some loop
		// contains both operators' blocks.
		for li := range loops.Loops {
			if loops.Contains(li, srcOp.Block) && loops.Contains(li, op.Block) {
				srcOp.StateJournal = true
				break
			}
		}
	}
	return nil
}

// singleUse reports whether every bag arriving on input slot of op is read
// by at most one of op's output bags. The longest-prefix rule lets two
// outputs select the same input bag exactly when the execution path can
// visit op's block twice (for a phi slot: arrive twice over the slot's
// predecessor edge) without visiting the producer's block in between — so
// the slot is single-use iff no control-flow cycle through the consumer
// avoids the producer. A producer in the consumer's own block is the
// trivial case; a loop-invariant input (a hoisted join build side, a
// deltaMerge seed) is the re-readable one. Hosts stream single-use bags
// through and never keep what they consumed; false is always safe.
func (p *Plan) singleUse(op *PlanOp, slot int) bool {
	in := op.Inputs[slot]
	prod, target := in.Producer.Block, op.Block
	if prod == target {
		return true
	}
	if op.Instr.Kind == ir.OpPhi {
		target = in.PredBlock
	}
	// Walk forward from the consumer without entering the producer's block.
	seen := make([]bool, len(p.IR.Blocks))
	stack := append([]ir.BlockID(nil), p.IR.Blocks[op.Block].Term.Succs...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == prod || seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, p.IR.Blocks[b].Term.Succs...)
	}
	return !seen[target]
}

// InstancesPerBlockOn is the per-block completion target restricted to the
// instances machine self hosts under i%machines placement. Workers use it
// to aggregate local completions of one path position into a single
// control event; the per-machine targets sum to InstancesPerBlock. Call
// after plan rewrites (InsertCombiners, BuildChains) so synthetic
// operators are counted.
func (p *Plan) InstancesPerBlockOn(machines, self int) []int {
	out := make([]int, len(p.InstancesPerBlock))
	for _, op := range p.Ops {
		n := op.Par / machines
		if op.Par%machines > self {
			n++
		}
		out[op.Block] += n
	}
	return out
}

// inferParallelism fixes the instance count of every operator.
// Singleton-producing operators run with one instance; sources and
// key-based operators run with full parallelism; element-wise operators
// inherit their input's parallelism, and a phi or union the largest of its
// inputs'. Copy and phi chains cycle through loops, so the propagated counts
// are a fixpoint: each starts unknown (0) and only grows, and every operator
// is revisited until none changes — a loop-carried bag whose entry input is
// empty() (one instance) takes its loop body's parallelism, however late the
// pass reaches the body.
func (p *Plan) inferParallelism(n int) error {
	var prop []*PlanOp
	for _, op := range p.Ops {
		switch op.Instr.Kind {
		case ir.OpSingleton, ir.OpEmpty, ir.OpCombine, ir.OpSum, ir.OpCount,
			ir.OpReduce, ir.OpWriteFile:
			op.Par = 1
		case ir.OpReadFile, ir.OpJoin, ir.OpReduceByKey, ir.OpDistinct,
			ir.OpDeltaMerge:
			op.Par = n
		case ir.OpMap, ir.OpFlatMap, ir.OpFilter, ir.OpCopy, ir.OpCross,
			ir.OpSolution, ir.OpPhi, ir.OpUnion:
			// A solution operator dumps the partitioned state of its
			// deltaMerge (its rewired input): same instances, same keys.
			op.Par = 0
			prop = append(prop, op)
		default:
			return fmt.Errorf("core: no parallelism rule for %s", op.Instr.Kind)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, op := range prop {
			par := op.Inputs[0].Producer.Par
			if k := op.Instr.Kind; k == ir.OpPhi || k == ir.OpUnion {
				for _, in := range op.Inputs {
					par = max(par, in.Producer.Par)
				}
			}
			if par > op.Par {
				op.Par = par
				changed = true
			}
		}
	}
	// A cycle of only propagating ops (phi of copies of itself) cannot
	// occur in valid SSA reached from an entry definition, but guard anyway.
	for _, op := range prop {
		if op.Par == 0 {
			op.Par = 1
		}
	}
	return nil
}

// placement is where an operator's output elements sit among its Par
// instances: the key-partitioning property (DESIGN.md Sec. 21). It is a
// lattice with placeAny on top and placeNone at the bottom; placeByKey and
// placeByValue meet in placeNone.
type placement uint8

// The placements.
const (
	// placeAny holds of a bag with no element — empty()'s — and of an
	// operator the fixpoint has not lowered yet.
	placeAny placement = iota
	// placeByKey: element e sits on instance hash(Key(e)) % Par, where a
	// key shuffle would put it.
	placeByKey
	// placeByValue: element e sits on instance hash(e) % Par, where a value
	// shuffle would put it.
	placeByValue
	// placeNone: nothing is known.
	placeNone
)

func (a placement) meet(b placement) placement {
	switch {
	case a == b || b == placeAny:
		return a
	case a == placeAny:
		return b
	}
	return placeNone
}

// through is the placement of a map's output whose lambda has key flow f
// and whose input has placement a.
func (a placement) through(f lang.KeyFlow) placement {
	switch {
	case a == placeAny || a == placeNone || f == lang.FlowSame:
		return a
	case a == placeByKey && f == lang.FlowFirstToKey:
		return placeByKey
	case a == placeByValue && f == lang.FlowWholeToKey:
		return placeByKey
	case a == placeByKey && f == lang.FlowFirstToWhole:
		return placeByValue
	}
	return placeNone
}

// placements labels every operator's output, indexed by ID, with the
// greatest fixpoint of these rules, so that a loop-carried bag keeps the
// placement its entry and its loop body agree on:
//
//   - join, reduceByKey, deltaMerge and solution emit by key, distinct by
//     value: their inputs are shuffled (or already sit) that way;
//   - empty() emits nothing, so any placement holds of it;
//   - copy, filter, phi and union keep the meet of their inputs';
//   - a map moves its input's placement by its lambda's key flow
//     (lang.KeyFlow), and a native map's is none;
//   - every other operator's is none, and so is any non-empty input at a
//     parallelism other than its consumer's.
//
// Every label only falls from placeAny, each at most twice, so the loop
// ends.
func (p *Plan) placements() []placement {
	pl := make([]placement, len(p.Ops))
	for changed := true; changed; {
		changed = false
		for _, op := range p.Ops {
			if a := p.place(op, pl); a != pl[op.ID] {
				pl[op.ID] = a
				changed = true
			}
		}
	}
	return pl
}

// place applies placements' rule for op to the current labels pl.
func (p *Plan) place(op *PlanOp, pl []placement) placement {
	input := func(in PlanInput) placement {
		switch {
		case in.Producer.Instr.Kind == ir.OpEmpty:
			return placeAny
		case in.Producer.Par != op.Par:
			return placeNone
		}
		return pl[in.Producer.ID]
	}
	switch op.Instr.Kind {
	case ir.OpJoin, ir.OpReduceByKey, ir.OpDeltaMerge, ir.OpSolution:
		return placeByKey
	case ir.OpDistinct:
		return placeByValue
	case ir.OpEmpty:
		return placeAny
	case ir.OpCopy, ir.OpFilter, ir.OpPhi, ir.OpUnion:
		a := placeAny
		for _, in := range op.Inputs {
			a = a.meet(input(in))
		}
		return a
	case ir.OpMap:
		return input(op.Inputs[0]).through(op.Instr.F.KeyFlow())
	}
	return placeNone
}

// keyedKind reports whether an operator of kind k reads its input pairs by
// key: join, reduceByKey and deltaMerge, and the key combiner, which takes
// its consumer's kind.
func keyedKind(k ir.OpKind) bool {
	return k == ir.OpJoin || k == ir.OpReduceByKey || k == ir.OpDeltaMerge
}

// keyedForward reports whether in, an input of op, is a forward keyed edge:
// op reads by key and its producer's output already sits by key at op's
// parallelism, so choosePartitionings dropped the key shuffle.
func keyedForward(in *PlanInput, op *PlanOp) bool {
	return op.Synth == SynthNone && keyedKind(op.Instr.Kind) && in.Part == dataflow.PartForward
}

// partName is how Plan.String and Dot name the partitioning of in, an input
// of op: a forward keyed edge is "forward(keyed)".
func partName(in *PlanInput, op *PlanOp) string {
	if keyedForward(in, op) {
		return "forward(keyed)"
	}
	return in.Part.String()
}

// choosePartitionings picks each edge's partitioning from the consumer's
// semantics, the producer/consumer parallelism and the producer's
// placement pl.
func (p *Plan) choosePartitionings(pl []placement) {
	for _, op := range p.Ops {
		for i := range op.Inputs {
			in := &op.Inputs[i]
			prodPar := in.Producer.Par
			switch op.Instr.Kind {
			case ir.OpJoin, ir.OpReduceByKey, ir.OpDeltaMerge:
				// Both inputs of a join, and both the seed and every step's
				// delta of a deltaMerge, are hash-partitioned by key, so
				// matches and state updates are instance-local. An input
				// that already sits by key at this parallelism stays put.
				if pl[in.Producer.ID] == placeByKey && prodPar == op.Par {
					in.Part = dataflow.PartForward
				} else {
					in.Part = dataflow.PartShuffleKey
				}
			case ir.OpDistinct:
				in.Part = dataflow.PartShuffleVal
			case ir.OpSum, ir.OpCount, ir.OpReduce:
				if prodPar == 1 {
					in.Part = dataflow.PartForward
				} else {
					in.Part = dataflow.PartGather
				}
			case ir.OpWriteFile:
				if prodPar == 1 {
					in.Part = dataflow.PartForward
				} else {
					in.Part = dataflow.PartGather
				}
			case ir.OpReadFile:
				// The singleton file name must reach every reader instance.
				if op.Par == 1 {
					in.Part = dataflow.PartForward
				} else {
					in.Part = dataflow.PartBroadcast
				}
			case ir.OpCombine:
				in.Part = dataflow.PartForward // all singletons
			case ir.OpCross:
				if i == 1 {
					in.Part = dataflow.PartBroadcast
				} else {
					in.Part = partForPars(prodPar, op.Par)
				}
			default: // Map, FlatMap, Filter, Copy, Phi, Union
				in.Part = partForPars(prodPar, op.Par)
			}
		}
	}
}

// partForPars picks forward when parallelism matches, and a value shuffle
// (multiset-preserving repartitioning) otherwise.
func partForPars(prod, cons int) dataflow.Partitioning {
	if prod == cons {
		return dataflow.PartForward
	}
	if cons == 1 {
		return dataflow.PartGather
	}
	return dataflow.PartShuffleVal
}

// String renders the plan for debugging and the mitos-dot tool: one line
// per operator, then one indented line per fused stage.
func (p *Plan) String() string {
	s := ""
	for _, op := range p.Ops {
		s += fmt.Sprintf("op%d b%d par%d", op.ID, op.Block, op.Par)
		if op.IsCondition {
			s += " cond"
		}
		if op.Synth != SynthNone {
			s += " " + op.Synth.String()
		}
		s += " " + op.Instr.String()
		if op.Chain != 0 {
			s += fmt.Sprintf(" chain%d", op.Chain)
		}
		for i, in := range op.Inputs {
			s += fmt.Sprintf(" [in%d<-op%d %s", i, in.Producer.ID, partName(&in, op))
			if in.Combined {
				s += " combined"
			}
			if in.Chained {
				s += " chained"
			}
			s += "]"
		}
		for _, st := range op.Stages {
			s += "\n    stage " + st.Instr.String()
			if st.Scratch {
				s += " on scratch"
			}
		}
		if op.Lends {
			s += " lends"
		}
		s += "\n"
	}
	return s
}
