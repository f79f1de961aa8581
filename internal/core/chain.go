package core

import (
	"slices"

	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
)

// Operator chaining: a plan-rewrite stage that runs after BuildPlan and
// after InsertCombiners (it composes with the combiner rewrite — a
// producer and its map-side combiner are connected by exactly the kind of
// forward edge that chains). BuildChains marks every fusable forward edge
// as chained; ExecutePlan then translates chained edges through
// dataflow.ConnectChained, so each maximal group of chained operators runs
// as one chained physical vertex per instance — elements cross chained
// edges by direct synchronous call instead of a mailbox batch (see
// internal/dataflow/chain.go).
//
// An edge fuses iff all of the following hold; each rule is a chain
// boundary the paper's control-flow protocol needs:
//
//   - the edge is PartForward at equal parallelism: shuffles, gathers, and
//     broadcasts re-route elements between instances, so instance i of the
//     producer and consumer are not generally connected, and a parallelism
//     change re-routes even a "forward-shaped" edge;
//   - producer ID < consumer ID: plan operator IDs follow block order, so
//     this admits every acyclic forward edge while excluding loop back
//     edges (the phi input fed from the loop body), which would otherwise
//     close a synchronous call cycle;
//   - a forward keyed edge (keyedForward) and an edge into a copy stay
//     inside one block, and a forward keyed edge out of a join's probe side
//     (forwardEdge);
//   - an edge out of a condition operator never chains, and an edge into
//     one chains only when the chain it joins is closed: chaining all of
//     the condition's forward inputs forms a chain from which no edge
//     leaves for an operator outside it (chainConditions).
//
// A closed condition chain — the step loop's counter, connected
// components' count — makes its decision on the chain driver's goroutine,
// and on the simulated cluster the coordinator's path extension and
// broadcast run there too, so a loop whose control plane is the whole chain
// runs each step without a goroutine hop: the 20 000-iteration step loop
// parks a goroutine 12 times in all, where it parked once per step with the
// condition on its own mailbox (TestStepLoopWakeUps). The closure test keeps
// the hop where the chain feeds other work: Visit Count's day counter also
// names the file readFile reads, and deciding in-stack there lets the
// control plane run ahead of the data plane — early-arrival buffers grew,
// and the bulk workload allocated a third more per job.
//
// A multi-input operator can still be a chain member through its forward
// input; its other inputs simply stay external and arrive through the
// chain driver's shared mailbox — the boundary is at the non-forward
// input, not at the operator.
//
// Member fusion goes one step further for the commonest member: a map or a
// filter becomes a stage of the operator that feeds it (fuseStages), run in
// that operator's emit path, so an element crosses it by a UDF call and not
// by a deliver → OnBatch → consume → emit hop, and a join's, cross's or
// group output's tuple that the first stages only project is never built
// (Stage.Scratch). The tuple literal a map builds for a keyed reader on a
// chained edge or for a shuffle — the x => (x, 1) in front of a combiner or a
// join — and a combiner's (key, agg) are not carved at all: the host lends
// them (PlanOp.Lends).
//
// Chaining is transparent to the bag protocol: hosts still see per-edge
// FIFO event order (synchronous calls deliver in emission order), still
// report their own completions and decisions, and still receive every
// path segment broadcast (fanned out to chain members consumer first, so a
// member that emits from its control callback finds its chained consumers
// already running the output bag it feeds), so bag identifiers, loop
// pipelining, hoisting, and combiner flush semantics are unchanged.

// BuildChains marks fusable forward edges as chained, fuses chained map and
// filter members into their producers (fuseStages), groups the operators
// into chains, and returns the number of chained edges, fused stages
// included. It must run after BuildPlan and InsertCombiners; calling it
// again recomputes the same result.
func (p *Plan) BuildChains() int {
	for _, op := range p.Ops {
		for i := range op.Inputs {
			in := &op.Inputs[i]
			in.Chained = forwardEdge(op, i) && !in.Producer.IsCondition && !op.IsCondition
		}
	}
	p.chainConditions()
	p.fuseStages()
	p.buildChainGroups()
	return p.ChainedEdges()
}

// forwardEdge reports whether op's input slot can chain apart from the
// condition rule: a forward edge at equal parallelism from a lower ID. Two
// more kinds of edge would hand their elements, in-stack, to a host that
// cannot consume them yet by design, which buffers them (copying each lent
// one), so they stay mailbox hops:
//
//   - a forward keyed edge into a join's probe side, which waits for the
//     join's build side;
//   - a forward keyed edge or an edge into a copy from another block, whose
//     consumer's output bag waits for the path to pass the branch between
//     the blocks. A keyed operator that reads its input in place finishes
//     its bag as soon as its own instance's input ends, ahead of that
//     branch more often than one behind a shuffle, and a copy is how such a
//     bag is handed to the next iteration.
func forwardEdge(op *PlanOp, slot int) bool {
	in := &op.Inputs[slot]
	if in.Part != dataflow.PartForward || in.Producer.Par != op.Par || in.Producer.ID >= op.ID {
		return false
	}
	keyed := keyedForward(in, op)
	switch {
	case keyed && op.Instr.Kind == ir.OpJoin && slot == 1:
		return false
	case keyed || op.Instr.Kind == ir.OpCopy:
		return in.Producer.Block == op.Block
	}
	return true
}

// chainConditions chains every condition operator's forward inputs whose
// chain would be closed: the condition plus the chains of those inputs'
// producers, with no edge from a member to an operator outside it. An
// edge back into the chain — the loop's phi — keeps it closed. A condition
// has no chained edge before its own turn, since no edge out of one
// chains; once chained, it is part of its chain for the conditions after
// it.
func (p *Plan) chainConditions() {
	chains := p.chainForest()
	joined := make([]bool, len(p.Ops)) // by forest root: a chain the condition joins
	member := make([]bool, len(p.Ops))
	for _, c := range p.Ops {
		if !c.IsCondition {
			continue
		}
		clear(joined)
		for i := range c.Inputs {
			if forwardEdge(c, i) {
				joined[chains.find(c.Inputs[i].Producer.ID)] = true
			}
		}
		for _, op := range p.Ops {
			member[op.ID] = op == c || joined[chains.find(op.ID)]
		}
		if !slices.Contains(joined, true) || !p.closed(member) {
			continue
		}
		for i := range c.Inputs {
			if in := &c.Inputs[i]; forwardEdge(c, i) {
				in.Chained = true
				chains.union(in.Producer.ID, c.ID)
			}
		}
	}
}

// closed reports whether no edge leads from an operator in member to one
// outside it.
func (p *Plan) closed(member []bool) bool {
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			if member[in.Producer.ID] && !member[op.ID] {
				return false
			}
		}
	}
	return true
}

// ChainedEdges counts the plan edges BuildChains fused: the chained edges
// between operators and the edge into every fused stage. Fusing a member
// into its producer trades one for the other, so the count is the chained
// edges of the plan before fusion.
func (p *Plan) ChainedEdges() int {
	n := 0
	for _, op := range p.Ops {
		n += len(op.Stages)
		for _, in := range op.Inputs {
			if in.Chained {
				n++
			}
		}
	}
	return n
}

// forest is a union-find forest over plan operator IDs.
type forest []int

// chainForest returns the forest whose trees are the connected components
// of the plan's chained edges.
func (p *Plan) chainForest() forest {
	f := make(forest, len(p.Ops))
	for i := range f {
		f[i] = i
	}
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			if in.Chained {
				f.union(in.Producer.ID, op.ID)
			}
		}
	}
	return f
}

func (f forest) find(x int) int {
	for f[x] != x {
		f[x] = f[f[x]]
		x = f[x]
	}
	return x
}

func (f forest) union(x, y int) { f[f.find(x)] = f.find(y) }

// buildChainGroups recomputes Plan.Chains and PlanOp.Chain from the
// Chained edge marks: chains are the connected components of the chained
// subgraph with at least two members, members in ascending (topological)
// ID order, numbered from 1 in order of their first member. Operators
// outside any chain have Chain 0.
func (p *Plan) buildChainGroups() {
	chains := p.chainForest()
	size := make([]int, len(p.Ops)) // by forest root
	for _, op := range p.Ops {
		size[chains.find(op.ID)]++
	}
	number := make([]int, len(p.Ops)) // by forest root: its chain's number, once seen
	p.Chains = nil
	for _, op := range p.Ops { // ascending ID: members end up in topo order
		r := chains.find(op.ID)
		op.Chain = 0
		if size[r] < 2 {
			continue
		}
		if number[r] == 0 {
			p.Chains = append(p.Chains, make([]*PlanOp, 0, size[r]))
			number[r] = len(p.Chains)
		}
		op.Chain = number[r]
		p.Chains[op.Chain-1] = append(p.Chains[op.Chain-1], op)
	}
}

// fuseStages absorbs every chained map or filter C into the operator P that
// feeds it, as P's next stage, when
//
//   - P and C are in the same block, so each of P's output bags maps to
//     exactly one of C's, at the same path position: the fused operator's
//     bag identifiers are C's;
//   - C's edge is P's only consumer, so nothing reads P's unfused output;
//   - C's UDF is a script lambda, not a native Go function.
//
// C's consumers then read from P, C leaves the plan and its instances leave
// InstancesPerBlock, and IDs are renumbered, staying dense and topological.
// Each stage keeps its own instruction and compiled UDF — nothing is
// substituted — so a stage's error names its own variable, as the unfused
// operator's did. Last, it marks the stages that run on the host's scratch
// tuple (Stage.Scratch) and the operators that lend their output
// (PlanOp.Lends).
func (p *Plan) fuseStages() {
	for _, c := range p.Ops {
		if !p.fusable(c) {
			continue
		}
		prod := c.Inputs[0].Producer
		prod.Stages = append(prod.Stages, Stage{Instr: c.Instr})
		p.ByVar[c.Instr.Var] = prod
		p.InstancesPerBlock[c.Block] -= c.Par
		for _, op := range p.Ops { // a phi before c may read it over a back edge
			for i := range op.Inputs {
				if op.Inputs[i].Producer == c {
					op.Inputs[i].Producer = prod
				}
			}
		}
		c.ID = -1 // absorbed
	}
	p.Ops = slices.DeleteFunc(p.Ops, func(op *PlanOp) bool { return op.ID < 0 })
	for i, op := range p.Ops {
		op.ID = i
		if !emitsTuples(op) {
			continue
		}
		for j := range op.Stages {
			st := &op.Stages[j]
			if st.Instr.F.Reads().Whole {
				break
			}
			st.Scratch = true
			if st.Instr.Kind == ir.OpMap {
				break // its output is a projection, not the tuple
			}
		}
	}
	for _, op := range p.Ops {
		op.Lends = p.lends(op)
	}
}

// lendWidth is the widest tuple literal a host lends (host.lent).
const lendWidth = 3

// lends reports whether op's output elements can be lent (PlanOp.Lends): it
// builds each one in a tuple of its own — its last map's tuple literal, or,
// with no stages, a key combiner's or a reduceByKey's group output — and it
// has readers, each of which either reads in place over a chained edge — an
// element on it is a synchronous call that returns before the next one is
// built — or is behind a batching edge, which encodes the element into a
// remote frame or copies it into a local batch before Emit returns.
func (p *Plan) lends(op *PlanOp) bool {
	if !buildsOwnTuple(op) {
		return false
	}
	readers := 0
	for _, c := range p.Ops {
		for _, in := range c.Inputs {
			if in.Producer != op {
				continue
			}
			if in.Chained && !readsInPlace(c) {
				return false
			}
			readers++
		}
	}
	return readers > 0
}

// buildsOwnTuple reports whether every element op emits is a tuple op
// builds for it alone, which it can therefore fill into the lent tuple: the
// tuple literal of its last map — its last stage, or op itself when it is a
// map with none — of at most lendWidth fields, or the (key, agg) pair of a
// key combiner or reduceByKey with no stages.
func buildsOwnTuple(op *PlanOp) bool {
	last := op.Instr
	if n := len(op.Stages); n > 0 {
		last = op.Stages[n-1].Instr
	} else if op.Synth == SynthCombineByKey || op.Synth == SynthNone && op.Instr.Kind == ir.OpReduceByKey {
		return true
	} else if op.Synth != SynthNone {
		return false
	}
	if last.Kind != ir.OpMap || last.F == nil {
		return false
	}
	w := last.F.TupleWidth()
	return w > 0 && w <= lendWidth
}

// readsInPlace reports whether op uses each element only through pairParts
// and keeps just the key and the value, never the pair: the key combiner
// and reduceByKey fold them into a table, deltaMerge into its candidate or
// seed table, and join into its build table or the tuples it emits. Every
// other chained reader may keep or forward the element itself — the local
// distinct combiner keys a table by it, writeFile stores it, union, copy and
// phi pass it on, a partial reduce holds it as its accumulator — so its
// producer carves. A keyed operator is chained to its producer only over a
// forward keyed edge inside one block (forwardEdge).
func readsInPlace(op *PlanOp) bool {
	return keyedKind(op.Instr.Kind)
}

// fusable reports whether c can become a stage of its producer. Absorbed
// operators (ID -1) no longer read anything.
func (p *Plan) fusable(c *PlanOp) bool {
	if c.Synth != SynthNone || (c.Instr.Kind != ir.OpMap && c.Instr.Kind != ir.OpFilter) ||
		!c.Inputs[0].Chained || c.Instr.F.Native() {
		return false
	}
	prod := c.Inputs[0].Producer
	if prod.Block != c.Block {
		return false
	}
	readers := 0
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			if op.ID >= 0 && in.Producer == prod {
				readers++
			}
		}
	}
	return readers == 1
}

// emitsTuples reports whether op's output elements are tuples the host
// builds itself — a join's (key, left, right), a cross's (left, right), a
// reduceByKey's (key, value) — which a scratch stage may read in place.
func emitsTuples(op *PlanOp) bool {
	switch op.Instr.Kind {
	case ir.OpJoin, ir.OpCross, ir.OpReduceByKey:
		return op.Synth == SynthNone
	}
	return false
}
