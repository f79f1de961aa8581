package core

import (
	"fmt"

	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/val"
)

// Map-side combiners: a plan-rewrite stage that runs after
// choosePartitionings and inserts a synthetic partial-aggregation operator
// on the producer side of every expensive edge —
//
//   - reduceByKey: a per-instance combiner partially reduces by key
//     locally, so only the combined pairs cross the PartShuffleKey edge;
//   - distinct: a per-instance local dedup in front of PartShuffleVal;
//   - sum/count/reduce: full-parallelism partial instances, so the Par=1
//     finalizer merges P partials instead of N elements across PartGather.
//
// The combiner runs in the producer's basic block with the producer's
// parallelism and is fed by a forward edge, which keeps it on the
// producer's machine (instances with equal index share a placement): the
// shrunk output pays the network cost, the raw input never does. Because
// the combiner sits in the producer's block, the finalizer's longest-prefix
// input-bag selection (paper Sec. 5.2.3) chooses exactly the positions it
// chose before the rewrite, and the combiner's own selection from the
// producer is the identity — so control-flow coordination, loop
// pipelining, and hoisting semantics are unchanged. Combiner state is
// per output bag (one outputRun per bag identifier) and flushed when the
// input bag's EOBs are in, never across bags.

// SynthKind classifies synthetic plan operators.
type SynthKind uint8

// The synthetic operator kinds.
const (
	SynthNone SynthKind = iota
	// SynthCombineByKey partially reduces (key, value) pairs per producer
	// instance ahead of a reduceByKey shuffle.
	SynthCombineByKey
	// SynthLocalDistinct drops local duplicates ahead of a distinct shuffle.
	SynthLocalDistinct
	// SynthPartialSum, SynthPartialCount, and SynthPartialReduce fold each
	// producer instance's elements into at most one partial ahead of a
	// gather; the finalizer merges the partials.
	SynthPartialSum
	SynthPartialCount
	SynthPartialReduce
)

// String names the synthetic kind.
func (k SynthKind) String() string {
	switch k {
	case SynthNone:
		return "none"
	case SynthCombineByKey:
		return "combineByKey"
	case SynthLocalDistinct:
		return "localDistinct"
	case SynthPartialSum:
		return "partialSum"
	case SynthPartialCount:
		return "partialCount"
	case SynthPartialReduce:
		return "partialReduce"
	default:
		return fmt.Sprintf("SynthKind(%d)", uint8(k))
	}
}

// InsertCombiners rewrites the plan in place, inserting map-side combiners
// ahead of every aggregation edge that benefits, and returns how many were
// inserted. It must run after BuildPlan (parallelism and partitionings
// decided) and before ExecutePlan; calling it again is a no-op.
func (p *Plan) InsertCombiners() int {
	inserted := 0
	for _, op := range p.Ops[:len(p.Ops):len(p.Ops)] {
		if op.Synth != SynthNone {
			continue // a combiner never feeds another combiner
		}
		var kind SynthKind
		slot := 0
		switch op.Instr.Kind {
		case ir.OpReduceByKey:
			kind = SynthCombineByKey
		case ir.OpDeltaMerge:
			// The per-step delta (slot 1) is folded by key with the merge
			// UDF before crossing the shuffle — the same contract as
			// reduceByKey, since deltaMerge's F must be associative and
			// commutative. The seed (slot 0) crosses once; not worth one.
			kind = SynthCombineByKey
			slot = 1
		case ir.OpDistinct:
			kind = SynthLocalDistinct
		case ir.OpSum:
			kind = SynthPartialSum
		case ir.OpCount:
			kind = SynthPartialCount
		case ir.OpReduce:
			kind = SynthPartialReduce
		default:
			continue
		}
		in := &op.Inputs[slot]
		if in.Producer.Synth != SynthNone || in.Combined {
			continue // already rewritten
		}
		switch kind {
		case SynthPartialSum, SynthPartialCount, SynthPartialReduce:
			// Partial folds only pay off where a gather funnels a parallel
			// producer into the Par=1 finalizer; a forward edge from a
			// singleton producer has nothing to combine.
			if in.Part != dataflow.PartGather {
				continue
			}
		default:
			// Key/value shuffles: a forward keyed edge shuffles nothing, and
			// with one producer and one consumer instance the edge is
			// instance-local; either way the combiner would duplicate the
			// finalizer's hashing for no byte savings.
			if in.Part == dataflow.PartForward || in.Producer.Par == 1 && op.Par == 1 {
				continue
			}
		}
		prod := in.Producer
		comb := &PlanOp{
			ID: len(p.Ops),
			// The synthetic instruction reuses the consumer's kind and UDF;
			// the original SSA instruction is never mutated (IR graphs are
			// shared across executions).
			Instr: &ir.Instr{
				Var:  op.Instr.Var + ".combine",
				Kind: op.Instr.Kind,
				Args: []string{prod.Instr.Var},
				F:    op.Instr.F,
			},
			Block:  prod.Block,
			Par:    prod.Par,
			Synth:  kind,
			Inputs: []PlanInput{{Producer: prod, Part: dataflow.PartForward}},
		}
		p.Ops = append(p.Ops, comb)
		// Combiner instances report bag completions like any host, so they
		// count toward the coordinator's per-block completion target.
		p.InstancesPerBlock[comb.Block] += comb.Par
		in.Producer = comb
		in.Combined = true
		inserted++
	}
	return inserted
}

// consumePartial is consume for the synthetic kinds (slot 0 is their only
// input). run.count is the number of elements folded so far: partial sum and
// count need it themselves, and it is combine_in for all of them.
func (h *host) consumePartial(run *outputRun, x val.Value) error {
	run.count++
	switch h.op.Synth {
	case SynthCombineByKey:
		// One combined pair per key. The consumer reduceByKey then merges
		// combined pairs with the same UDF — which therefore must be
		// associative and commutative, exactly the contract reduceByKey
		// already imposes on a distributed runtime.
		return h.foldInto(run.hash, x)
	case SynthLocalDistinct:
		// Later duplicates die here instead of crossing the shuffle.
		return h.emitIfNew(run, x)
	case SynthPartialSum:
		return h.addSum(run, x)
	case SynthPartialReduce:
		return h.foldAcc(run, x)
	}
	return nil
}

// finishPartial emits what the combiner folded for one bag and accounts its
// traffic. The gathered aggregates emit at most one partial, and none for
// an instance that saw no elements, so the finalizer's result for an
// all-empty bag (0, 0, or no element) is identical to the uncombined run's.
func (h *host) finishPartial(run *outputRun) error {
	var err error
	switch h.op.Synth {
	case SynthCombineByKey:
		err = h.emitGroups(run)
	case SynthPartialSum:
		if run.count > 0 {
			err = h.emitSum(run)
		}
	case SynthPartialCount:
		if run.count > 0 {
			err = h.emit(run, val.Int(run.count))
		}
	case SynthPartialReduce:
		if run.accSet {
			err = h.emit(run, run.acc)
		}
	}
	h.rt.combineIn.Add(run.count)
	h.combineIn.Add(run.count)
	h.rt.combineOut.Add(run.nEmitted)
	h.combineOut.Add(run.nEmitted)
	return err
}
