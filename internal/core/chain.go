package core

import (
	"github.com/mitos-project/mitos/internal/dataflow"
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
//   - neither endpoint is a condition operator: the coordinator consumes
//     condition decisions to extend the execution path, and keeping the
//     condition on its own mailbox keeps decision emission an independent,
//     individually-schedulable event.
//
// A multi-input operator can still be a chain member through its forward
// input; its other inputs simply stay external and arrive through the
// chain driver's shared mailbox — the boundary is at the non-forward
// input, not at the operator.
//
// Chaining is transparent to the bag protocol: hosts still see per-edge
// FIFO event order (synchronous calls deliver in emission order), still
// report their own completions and decisions, and still receive every
// path segment broadcast (fanned out to chain members consumer first, so a
// member that emits from its control callback finds its chained consumers
// already running the output bag it feeds), so bag identifiers, loop
// pipelining, hoisting, and combiner flush semantics are unchanged.

// BuildChains marks fusable forward edges as chained, groups the operators
// into chains, and returns the number of chained edges. It must run after
// BuildPlan and InsertCombiners; calling it again recomputes the same
// result.
func (p *Plan) BuildChains() int {
	for _, op := range p.Ops {
		for i := range op.Inputs {
			in := &op.Inputs[i]
			in.Chained = in.Part == dataflow.PartForward &&
				in.Producer.Par == op.Par &&
				in.Producer.ID < op.ID &&
				!in.Producer.IsCondition && !op.IsCondition
		}
	}
	p.buildChainGroups()
	return p.ChainedEdges()
}

// ChainedEdges counts the plan edges BuildChains fused.
func (p *Plan) ChainedEdges() int {
	n := 0
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			if in.Chained {
				n++
			}
		}
	}
	return n
}

// buildChainGroups recomputes Plan.Chains and PlanOp.Chain from the
// Chained edge marks: chains are the connected components of the chained
// subgraph, members in ascending (topological) ID order, numbered from 1
// in order of their first member. Operators outside any chain have
// Chain 0.
func (p *Plan) buildChainGroups() {
	parent := make([]int, len(p.Ops))
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			if in.Chained {
				parent[find(in.Producer.ID)] = find(op.ID)
			}
		}
	}
	p.Chains = nil
	chainOf := make(map[int]int) // component root -> chain index in p.Chains
	for _, op := range p.Ops {
		op.Chain = 0
	}
	for _, op := range p.Ops { // ascending ID: members end up in topo order
		r := find(op.ID)
		ci, ok := chainOf[r]
		if !ok {
			chainOf[r] = len(p.Chains)
			p.Chains = append(p.Chains, nil)
			ci = chainOf[r]
		}
		p.Chains[ci] = append(p.Chains[ci], op)
	}
	// Drop singleton components and renumber.
	chains := p.Chains[:0]
	for _, members := range p.Chains {
		if len(members) < 2 {
			continue
		}
		chains = append(chains, members)
		for _, op := range members {
			op.Chain = len(chains)
		}
	}
	p.Chains = chains
}
