package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
)

// stepLoopSrc is the Fig. 7 step-overhead microbenchmark shape (the same
// program workload.StepLoopScript emits; inlined because workload imports
// core).
func stepLoopSrc(steps int) string {
	return fmt.Sprintf(`x = 0
while (x < %d) {
  x = x + 1
}
newBag(x).writeFile("out")
`, steps)
}

// TestBuildChainsStepLoop checks the chain boundary rules on the paper's
// per-step-overhead microbenchmark shape: a scalar while loop. The
// forward pipeline around the loop variable must fuse; the condition
// operator and the phi back edge (the loop cycle) must not.
func TestBuildChainsStepLoop(t *testing.T) {
	g := compile(t, stepLoopSrc(5))
	p, err := BuildPlan(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.InsertCombiners()
	chained := p.BuildChains()
	if chained == 0 || len(p.Chains) == 0 {
		t.Fatalf("no chains built: %d edges, %d chains\n%s", chained, len(p.Chains), p)
	}
	for _, op := range p.Ops {
		if op.IsCondition && op.Chain != 0 {
			t.Errorf("condition op %s is in chain %d, want unchained", op.Instr.Var, op.Chain)
		}
		for i, in := range op.Inputs {
			if in.Chained {
				if in.Part != dataflow.PartForward {
					t.Errorf("%s input %d chained over %s", op.Instr.Var, i, in.Part)
				}
				if in.Producer.Par != op.Par {
					t.Errorf("%s input %d chained across parallelism %d->%d", op.Instr.Var, i, in.Producer.Par, op.Par)
				}
				if in.Producer.ID >= op.ID {
					t.Errorf("%s input %d chained against ID order (op%d -> op%d)", op.Instr.Var, i, in.Producer.ID, op.ID)
				}
				if in.Producer.IsCondition || op.IsCondition {
					t.Errorf("%s input %d chains a condition op", op.Instr.Var, i)
				}
				if in.Producer.Chain != op.Chain || op.Chain == 0 {
					t.Errorf("chained edge %s->%s spans chains %d and %d",
						in.Producer.Instr.Var, op.Instr.Var, in.Producer.Chain, op.Chain)
				}
			}
			// The loop back edge: a phi input produced by a later op.
			if op.Instr.Kind == ir.OpPhi && in.Producer.ID > op.ID && in.Chained {
				t.Errorf("phi back edge %s->%s chained (synchronous cycle)", in.Producer.Instr.Var, op.Instr.Var)
			}
		}
	}
	// Chain members must be listed in ascending (topological) ID order.
	for ci, members := range p.Chains {
		for i := 1; i < len(members); i++ {
			if members[i-1].ID >= members[i].ID {
				t.Errorf("chain %d members out of order: %v", ci+1, members)
			}
		}
		if len(members) < 2 {
			t.Errorf("chain %d has %d members", ci+1, len(members))
		}
	}
}

// TestBuildChainsComposesWithCombiners checks the rewrite composition: a
// map-side combiner is forward-fed at the producer's parallelism, so the
// producer->combiner hop must fuse while the combiner's outgoing shuffle
// stays a boundary.
func TestBuildChainsComposesWithCombiners(t *testing.T) {
	src := `data = readFile("in")
counts = data.reduceByKey((a, b) => a + b)
counts.writeFile("out")`
	g := compile(t, src)
	p, err := BuildPlan(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.InsertCombiners(); n == 0 {
		t.Fatal("no combiners inserted")
	}
	p.BuildChains()
	found := false
	for _, op := range p.Ops {
		if op.Synth == SynthNone {
			continue
		}
		found = true
		if !op.Inputs[0].Chained {
			t.Errorf("producer->combiner edge of %s not chained\n%s", op.Instr.Var, p)
		}
		if op.Chain == 0 || op.Chain != op.Inputs[0].Producer.Chain {
			t.Errorf("combiner %s not in its producer's chain\n%s", op.Instr.Var, p)
		}
	}
	if !found {
		t.Fatal("no synthetic ops in plan")
	}
	// The finalizer's shuffled input must stay unchained.
	for _, op := range p.Ops {
		if op.Instr.Kind == ir.OpReduceByKey && op.Synth == SynthNone {
			if op.Inputs[0].Chained {
				t.Errorf("shuffle into %s chained", op.Instr.Var)
			}
		}
	}
}

// TestBuildChainsIdempotent checks that rerunning the pass reproduces the
// same grouping.
func TestBuildChainsIdempotent(t *testing.T) {
	g := compile(t, stepLoopSrc(3))
	p, err := BuildPlan(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	n1 := p.BuildChains()
	s1 := p.String()
	n2 := p.BuildChains()
	if n1 != n2 || p.String() != s1 {
		t.Errorf("BuildChains not idempotent: %d vs %d edges", n1, n2)
	}
}

// TestExecuteChainingCounters runs the step loop end to end with chaining
// and checks the result counters: edges fused, elements crossing them by
// direct call, and fewer engine batches than the unchained run.
func TestExecuteChainingCounters(t *testing.T) {
	run := func(chaining bool) *Result {
		cl, err := cluster.New(cluster.FastConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		g := compile(t, stepLoopSrc(20))
		opts := DefaultOptions()
		opts.Chaining = chaining
		res, err := Execute(g, store.NewMemStore(), cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on, off := run(true), run(false)
	if on.ChainedEdges == 0 {
		t.Error("ChainedEdges = 0 with chaining on")
	}
	if on.Job.ElementsChained == 0 {
		t.Error("ElementsChained = 0 with chaining on")
	}
	if off.Job.ElementsChained != 0 {
		t.Errorf("ElementsChained = %d with chaining off", off.Job.ElementsChained)
	}
	if on.Job.BatchesSent >= off.Job.BatchesSent {
		t.Errorf("BatchesSent %d (chained) >= %d (unchained): chaining removed no mailbox hops",
			on.Job.BatchesSent, off.Job.BatchesSent)
	}
	if on.Steps != off.Steps {
		t.Errorf("steps differ: %d vs %d", on.Steps, off.Steps)
	}
}

// TestDotRendersChains checks the dot output marks chained ops and edges.
func TestDotRendersChains(t *testing.T) {
	g := compile(t, stepLoopSrc(3))
	p, err := BuildPlan(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.BuildChains()
	dot := p.Dot()
	if !strings.Contains(dot, "chain 1") || !strings.Contains(dot, "chained") {
		t.Errorf("dot output missing chain annotations:\n%s", dot)
	}
}
