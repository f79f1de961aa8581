package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
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
// forward pipeline around the loop variable must fuse, and the condition
// with it, since nothing outside the loop reads the chain; the phi back
// edge (the loop cycle) must not, and no edge may leave the condition.
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
		if op.IsCondition && (op.Chain == 0 || len(p.Chains) != 1) {
			t.Errorf("condition op %s is in chain %d of %d, want the loop's one chain\n%s", op.Instr.Var, op.Chain, len(p.Chains), p)
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
				if in.Producer.IsCondition {
					t.Errorf("%s input %d chains an edge out of a condition op", op.Instr.Var, i)
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

// TestFuseStagesRules checks when BuildChains fuses a map or filter into its
// producer: only over a chained edge, inside one block, from a producer with
// no other consumer, and for a script lambda. A fused member leaves the
// plan, its variable resolves to its producer, and IDs stay dense.
func TestFuseStagesRules(t *testing.T) {
	native := lang.NewBuilder()
	native.Assign("a", lang.ReadFile(lang.StrLit("a")))
	native.Assign("m", lang.MapBag(lang.Var("a"), lang.Native("id", 1, func(x []val.Value) val.Value { return x[0] })))
	native.WriteFile(lang.Var("m"), lang.StrLit("o"))
	for _, c := range []struct {
		name   string
		g      *ir.Graph
		stages int // stages fused over the whole plan
	}{
		{"map and filter", compile(t, `a = readFile("a")
m = a.map(x => x * 2).filter(x => x > 3)
m.writeFile("o")`), 2},
		{"second consumer", compile(t, `a = readFile("a")
m = a.map(x => x * 2)
a.writeFile("p")
m.writeFile("o")`), 0},
		{"other block", compile(t, `a = readFile("a")
i = 0
do {
  m = a.map(x => x * 2)
  i = i + 1
} while (i < 2)
m.writeFile("o")`), 0},
		{"native", compileProgram(t, native.Program()), 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := BuildPlan(c.g, 2)
			if err != nil {
				t.Fatal(err)
			}
			p.InsertCombiners()
			ops, edges := len(p.Ops), p.BuildChains()
			stages := 0
			for i, op := range p.Ops {
				if op.ID != i {
					t.Errorf("op %s has ID %d at index %d", op.Instr.Var, op.ID, i)
				}
				stages += len(op.Stages)
				for _, st := range op.Stages {
					if p.ByVar[st.Instr.Var] != op {
						t.Errorf("ByVar[%s] is not the operator it was fused into", st.Instr.Var)
					}
				}
			}
			if stages != c.stages || len(p.Ops) != ops-stages {
				t.Errorf("%d stages fused, %d of %d operators left, want %d stages\n%s", stages, len(p.Ops), ops, c.stages, p)
			}
			if again := p.BuildChains(); again != edges {
				t.Errorf("BuildChains again: %d edges, first %d", again, edges)
			}
			total := 0
			for _, op := range p.Ops {
				total += op.Par
			}
			sum := 0
			for _, n := range p.InstancesPerBlock {
				sum += n
			}
			if sum != total {
				t.Errorf("InstancesPerBlock sums to %d, the plan has %d instances", sum, total)
			}
		})
	}
}

func compileProgram(t *testing.T, prog *lang.Program) *ir.Graph {
	t.Helper()
	if _, err := lang.Check(prog); err != nil {
		t.Fatal(err)
	}
	g, err := ir.CompileToSSA(prog)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
