package core_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// hyperparamSrc is examples/hyperparam's script: a grid search whose outer
// loop over rates runs an inner gradient-descent loop and keeps the best
// rate with an if.
func hyperparamSrc(rates, steps int) string {
	return fmt.Sprintf(`xy = readFile("xy")
n = only(xy.count())
bestLoss = 1000000000.0
bestRate = 0.0
bestW = 0.0
r = 1
while (r <= %d) {
  rate = r * 0.03
  w = 0.0
  step = 1
  while (step <= %d) {
    grads = xy.cross(newBag(w)).map(t => 2.0 * t.0.0 * (t.1 * t.0.0 - t.0.1))
    g = only(grads.sum())
    w = w - rate * g / n
    step = step + 1
  }
  losses = xy.cross(newBag(w)).map(t => (t.1 * t.0.0 - t.0.1) * (t.1 * t.0.0 - t.0.1))
  loss = only(losses.sum()) / n
  if (loss < bestLoss) {
    bestLoss = loss
    bestRate = rate
    bestW = w
  }
  r = r + 1
}
newBag((bestRate, bestW, bestLoss)).writeFile("best")
`, rates, steps)
}

// condReadAsData's condition variable is also read as data, by a cross
// that broadcasts it, so an edge leaves the loop counter's chain.
const condReadAsData = `xs = readFile("xs")
x = 0
do {
  x = x + 1
  c = x < 3
  xs.cross(newBag(c)).writeFile("c")
} while (c)
`

// condWrittenInChain's condition variable is read as data too, but by a
// writeFile that chains to it: the chain stays closed.
const condWrittenInChain = `x = 0
do {
  x = x + 1
  c = x < 3
  newBag(c).writeFile("c")
} while (c)
`

// TestConditionChainRule pins which conditions BuildChains chains: each
// program's conditions, named by the variable of their first input, chain
// exactly when their chain is closed. A chained condition has all its
// forward inputs chained, no edge out of a condition chains, and no phi
// back edge chains. A second BuildChains reproduces the plan.
func TestConditionChainRule(t *testing.T) {
	for _, c := range []struct {
		name string
		src  string
		want map[string]bool // condition input variable -> chained
	}{
		{"steploop", workload.StepLoopScript(5), map[string]bool{"x": true}},
		{"connected", workload.ConnectedScript, map[string]bool{"n": true}},
		{"hyperparam", hyperparamSrc(2, 3), map[string]bool{"step": true, "r": false, "loss": false}},
		{"visitcount_bulk", workload.VisitCountSpec{Days: 6, WithDiff: true, WithPageTypes: true}.Script(), map[string]bool{"day": false}},
		{"visitcount_diff", workload.VisitCountSpec{Days: 6, WithDiff: true}.Script(), map[string]bool{"day": false}},
		{"visitcount", workload.VisitCountSpec{Days: 6}.Script(), map[string]bool{"day": false}},
		{"cond_read_as_data", condReadAsData, map[string]bool{"c": false}},
		{"cond_written_in_chain", condWrittenInChain, map[string]bool{"c": true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := core.Compile(compileSrc(t, c.src), 4, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]bool)
			for _, op := range p.Ops {
				for _, in := range op.Inputs {
					if in.Chained && in.Producer.IsCondition {
						t.Errorf("edge %s -> %s out of a condition is chained", in.Producer.Instr.Var, op.Instr.Var)
					}
					if in.Chained && op.Instr.Kind == ir.OpPhi && in.Producer.ID > op.ID {
						t.Errorf("phi back edge %s -> %s is chained", in.Producer.Instr.Var, op.Instr.Var)
					}
				}
				if !op.IsCondition {
					continue
				}
				v, _, _ := strings.Cut(op.Inputs[0].Producer.Instr.Var, ".")
				want, ok := c.want[v]
				if !ok {
					t.Errorf("condition %s reads %s, which the table does not name", op.Instr.Var, v)
					continue
				}
				seen[v] = true
				if got := op.Chain != 0; got != want {
					t.Errorf("condition %s on %s: chained %t, want %t", op.Instr.Var, v, got, want)
				}
				for _, in := range op.Inputs {
					if in.Chained != (want && in.Part == dataflow.PartForward) {
						t.Errorf("condition %s: %s input from %s chained %t", op.Instr.Var, in.Part, in.Producer.Instr.Var, in.Chained)
					}
				}
			}
			for v := range c.want {
				if !seen[v] {
					t.Errorf("no condition reads %s", v)
				}
			}
			if t.Failed() {
				t.Logf("plan:\n%s", p)
			}
			before, n := p.String(), p.ChainedEdges()
			if m := p.BuildChains(); m != n || p.String() != before {
				t.Errorf("BuildChains again: %d edges, plan\n%s\nwant %d edges, plan\n%s", m, p, n, before)
			}
		})
	}
}

// TestStepLoopWakeUps counts the goroutine parks of the step loop at 20 000
// iterations — 40 003 steps, one per path position — on a four-machine
// simulated cluster: every blocking mailbox or link Take is one park and one
// later wake. The loop's condition chains with the rest of the
// loop, so its decision, the path extension and the broadcast all run on
// the chain driver's goroutine, and a step takes no hop at all. With the
// condition on a mailbox of its own, every step parked once. The Visit
// Count plans, whose day counter also feeds readFile, keep both conditions
// unchained.
func TestStepLoopWakeUps(t *testing.T) {
	const steps = 20000
	var takes atomic.Int64
	dataflow.SetWaitHook(func() { takes.Add(1) })
	defer dataflow.SetWaitHook(nil)
	cl, err := cluster.New(cluster.FastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.StepMitos(cl, store.NewMemStore(), steps, core.DefaultOptions())
	cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	n := takes.Load()
	t.Logf("%d blocking takes over %d steps", n, res.Steps)
	if perStep := float64(n) / float64(res.Steps); perStep > 0.01 {
		t.Errorf("%.3f blocking takes per step, want at most 0.01", perStep)
	}

	for _, spec := range []workload.VisitCountSpec{
		{Days: 6, WithDiff: true, WithPageTypes: true},
		{Days: 6, WithDiff: true},
	} {
		g, err := spec.CompileMitos()
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Compile(g, 4, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		conds := 0
		for _, op := range p.Ops {
			if op.IsCondition {
				conds++
				if op.Chain != 0 {
					t.Errorf("%+v: condition %s is in chain %d, want unchained\n%s", spec, op.Instr.Var, op.Chain, p)
				}
			}
		}
		if conds != 2 {
			t.Errorf("%+v: %d conditions, want 2\n%s", spec, conds, p)
		}
	}
}
