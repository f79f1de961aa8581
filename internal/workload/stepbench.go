package workload

import (
	"fmt"
	"time"

	"github.com/mitos-project/mitos/internal/baseline"
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/naiadlike"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/tflike"
	"github.com/mitos-project/mitos/internal/val"
)

// This file implements the iteration-step-overhead microbenchmark of
// Fig. 7: a simple loop with minimal data processing per step, run on all
// six systems. The benchmark harness divides the measured duration by the
// step count.

// stepIncrement is the microbenchmark loop's step, in the text
// StepLoopScript writes; the baselines run it as the lambda x => x + 1.
const stepIncrement = "x + 1"

// StepLoopScript is the Mitos microbenchmark program.
func StepLoopScript(steps int) string {
	return fmt.Sprintf(`x = 0
while (x < %d) {
  x = %s
}
newBag(x).writeFile("out")
`, steps, stepIncrement)
}

// StepMitos runs the microbenchmark loop on the Mitos runtime and returns
// the execution result (the chaining ablation reads its engine counters).
func StepMitos(cl *cluster.Cluster, st store.Store, steps int, opts core.Options) (*core.Result, error) {
	prog, err := lang.Parse(StepLoopScript(steps))
	if err != nil {
		return nil, err
	}
	if _, err := lang.Check(prog); err != nil {
		return nil, err
	}
	g, err := ir.CompileToSSA(prog)
	if err != nil {
		return nil, err
	}
	return core.Execute(g, st, cl, opts)
}

// increment compiles the loop's step as a lambda, once per run.
func increment() *lang.UDF { return mustLambda("x => " + stepIncrement) }

// stepJobs launches one tiny job per iteration step, each on a session of
// its own.
func stepJobs(cl *cluster.Cluster, st store.Store, steps int, open func(*cluster.Cluster, store.Store) *baseline.Session) error {
	inc := increment()
	for i := 0; i < steps; i++ {
		n, err := open(cl, st).FromSlice([]val.Value{val.Int(int64(i))}).Map(inc).Count()
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("workload: step %d count = %d", i, n)
		}
	}
	return nil
}

// StepSpark launches one job per step from a driver loop. A Spark session
// keeps nothing between actions, so one session per step is the same
// program as one for the whole loop.
func StepSpark(cl *cluster.Cluster, st store.Store, steps int) error {
	return stepJobs(cl, st, steps, baseline.Spark)
}

// StepFlinkSeparateJobs launches one Flink session (= one job) per step.
func StepFlinkSeparateJobs(cl *cluster.Cluster, st store.Store, steps int) error {
	return stepJobs(cl, st, steps, baseline.Flink)
}

// StepFlinkNative runs the loop as one native iteration, each superstep
// charged penaltyPerOp per operator of the body.
func StepFlinkNative(cl *cluster.Cluster, st store.Store, steps int, penaltyPerOp time.Duration) error {
	inc := increment()
	sess := baseline.Flink(cl, st)
	sess.PenaltyPerOp = penaltyPerOp
	initial := sess.FromSlice([]val.Value{val.Int(0)})
	out, err := sess.Iterate(initial, steps, func(step int, in *baseline.Dataset) (*baseline.Dataset, error) {
		return in.Map(inc), nil
	})
	if err != nil {
		return err
	}
	elems, err := out.Collect()
	if err != nil {
		return err
	}
	if len(elems) != 1 || elems[0].AsInt() != int64(steps) {
		return fmt.Errorf("workload: flink native loop result %v", elems)
	}
	return nil
}

// StepNaiad runs the loop on the timely-style comparator.
func StepNaiad(cl *cluster.Cluster, steps int) error {
	counters := make([]int64, cl.Machines())
	_, err := naiadlike.Run(cl, steps, func(worker, step int) {
		counters[worker]++
	})
	if err != nil {
		return err
	}
	for w, c := range counters {
		if c != int64(steps) {
			return fmt.Errorf("workload: naiad worker %d ran %d steps, want %d", w, c, steps)
		}
	}
	return nil
}

// StepTF runs the loop on the switch/merge comparator.
func StepTF(cl *cluster.Cluster, steps int) error {
	counters := make([]int64, cl.Machines())
	loop := tflike.NewWhileLoop(cl,
		func(t tflike.Token) bool { return t.Step < steps },
		func(worker int, t tflike.Token) { counters[worker]++ },
	)
	ran, err := loop.Run()
	if err != nil {
		return err
	}
	if ran != steps {
		return fmt.Errorf("workload: tf loop ran %d steps, want %d", ran, steps)
	}
	return nil
}
