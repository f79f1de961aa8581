package core

import (
	"fmt"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// TestInsertCombinersPlanShape checks the rewrite on a program with one
// edge of every rewritten kind: combiners appear in the producer's block
// with the producer's parallelism, fed by a forward edge, with the
// original partitioning kept on the shrunk edge into the finalizer.
func TestInsertCombinersPlanShape(t *testing.T) {
	g := compile(t, `
a = readFile("in")
r = a.reduceByKey((x, y) => x + y)
d = a.distinct()
s = only(a.map(t => t.1).sum())
c = only(a.count())
m = a.reduce((x, y) => (min(x.0, y.0), x.1 + y.1))
r.writeFile("r")
d.writeFile("d")
m.writeFile("m")
newBag(s + c).writeFile("sc")
`)
	plan, err := BuildPlan(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	opsBefore := len(plan.Ops)
	instancesBefore := make(map[ir.BlockID]int)
	for b, n := range plan.InstancesPerBlock {
		instancesBefore[b] = n
	}
	n := plan.InsertCombiners()
	if n != 5 {
		t.Fatalf("InsertCombiners inserted %d combiners, want 5 (reduceByKey, distinct, sum, count, reduce)\n%s", n, plan)
	}
	if len(plan.Ops) != opsBefore+n {
		t.Errorf("plan has %d ops, want %d", len(plan.Ops), opsBefore+n)
	}
	added := 0
	for _, op := range plan.Ops {
		if op.Synth == SynthNone {
			continue
		}
		prod := op.Inputs[0].Producer
		if op.Block != prod.Block || op.Par != prod.Par {
			t.Errorf("combiner %s: block b%d par %d, want producer's b%d par %d",
				op.Instr.Var, op.Block, op.Par, prod.Block, prod.Par)
		}
		if op.Inputs[0].Part != dataflow.PartForward {
			t.Errorf("combiner %s: input partitioning %s, want forward", op.Instr.Var, op.Inputs[0].Part)
		}
		added += op.Par
	}
	for b, before := range instancesBefore {
		got, want := plan.InstancesPerBlock[b], before
		for _, op := range plan.Ops {
			if op.Synth != SynthNone && op.Block == b {
				want += op.Par
			}
		}
		if got != want {
			t.Errorf("InstancesPerBlock[b%d] = %d, want %d", b, got, want)
		}
	}
	if added == 0 {
		t.Error("no combiner instances counted")
	}
	// The finalizers keep their partitionings and are marked combined.
	for _, v := range []struct {
		name string
		part dataflow.Partitioning
	}{{"r.1", dataflow.PartShuffleKey}, {"d.1", dataflow.PartShuffleVal}} {
		op := plan.ByVar[v.name]
		if op.Inputs[0].Part != v.part {
			t.Errorf("%s: input partitioning %s, want %s", v.name, op.Inputs[0].Part, v.part)
		}
		if !op.Inputs[0].Combined || op.Inputs[0].Producer.Synth == SynthNone {
			t.Errorf("%s: input not rewired to a combiner: %+v", v.name, op.Inputs[0])
		}
	}
	// The rewrite is idempotent.
	if again := plan.InsertCombiners(); again != 0 {
		t.Errorf("second InsertCombiners inserted %d, want 0", again)
	}
}

// TestInsertCombinersSkipsSingletonEdges: scalar arithmetic (Par=1
// everywhere) and forward-fed aggregates get no combiners.
func TestInsertCombinersSkipsSingletonEdges(t *testing.T) {
	g := compile(t, `
x = 3
y = only(newBag(x).map(t => t * 2).sum())
newBag(y).writeFile("out")
`)
	plan, err := BuildPlan(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := plan.InsertCombiners(); n != 0 {
		t.Errorf("InsertCombiners inserted %d on an all-singleton plan, want 0\n%s", n, plan)
	}
}

// TestCombinersShrinkShuffles runs a heavily duplicated reduceByKey on a
// multi-machine cluster with combiners on and off and checks that (a) the
// outputs agree with ground truth either way, (b) the combiners measurably
// aggregated (CombineOut well below CombineIn), and (c) far fewer remote
// bytes crossed machines.
func TestCombinersShrinkShuffles(t *testing.T) {
	src := `
visits = readFile("visits")
counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b)
counts.writeFile("counts")
`
	g := compile(t, src)
	visits := make([]val.Value, 4000)
	for i := range visits {
		visits[i] = val.Str(fmt.Sprintf("page%d", i%8))
	}
	results := make(map[bool]*Result)
	for _, combine := range []bool{false, true} {
		cl, err := cluster.New(cluster.FastConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		st := store.NewMemStore()
		if err := st.WriteDataset("visits", visits); err != nil {
			cl.Close()
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Combiners = combine
		res, err := Execute(g, st, cl, opts)
		cl.Close()
		if err != nil {
			t.Fatalf("Execute(combine=%t): %v", combine, err)
		}
		out, err := st.ReadDataset("counts")
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 8 {
			t.Errorf("combine=%t: %d distinct keys, want 8", combine, len(out))
		}
		results[combine] = res
	}
	off, on := results[false], results[true]
	if off.CombineIn != 0 || off.CombineOut != 0 {
		t.Errorf("combiners off but counters ran: in=%d out=%d", off.CombineIn, off.CombineOut)
	}
	if on.CombineIn < 4000 {
		t.Errorf("CombineIn = %d, want >= 4000 (every raw element through the combiner)", on.CombineIn)
	}
	if on.CombineOut*10 > on.CombineIn {
		t.Errorf("CombineOut = %d vs CombineIn = %d: expected >=10x local aggregation on 8 keys", on.CombineOut, on.CombineIn)
	}
	// The combiner's forward edge is instance-local, so the remote traffic
	// is what shrinks: the shuffle now carries per-instance partials.
	if on.Job.BytesSent*2 > off.Job.BytesSent {
		t.Errorf("remote bytes with combiners = %d, want <= half of %d (without)", on.Job.BytesSent, off.Job.BytesSent)
	}
	if on.Job.BytesSent == 0 {
		t.Error("remote bytes with combiners = 0; expected a real multi-machine shuffle")
	}
}
