package core

import (
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// ccSrc is the connected-components delta iteration (the same shape
// examples/connected and the delta benchmark run; inlined because
// workload imports core).
const ccSrc = `
edges = readFile("edges")
nodes = readFile("nodes")
d = nodes.map(x => (x, x))
do {
  w = empty().deltaMerge(d, (a, b) => min(a, b))
  d = edges.join(w).map(t => (t.1, t.2))
  n = only(w.count())
} while (n > 0)
comp = w.solution()
comp.writeFile("components")
`

// ccStore seeds a path graph 0-1-2-...-(n-1): one component, labels
// converge to 0 after n-1 propagation steps.
func ccStore(t *testing.T, n int) *store.MemStore {
	t.Helper()
	st := store.NewMemStore()
	var nodes, edges []val.Value
	for i := 0; i < n; i++ {
		nodes = append(nodes, val.Int(int64(i)))
		if i > 0 {
			edges = append(edges,
				val.Pair(val.Int(int64(i-1)), val.Int(int64(i))),
				val.Pair(val.Int(int64(i)), val.Int(int64(i-1))))
		}
	}
	if err := st.WriteDataset("nodes", nodes); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteDataset("edges", edges); err != nil {
		t.Fatal(err)
	}
	return st
}

// findOp returns the unique non-synthetic plan op of the given kind.
func findOp(t *testing.T, p *Plan, kind ir.OpKind) *PlanOp {
	t.Helper()
	var found *PlanOp
	for _, op := range p.Ops {
		if op.Instr.Kind == kind && op.Synth == SynthNone {
			if found != nil {
				t.Fatalf("plan has several %s ops", kind)
			}
			found = op
		}
	}
	if found == nil {
		t.Fatalf("plan has no %s op:\n%s", kind, p)
	}
	return found
}

// TestDeltaPlanShape pins the planner's treatment of the delta operators:
// parallel deltaMerge with both inputs key-shuffled, the solution read
// rewired to the deltaMerge as a forward edge at the producer's
// parallelism, and no journal when the solution set is only read after
// the loop.
func TestDeltaPlanShape(t *testing.T) {
	g := compile(t, ccSrc)
	p, err := BuildPlan(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	dm := findOp(t, p, ir.OpDeltaMerge)
	if dm.Par != 4 {
		t.Errorf("deltaMerge Par = %d, want 4", dm.Par)
	}
	for i, in := range dm.Inputs {
		if in.Part != dataflow.PartShuffleKey {
			t.Errorf("deltaMerge input %d partitioned %s, want shuffle-key", i, in.Part)
		}
	}
	sol := findOp(t, p, ir.OpSolution)
	if sol.Inputs[0].Producer != dm {
		t.Errorf("solution input rewired to %s, want the deltaMerge", sol.Inputs[0].Producer.Instr.Var)
	}
	if sol.Inputs[0].Part != dataflow.PartForward {
		t.Errorf("solution input partitioned %s, want forward (co-located state read)", sol.Inputs[0].Part)
	}
	if sol.Par != dm.Par {
		t.Errorf("solution Par = %d, want the deltaMerge's %d", sol.Par, dm.Par)
	}
	if dm.StateJournal {
		t.Error("StateJournal set for an after-loop solution read (no overlap hazard)")
	}
}

// TestDeltaPlanJournal pins the journal-hazard analysis: a solution read
// inside the deltaMerge's own loop can race ahead of or behind the store
// under pipelining, so the store must journal its steps.
func TestDeltaPlanJournal(t *testing.T) {
	src := `
data = readFile("in")
d = data
i = 0
do {
  w = empty().deltaMerge(d, (a, b) => min(a, b))
  s = w.solution()
  d = w.map(t => (t.0, t.1 + 1))
  i = i + 1
} while (i < 3)
s.writeFile("out")
`
	g := compile(t, src)
	p, err := BuildPlan(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	dm := findOp(t, p, ir.OpDeltaMerge)
	if !dm.StateJournal {
		t.Error("StateJournal not set for an in-loop solution read")
	}
}

// TestInsertCombinersDeltaMerge pins the combiner rewrite on deltaMerge:
// the per-step delta (slot 1) gets a map-side combineByKey — the merge
// UDF is associative and commutative, the reduceByKey contract — while
// the once-crossing seed (slot 0) is left alone.
func TestInsertCombinersDeltaMerge(t *testing.T) {
	g := compile(t, ccSrc)
	p, err := BuildPlan(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.InsertCombiners()
	dm := findOp(t, p, ir.OpDeltaMerge)
	if !dm.Inputs[1].Combined {
		t.Errorf("deltaMerge delta slot not combined:\n%s", p)
	}
	if dm.Inputs[1].Producer.Synth != SynthCombineByKey {
		t.Errorf("delta slot producer synth = %s, want combineByKey", dm.Inputs[1].Producer.Synth)
	}
	if dm.Inputs[0].Combined {
		t.Errorf("deltaMerge seed slot combined (crosses once, not worth one):\n%s", p)
	}
}

// TestBuildChainsDeltaSolution pins the chaining pass on the delta
// operators: the deltaMerge->solution forward edge fuses (equal
// parallelism, forward partitioning, topological ID order), while the
// key-shuffled delta inputs stay chain boundaries.
func TestBuildChainsDeltaSolution(t *testing.T) {
	g := compile(t, ccSrc)
	p, err := BuildPlan(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.InsertCombiners()
	p.BuildChains()
	dm := findOp(t, p, ir.OpDeltaMerge)
	sol := findOp(t, p, ir.OpSolution)
	if !sol.Inputs[0].Chained {
		t.Errorf("deltaMerge->solution forward edge not chained:\n%s", p)
	}
	for i, in := range dm.Inputs {
		if in.Chained {
			t.Errorf("deltaMerge input %d chained over a key shuffle:\n%s", i, p)
		}
	}
}

// TestHoistingDeltaBackEdge verifies loop-invariant hoisting fires on the
// join inside a delta loop: the edge relation is the build side, so each
// join instance builds its hash table once for the whole iteration, not
// once per workset step.
func TestHoistingDeltaBackEdge(t *testing.T) {
	const machines = 3
	run := func(hoisting bool) *Result {
		g := compile(t, ccSrc)
		cl, err := cluster.New(cluster.FastConfig(machines))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		res, err := Execute(g, ccStore(t, 8), cl, Options{Pipelining: true, Hoisting: hoisting, Delta: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hoisted := run(true)
	if want := int64(machines); hoisted.JoinBuilds != want {
		t.Errorf("JoinBuilds = %d with hoisting, want %d (one build per join instance)", hoisted.JoinBuilds, want)
	}
	unhoisted := run(false)
	if unhoisted.JoinBuilds <= hoisted.JoinBuilds {
		t.Errorf("JoinBuilds = %d without hoisting, want > %d (rebuild per step)", unhoisted.JoinBuilds, hoisted.JoinBuilds)
	}
}

// TestDeltaConnectedComponents runs the delta iteration end to end on a
// path graph at several cluster sizes, in both delta modes: identical
// solution sets (every node labeled 0), equal delta flow, and the off
// mode's full per-step re-derivation visible in the touched counter.
func TestDeltaConnectedComponents(t *testing.T) {
	const n = 12
	for _, machines := range []int{1, 3, 4} {
		var results [2]*Result
		for i, delta := range []bool{false, true} {
			cl, err := cluster.New(cluster.FastConfig(machines))
			if err != nil {
				t.Fatal(err)
			}
			g := compile(t, ccSrc)
			st := ccStore(t, n)
			opts := DefaultOptions()
			opts.Delta = delta
			res, err := Execute(g, st, cl, opts)
			cl.Close()
			if err != nil {
				t.Fatalf("machines=%d delta=%t: %v", machines, delta, err)
			}
			comp, err := st.ReadDataset("components")
			if err != nil {
				t.Fatal(err)
			}
			if len(comp) != n {
				t.Fatalf("machines=%d delta=%t: %d labeled nodes, want %d", machines, delta, len(comp), n)
			}
			for _, p := range comp {
				if p.Field(1).AsInt() != 0 {
					t.Errorf("machines=%d delta=%t: node %d labeled %d, want 0",
						machines, delta, p.Field(0).AsInt(), p.Field(1).AsInt())
				}
			}
			results[i] = res
		}
		off, on := results[0], results[1]
		if off.DeltaIn != on.DeltaIn || off.DeltaChanged != on.DeltaChanged {
			t.Errorf("machines=%d: delta flow differs off/on: in %d/%d changed %d/%d",
				machines, off.DeltaIn, on.DeltaIn, off.DeltaChanged, on.DeltaChanged)
		}
		if off.DeltaTouched <= on.DeltaTouched {
			t.Errorf("machines=%d: off mode touched %d <= on mode's %d (no full re-derivation?)",
				machines, off.DeltaTouched, on.DeltaTouched)
		}
		if on.DeltaElements != n {
			t.Errorf("machines=%d: solution holds %d elements, want %d", machines, on.DeltaElements, n)
		}
		if len(on.DeltaSteps) == 0 || on.DeltaSteps[0].In == 0 {
			t.Errorf("machines=%d: empty per-step series: %+v", machines, on.DeltaSteps)
		}
	}
}

// TestSolutionReadAcrossLoops checks a second loop reading the solution
// set a first loop built: every read sees the final converged state, and
// the journal stays off (the store no longer advances).
func TestSolutionReadAcrossLoops(t *testing.T) {
	src := `
data = readFile("in")
d = data
i = 0
do {
  w = empty().deltaMerge(d, (a, b) => a + b)
  d = w.map(t => (t.0, t.1 + 1))
  i = i + 1
} while (i < 3)
j = 0
total = 0
do {
  s = w.solution()
  total = total + only(s.count())
  j = j + 1
} while (j < 4)
newBag(total).writeFile("total")
`
	g := compile(t, src)
	p, err := BuildPlan(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dm := findOp(t, p, ir.OpDeltaMerge); dm.StateJournal {
		t.Error("StateJournal set although the reading loop never advances the store")
	}
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := store.NewMemStore()
	if err := st.WriteDataset("in", []val.Value{
		val.Pair(val.Str("a"), val.Int(1)),
		val.Pair(val.Str("b"), val.Int(2)),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(g, st, cl, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	out, err := st.ReadDataset("total")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].AsInt() != 8 {
		t.Errorf("total = %v, want [8] (4 reads x 2 keys)", out)
	}
}
