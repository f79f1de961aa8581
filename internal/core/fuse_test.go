package core_test

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/netcluster"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/testprog"
	"github.com/mitos-project/mitos/internal/val"
	"github.com/mitos-project/mitos/internal/workload"
)

// visitCountBulkPlan is Plan.String of the visitcount_bulk benchmark
// script at parallelism 4 with every option on. The join carries three
// stages: the filter and the projecting map read the scratch tuple, and the
// pair-building map lends its pair to the chained reduceByKey. The join's
// output sits by key, t => t.0 moves it to by value and x => (x, 1) back to
// by key, so counts.1 reads it over a forward keyed edge with no combiner in
// front. The second join reads counts.1 and the loop-carried
// yesterdayCounts.2 (at the loop body's parallelism, not the empty entry's)
// in place too, but from another block, so neither edge chains, and neither
// does the copy that hands counts.1 to the next day. The readFile's (x, 1)
// crosses a shuffle, which encodes or copies it as it is emitted, so it
// lends too, and so does counts.1, whose readers all sit behind batching
// edges.
const visitCountBulkPlan = `op0 b0 par1 yesterdayCounts.1 = empty()
op1 b0 par1 $t2.1 = singleton("pageTypes")
op2 b0 par4 pageTypes.1 = readFile($t2.1) [in0<-op1 broadcast]
op3 b0 par1 day.1 = singleton(1) chain1
op4 b1 par4 yesterdayCounts.2 = phi(yesterdayCounts.1, yesterdayCounts.3) [in0<-op0 shuffleVal] [in1<-op15 forward]
op5 b1 par1 day.2 = phi(day.1, day.3) chain1 [in0<-op3 forward chained] [in1<-op16 forward]
op6 b1 par1 $t5.1 = combine(day.2) [p0 => "pageVisitLog" + p0] chain1 [in0<-op5 forward chained]
op7 b1 par4 rawVisits.1 = readFile($t5.1) [in0<-op6 broadcast]
    stage $t8.1 = map(rawVisits.1) [x => (x, 1)] lends
op8 b1 par4 tagged.1 = join(pageTypes.1, $t8.1) chain2 [in0<-op2 shuffleKey] [in1<-op7 shuffleKey]
    stage $t9.1 = filter(tagged.1) [t => t.1 == "article"] on scratch
    stage visits.1 = map($t9.1) [t => t.0] on scratch
    stage $t11.1 = map(visits.1) [x => (x, 1)] lends
op9 b1 par4 counts.1 = reduceByKey($t11.1) [(a, b) => a + b] chain2 [in0<-op8 forward(keyed) chained] lends
op10 b1 par1 cond $t13.1 = combine(day.2) [p0 => p0 != 1] [in0<-op5 forward]
op11 b3 par4 $t14.1 = join(counts.1, yesterdayCounts.2) chain3 [in0<-op9 forward(keyed)] [in1<-op4 forward(keyed)]
    stage diffs.1 = map($t14.1) [t => abs(t.1 - t.2)] on scratch
op12 b3 par1 $t16.1 = sum(diffs.1) chain1 [in0<-op18 gather combined]
op13 b3 par1 $t17.1 = combine(day.2) [p0 => "diff" + p0] chain1 [in0<-op5 forward chained]
op14 b3 par1 $w18.1 = writeFile($t16.1, $t17.1) chain1 [in0<-op12 forward chained] [in1<-op13 forward chained]
op15 b4 par4 yesterdayCounts.3 = copy(counts.1) [in0<-op9 forward]
op16 b4 par1 day.3 = combine(day.2) [p0 => p0 + 1] chain1 [in0<-op5 forward chained]
op17 b4 par1 cond $t20.1 = combine(day.3) [p0 => p0 <= 6] [in0<-op16 forward]
op18 b3 par4 partialSum $t16.1.combine = sum(diffs.1) chain3 [in0<-op11 forward chained]
`

// TestFusedPlanGolden pins the fused plan of visitcount_bulk, as Plan.String
// prints it, and checks that the dot rendering lists the same stages.
func TestFusedPlanGolden(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 6, VisitsPerDay: 25000, Pages: 2500, WithDiff: true, WithPageTypes: true}
	g, err := spec.CompileMitos()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(g, 4, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != visitCountBulkPlan {
		t.Errorf("plan:\n%s\nwant:\n%s", got, visitCountBulkPlan)
	}
	dot := p.Dot()
	for _, want := range []string{`+ $t9.1 filter (scratch)`, `+ visits.1 map (scratch)`, `+ $t11.1 map (lends)"`, `+ diffs.1 map (scratch)`, `+ $t8.1 map (lends)"`, `counts.1\\nreduceByKey par=4 (lends)\\nchain`, `n8 -> n9 [label="0:forward(keyed) chained"`, `n4 -> n11 [label="1:forward(keyed)", style=dashed]`} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output lacks %q:\n%s", want, dot)
		}
	}
}

// wholeParamScript embeds or keeps a join's, a cross's and a group output's
// tuple whole after scratch stages and projects it in between, so a stage
// wrongly marked as running on scratch hands a consumer the scratch tuple,
// which the poison hook then overwrites.
const wholeParamScript = `a = readFile("a")
b = readFile("b")
j = a.join(b).map(t => (t, 1))
j.writeFile("j")
k = b.join(a).filter(t => t.1 > 3).map(t => (t.0, t))
k.writeFile("k")
f = a.join(a).filter(t => t.2 < 40)
f.writeFile("f")
c = a.cross(newBag(2)).filter(t => t.1 > 0).map(t => cond(t.0.1 > 10, t, (t.0, 0)))
c.writeFile("c")
r = b.reduceByKey((x, y) => x + y).map(t => (t, t.1))
r.writeFile("r")
`

func wholeParamInputs(st store.Store) error {
	var a, b []val.Value
	for i := 0; i < 40; i++ {
		a = append(a, val.Pair(val.Int(int64(i%7)), val.Int(int64(i))))
		b = append(b, val.Pair(val.Int(int64(i%5)), val.Int(int64(3*i%11))))
	}
	if err := st.WriteDataset("a", a); err != nil {
		return err
	}
	return st.WriteDataset("b", b)
}

// lendScript feeds tuple-literal maps and group outputs to two groups of
// readers. Readers that read in place or sit behind a batching edge, so the
// producer lends: the key combiners of sSum (a map of its own, on a read
// shared with other maps) and eSum (a stage of its readFile), a map with a
// folding reader and a gathered one (two), the loop body fused into the phi,
// read over the back edge and by the gathered writeFile (p.3), and every
// group output, shuffled to its reduceByKey or gathered to its writeFile.
// Readers that keep or pass on the element over a chained edge, so the map
// must carve: the local distinct combiner (dPairs), a chained writeFile (w),
// a map with a folding and a distinct reader (mixed), and a phi on the
// loop's entry edge (p.1). A wrong lend hands the keeping reader a tuple the
// poison hook then overwrites.
const lendScript = `s = readFile("s")
e = readFile("e")
sPairs = s.map(x => (x % 5, x))
sSum = sPairs.reduceByKey((x, y) => x + y)
sSum.writeFile("sSum")
ePairs = e.map(x => (x % 4, 1))
eSum = ePairs.reduceByKey((x, y) => x + y)
eSum.writeFile("eSum")
dPairs = s.map(x => (x % 4, 1))
d = dPairs.distinct()
d.writeFile("d")
w = newBag(7).map(x => (x, x + 1))
w.writeFile("w")
two = s.map(x => (x % 3, x))
twoSum = two.reduceByKey((x, y) => x + y)
twoSum.writeFile("twoSum")
two.writeFile("two")
mixed = s.map(x => (x % 2, x))
mixedSum = mixed.reduceByKey((x, y) => x + y)
mixedSum.writeFile("mixedSum")
mixedD = mixed.distinct()
mixedD.writeFile("mixedD")
p = s.map(x => (x, 0))
i = 0
do {
  p = p.map(t => (t.0, t.1 + 1))
  i = i + 1
} while (i < 3)
p.writeFile("p")
`

func lendInputs(st store.Store) error {
	var s, e []val.Value
	for i := 0; i < 60; i++ {
		s = append(s, val.Int(int64(i)))
		e = append(e, val.Int(int64(7*i%13)))
	}
	if err := st.WriteDataset("s", s); err != nil {
		return err
	}
	return st.WriteDataset("e", e)
}

// TestScratchPoison runs programs whose joins, crosses and group outputs
// feed fused stages, and whose tuple-literal maps feed readers that may or
// may not read in place, with a hook that overwrites the scratch tuple with
// a sentinel every time an element leaves it and the lent tuple every time
// an element has been handed over, and a second one that overwrites every
// batch-arena slot the engine recycles: a stage that kept the scratch tuple
// — a read set that called a whole use a projection — a reader that kept a
// lent pair, or a keyed reader that kept a pair of an arena it did not
// retain would hand its consumer the sentinel. Every run must write the bags
// of the sequential AST interpreter. The programs are the three
// TestStreamedShare data shapes, wholeParamScript and lendScript, on the sim
// and on two loopback TCP workers, and 60 generated programs on the sim.
func TestScratchPoison(t *testing.T) {
	var onScratch, lent atomic.Int64
	sentinel := val.Str("scratch poisoned")
	core.SetScratchHook(func(s []val.Value, isLent bool) {
		if isLent {
			lent.Add(1)
		} else {
			onScratch.Add(1)
		}
		for i := range s {
			s[i] = sentinel
		}
	})
	t.Cleanup(func() { core.SetScratchHook(nil) })
	var arenas [2]atomic.Int64 // recycled arenas that held a pair: sim, TCP
	dataflow.SetArenaHook(func(_ string, _, _ bool, slots []val.Value) {
		if len(slots) > 0 {
			arenas[tcpPoisonRun.Load()].Add(1)
		}
		for i := range slots {
			slots[i] = sentinel
		}
	})
	t.Cleanup(func() { dataflow.SetArenaHook(nil) })
	tcp, stop, err := netcluster.StartLocal(2, netcluster.CoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	spec := func(s workload.VisitCountSpec) (string, func(store.Store) error) {
		return s.Script(), s.Generate
	}
	bulkSrc, bulkGen := spec(workload.VisitCountSpec{Days: 3, VisitsPerDay: 2500, Pages: 250, WithDiff: true, WithPageTypes: true, Seed: 1})
	tcpSrc, tcpGen := spec(workload.VisitCountSpec{Days: 6, VisitsPerDay: 400, Pages: 100, WithDiff: true, Seed: 1})
	conn := workload.ConnectedSpec{PairChains: 300, LongChains: 4, LongLen: 16}
	for _, c := range []struct {
		name    string
		src     string
		gen     func(store.Store) error
		scratch bool
		// lent is every operator that lends, by the variable of the tuple
		// it lends: its last map's, or its own for a group output (nil:
		// none may); carved names variables whose operators must not.
		lent   []string
		carved []string
	}{
		{"visitcount_bulk", bulkSrc, bulkGen, true, []string{"$t8.1", "$t11.1", "counts.1"}, nil},
		{"connected_delta", workload.ConnectedScript, conn.Generate, true, []string{"d.3", "w.1.combine"}, []string{"d.1"}},
		{"visitcount_tcp", tcpSrc, tcpGen, true, []string{"$t5.1", "counts.1", "counts.1.combine"}, nil},
		{"whole_param", wholeParamScript, wholeParamInputs, true, []string{"j.1", "k.1", "r.1", "$t24.1.combine"}, nil},
		{"lend", lendScript, lendInputs, false,
			[]string{"sPairs.1", "sSum.1", "sSum.1.combine", "ePairs.1", "eSum.1", "eSum.1.combine", "two.1", "twoSum.1", "twoSum.1.combine", "mixedSum.1", "mixedSum.1.combine", "p.3"},
			[]string{"dPairs.1", "w.1", "mixed.1", "p.1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			scratchBefore, lentBefore := onScratch.Load(), lent.Load()
			plan := runAgainstAST(t, c.src, c.gen, 4)
			if c.scratch && onScratch.Load() == scratchBefore {
				t.Error("no element left the scratch tuple: the shape ran nothing on scratch")
			}
			if got := lent.Load() > lentBefore; got != (c.lent != nil) {
				t.Errorf("elements lent: %t, want %t\n%s", got, c.lent != nil, plan)
			}
			var lenders []string
			for _, op := range plan.Ops {
				if op.Lends {
					v := op.Instr.Var
					if n := len(op.Stages); n > 0 {
						v = op.Stages[n-1].Instr.Var
					}
					lenders = append(lenders, v)
				}
			}
			want := slices.Clone(c.lent)
			slices.Sort(lenders)
			slices.Sort(want)
			if !slices.Equal(lenders, want) {
				t.Errorf("operators lending %v, want %v\n%s", lenders, want, plan)
			}
			for _, v := range c.carved {
				if op := plan.ByVar[v]; op == nil || op.Lends {
					t.Errorf("the map of %s lends\n%s", v, plan)
				}
			}
			tcpPoisonRun.Store(1)
			defer tcpPoisonRun.Store(0)
			againstAST(t, c.src, c.gen, func(_ *ir.Graph, got *store.MemStore) error {
				_, err := tcp.Run(c.src, got, core.DefaultOptions())
				return err
			})
		})
	}
	for i, backend := range []string{"the sim", "tcp"} {
		if arenas[i].Load() == 0 {
			t.Errorf("no keyed reader on %s read a pair from a batch arena: the shapes poisoned none", backend)
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src, err := testprog.GenProgram(store.NewMemStore(), seed)
			if err != nil {
				t.Fatal(err)
			}
			gen := func(st store.Store) error { _, err := testprog.GenProgram(st, seed); return err }
			runAgainstAST(t, src, gen, 1+int(seed%4))
		})
	}
}

// runAgainstAST runs src with all options on over inputs from gen, on the
// sim at the given machine count, and fails unless every dataset it writes
// is the bag the sequential AST interpreter writes. It returns the plan that
// ran.
func runAgainstAST(t *testing.T, src string, gen func(store.Store) error, machines int) *core.Plan {
	t.Helper()
	var plan *core.Plan
	againstAST(t, src, gen, func(g *ir.Graph, got *store.MemStore) error {
		cl, err := cluster.New(cluster.FastConfig(machines))
		if err != nil {
			return err
		}
		defer cl.Close()
		if plan, err = core.Compile(g, machines, core.DefaultOptions()); err != nil {
			return err
		}
		_, err = core.ExecutePlan(plan, got, cl, core.DefaultOptions())
		return err
	})
	return plan
}

// tcpPoisonRun is 1 while TestScratchPoison runs a shape on TCP workers,
// for its arena hook to tell the backends apart.
var tcpPoisonRun atomic.Int32

// againstAST runs src over inputs from gen with run and fails unless every
// dataset it writes is the bag the sequential AST interpreter writes.
func againstAST(t *testing.T, src string, gen func(store.Store) error, run func(g *ir.Graph, got *store.MemStore) error) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err == nil {
		_, err = lang.Check(prog)
	}
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	truth, got := store.NewMemStore(), store.NewMemStore()
	if err := gen(truth); err != nil {
		t.Fatal(err)
	}
	if err := gen(got); err != nil {
		t.Fatal(err)
	}
	if err := ir.RunAST(prog, truth); err != nil {
		t.Fatalf("AST interpreter: %v", err)
	}
	g, err := ir.CompileToSSA(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(g, got); err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	for _, name := range truth.Names() {
		want, _ := truth.ReadDataset(name)
		have, err := got.ReadDataset(name)
		if err != nil || !bag.Equal(want, have) {
			t.Errorf("dataset %q is %v, want %v\n%s", name, bag.Sorted(have), bag.Sorted(want), src)
		}
	}
}

// TestFusedStageErrorNamesStage: an error raised inside a fused stage names
// the stage's own SSA variable, and the operator's error reads the same
// with chaining on, where the map is a stage of the join, and off, where it
// is an operator of its own. The engine prefixes the physical vertex that
// failed (dataflow: name[instance]:), which is the join once fused; the
// comparison starts after it.
func TestFusedStageErrorNamesStage(t *testing.T) {
	const src = `a = readFile("a")
b = readFile("b")
q = a.join(b).map(t => t.1 / (t.2 - t.2))
q.writeFile("q")
`
	g := compileSrc(t, src)
	run := func(chaining bool) (string, *core.Plan) {
		st := store.NewMemStore()
		if err := wholeParamInputs(st); err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Chaining = chaining
		plan, err := core.Compile(g, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.FastConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		_, err = core.ExecutePlan(plan, st, cl, opts)
		if err == nil {
			t.Fatalf("chaining=%t: division by zero did not fail the run", chaining)
		}
		msg := err.Error()
		return msg[strings.LastIndex(msg, "core: "):], plan
	}
	on, plan := run(true)
	off, _ := run(false)
	if op := plan.ByVar["q.1"]; op.Instr.Kind != ir.OpJoin || len(op.Stages) != 1 || op.Stages[0].Instr.Var != "q.1" {
		t.Fatalf("the map is not the join's stage:\n%s", plan)
	}
	if !strings.HasPrefix(on, "core: q.1: ") || !strings.Contains(on, "division by zero") {
		t.Errorf("fused stage error %q does not name q.1", on)
	}
	if on != off {
		t.Errorf("error with chaining on %q, off %q", on, off)
	}
}

func compileSrc(t *testing.T, src string) *ir.Graph {
	t.Helper()
	prog, err := lang.Parse(src)
	if err == nil {
		_, err = lang.Check(prog)
	}
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.CompileToSSA(prog)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
