package mitos

import (
	"fmt"
	"testing"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/workload"
)

// keyPlaceInputs writes "p", (int key, int) pairs over 40 keys, and "q",
// pairs whose keys are themselves pairs, so that Key(k) != k for a key k.
func keyPlaceInputs(st NamedStore) error {
	var p, q []Value
	for i := int64(0); i < 300; i++ {
		p = append(p, Pair(Int(i%40), Int(i%7)))
		q = append(q, Pair(Pair(Int(i%4), Int(i%13)), Int(i%5)))
	}
	if err := st.WriteDataset("p", p); err != nil {
		return err
	}
	return st.WriteDataset("q", q)
}

// keyPlaceCases are programs whose out.1 reduceByKey reads a map or a chain
// of maps of a keyed operator's output. The first four lambda shapes move
// the key, so out.1 must keep its key shuffle: a pass that forwarded any of
// them would hand the reduceByKey keys on the wrong instances, and its bags
// would differ from the sequential interpreter's. The others keep the
// output where a key shuffle would put it, through maps, a filter, a copy,
// a loop phi, a join and a deltaMerge, and out.1 reads it over a forward
// keyed edge.
var keyPlaceCases = []struct {
	name, src string
	forward   bool
}{
	{"swap", `r = readFile("p").reduceByKey((a, b) => a + b)
m = r.map(t => (t.1, t.0))
out = m.reduceByKey((a, b) => a + b)
out.writeFile("out")`, false},
	{"key_of_key", `r = readFile("q").reduceByKey((a, b) => a + b)
m = r.map(t => (t.0.0, t.1))
out = m.reduceByKey((a, b) => a + b)
out.writeFile("out")`, false},
	{"by_value_first", `r = readFile("q").reduceByKey((a, b) => a + b)
ks = r.map(t => t.0)
m = ks.map(x => (x.0, 1))
out = m.reduceByKey((a, b) => a + b)
out.writeFile("out")`, false},
	{"tuple_keys", `r = readFile("q").reduceByKey((a, b) => a + b)
m = r.map(t => t.0)
out = m.reduceByKey((a, b) => a + b)
out.writeFile("out")`, false},
	{"filter_and_map", `r = readFile("p").reduceByKey((a, b) => a + b)
m = r.filter(t => t.1 % 3 != 1).map(t => (t.0, t.1 * 2, 1)).map(t => (fst(t), t.2))
out = m.reduceByKey((a, b) => a + b)
out.writeFile("out")`, true},
	{"key_and_back", `r = readFile("q").reduceByKey((a, b) => a + b)
m = r.map(t => t.0).map(x => (x, 1))
out = m.reduceByKey((a, b) => a + b)
out.writeFile("out")`, true},
	{"distinct", `m = readFile("p").distinct().map(x => (x, 1))
out = m.reduceByKey((a, b) => a + b)
out.writeFile("out")`, true},
	{"copy_phi_join", `acc = empty()
i = 0
while (i < 3) {
  r = readFile("p").map(t => (t.0, t.1 + 1)).reduceByKey((a, b) => a + b)
  acc = r
  i = i + 1
}
j = acc.join(readFile("p").reduceByKey((a, b) => max(a, b))).map(t => (t.0, t.1 - t.2))
out = j.reduceByKey((a, b) => a + b)
out.writeFile("out")`, true},
	{"delta", `d = readFile("p").reduceByKey((a, b) => min(a, b))
do {
  w = empty().deltaMerge(d, (a, b) => min(a, b))
  d = w.map(t => (t.0, t.1 - 1)).filter(t => t.1 > 0)
} while (only(w.count()) > 0)
m = w.solution().filter(t => t.1 > 2)
out = m.reduceByKey((a, b) => a + b)
out.writeFile("out")`, true},
}

// TestKeyPlacement runs every keyPlaceCases program on the sim at 4
// machines and on 2 loopback TCP workers, at the workers' parallelism and
// at parallelism 3, checks out.1's input partitioning in each plan, and
// compares every written bag with the sequential interpreter's.
func TestKeyPlacement(t *testing.T) {
	coord, cleanup, err := StartLocalTCP(2, TCPCoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	for _, c := range keyPlaceCases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Compile(c.src)
			if err != nil {
				t.Fatal(err)
			}
			want := NewMemStore()
			if err := keyPlaceInputs(want); err != nil {
				t.Fatal(err)
			}
			if err := p.RunSequential(want); err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				backend       string
				machines, par int
			}{{"sim", 4, 0}, {"tcp", 2, 0}, {"tcp", 2, 3}} {
				name := fmt.Sprintf("%s/machines=%d/par=%d", r.backend, r.machines, r.par)
				cfg := Config{Machines: r.machines, Parallelism: r.par}
				plan, err := p.plan(r.machines, cfg.options())
				if err != nil {
					t.Fatal(err)
				}
				if got := plan.ByVar["out.1"].Inputs[0].Part == dataflow.PartForward; got != c.forward {
					t.Errorf("%s: out.1 reads over a forward edge: %t, want %t\n%s", name, got, c.forward, plan)
				}
				st := NewMemStore()
				if err := keyPlaceInputs(st); err != nil {
					t.Fatal(err)
				}
				if r.backend == "sim" {
					_, err = p.Run(st, cfg)
				} else {
					_, err = p.RunTCP(coord, st, cfg)
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := diffBags(want, st); err != nil {
					t.Errorf("%s: %v\n%s", name, err, plan)
				}
			}
		})
	}
}

// stepLoopPlan is Plan.String of the steploop benchmark script at
// parallelism 4, as it was before the parallelism fixpoint: a loop of
// singletons, which the fixpoint leaves at one instance each.
const stepLoopPlan = `op0 b0 par1 x.1 = singleton(0) chain1
op1 b1 par1 x.2 = phi(x.1, x.3) chain1 [in0<-op0 forward chained] [in1<-op5 forward]
op2 b1 par1 cond $t2.1 = combine(x.2) [p0 => p0 < 50000] chain1 [in0<-op1 forward chained]
op3 b2 par1 $t4.1 = singleton("out") chain1
op4 b2 par1 $w5.1 = writeFile(x.2, $t4.1) chain1 [in0<-op1 forward chained] [in1<-op3 forward chained]
op5 b3 par1 x.3 = combine(x.2) [p0 => p0 + 1] chain1 [in0<-op1 forward chained]
`

// TestPhiParallelism checks the parallelism fixpoint on its own: a phi
// takes the largest parallelism of its inputs however late the planner
// reaches its loop body, so a loop-carried bag whose entry input is empty()
// runs at its loop body's parallelism, and a phi of singletons stays at one
// instance, so the step loop's plan is unchanged.
func TestPhiParallelism(t *testing.T) {
	step, err := Compile(workload.StepLoopScript(50000))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := step.plan(4, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.String(); got != stepLoopPlan {
		t.Errorf("steploop plan:\n%s\nwant:\n%s", got, stepLoopPlan)
	}
	for _, c := range []struct {
		name, src string
		par       map[string]int
	}{
		{"visitcount_bulk", workload.VisitCountSpec{Days: 6, WithDiff: true, WithPageTypes: true}.Script(), map[string]int{"yesterdayCounts.2": 4, "day.2": 1}},
		{"visitcount_tcp", workload.VisitCountSpec{Days: 60, WithDiff: true}.Script(), map[string]int{"yesterdayCounts.2": 4, "day.2": 1}},
		{"late_body", `acc = empty()
i = 0
while (i < 3) {
  acc = readFile("p").map(t => (t.0, t.1 + 1)).filter(t => t.1 > 2)
  i = i + 1
}
acc.writeFile("out")`, map[string]int{"acc.2": 4, "i.2": 1}},
	} {
		p, err := Compile(c.src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := p.plan(4, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for v, want := range c.par {
			if got := plan.ByVar[v].Par; got != want {
				t.Errorf("%s: %s runs at parallelism %d, want %d\n%s", c.name, v, got, want, plan)
			}
		}
	}
}
