package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// groundTruth runs the Mitos script through the AST interpreter.
func groundTruth(t *testing.T, spec VisitCountSpec) *store.MemStore {
	t.Helper()
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(spec.Script())
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, spec.Script())
	}
	if err := ir.RunAST(prog, st); err != nil {
		t.Fatalf("AST interpreter: %v", err)
	}
	return st
}

func freshStore(t *testing.T, spec VisitCountSpec) *store.MemStore {
	t.Helper()
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	return st
}

func diffOutputs(t *testing.T, want, got *store.MemStore) {
	t.Helper()
	for _, name := range want.Names() {
		we, _ := want.ReadDataset(name)
		ge, err := got.ReadDataset(name)
		if err != nil {
			t.Errorf("dataset %q missing: %v", name, err)
			continue
		}
		if !bag.Equal(we, ge) {
			t.Errorf("dataset %q differs:\n want %v\n got  %v", name, bag.Sorted(we), bag.Sorted(ge))
		}
	}
}

var specs = []VisitCountSpec{
	{Days: 4, VisitsPerDay: 60, Pages: 10, Seed: 21},
	{Days: 5, VisitsPerDay: 80, Pages: 12, WithDiff: true, Seed: 22},
	{Days: 4, VisitsPerDay: 70, Pages: 9, WithDiff: true, WithPageTypes: true, Seed: 23},
	{Days: 3, VisitsPerDay: 50, Pages: 8, WithPageTypes: true, PageTypesSize: 20, Seed: 24},
}

// TestAllSystemsAgree checks that every system produces identical outputs
// for every Visit Count variant — the cross-system correctness requirement
// behind all the paper's performance comparisons.
func TestAllSystemsAgree(t *testing.T) {
	for si, spec := range specs {
		spec := spec
		want := groundTruth(t, spec)
		runners := []struct {
			name string
			run  func(st *store.MemStore, cl *cluster.Cluster) error
		}{
			{"mitos", func(st *store.MemStore, cl *cluster.Cluster) error {
				_, err := RunMitos(spec, st, cl, core.DefaultOptions())
				return err
			}},
			{"mitos-nopipe-nohoist", func(st *store.MemStore, cl *cluster.Cluster) error {
				_, err := RunMitos(spec, st, cl, core.Options{})
				return err
			}},
			{"spark", RunSparkAdapter(spec)},
			{"flink-native", func(st *store.MemStore, cl *cluster.Cluster) error {
				return RunFlinkNative(spec, st, cl, 0)
			}},
		}
		for _, r := range runners {
			t.Run(fmt.Sprintf("spec%d/%s", si, r.name), func(t *testing.T) {
				t.Parallel()
				cl, err := cluster.New(cluster.FastConfig(3))
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				st := freshStore(t, spec)
				if err := r.run(st, cl); err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				diffOutputs(t, want, st)
			})
		}
	}
}

// RunSparkAdapter adapts RunSpark to the test runner signature.
func RunSparkAdapter(spec VisitCountSpec) func(st *store.MemStore, cl *cluster.Cluster) error {
	return func(st *store.MemStore, cl *cluster.Cluster) error {
		return RunSpark(spec, st, cl)
	}
}

// coordinationRows are the machine counts the count-based shape tests
// sweep: enough points to tell linear growth from flat.
var coordinationRows = []int{2, 4, 8}

// TestSparkLaunchesJobPerStep: a job per day, and task dispatches that grow
// linearly with the machine count (Figs. 5, 7).
func TestSparkLaunchesJobPerStep(t *testing.T) {
	spec := specs[1] // with diff: one action per day from day 2, plus day-1 materialization
	for _, machines := range coordinationRows {
		cl, err := cluster.New(cluster.FastConfig(machines))
		if err != nil {
			t.Fatal(err)
		}
		err = RunSpark(spec, freshStore(t, spec), cl)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		stats := cl.Stats()
		if stats.JobsLaunched != int64(spec.Days) {
			t.Errorf("%d machines: Spark launched %d jobs for %d days, want one per day", machines, stats.JobsLaunched, spec.Days)
		}
		// Day 1 counts: 2 stages; every later day adds the join's: 3.
		waves := int64(2 + 3*(spec.Days-1))
		if stats.TasksDispatched != waves*int64(machines) {
			t.Errorf("%d machines: Spark dispatched %d tasks, want %d stage waves x %d machines", machines, stats.TasksDispatched, waves, machines)
		}
	}
}

// TestFlinkNativeLaunchesOneJob: one launch whatever the day count, and one
// barrier per superstep.
func TestFlinkNativeLaunchesOneJob(t *testing.T) {
	spec := specs[1]
	for _, machines := range coordinationRows {
		cl, err := cluster.New(cluster.FastConfig(machines))
		if err != nil {
			t.Fatal(err)
		}
		err = RunFlinkNative(spec, freshStore(t, spec), cl, 0)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		stats := cl.Stats()
		if stats.JobsLaunched != 1 || stats.TasksDispatched != int64(machines) {
			t.Errorf("%d machines: Flink native launched %d jobs dispatching %d tasks, want 1 and %d", machines, stats.JobsLaunched, stats.TasksDispatched, machines)
		}
		if stats.Barriers != int64(spec.Days) {
			t.Errorf("%d machines: Flink native ran %d barriers for %d supersteps", machines, stats.Barriers, spec.Days)
		}
	}
}

func TestMitosLaunchesNoPerStepJobs(t *testing.T) {
	spec := specs[1]
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := freshStore(t, spec)
	if _, err := RunMitos(spec, st, cl, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	stats := cl.Stats()
	if stats.JobsLaunched != 0 {
		t.Errorf("Mitos launched %d cluster jobs (the dataflow job is one submission, not per-step)", stats.JobsLaunched)
	}
	if stats.Barriers != 0 {
		t.Errorf("pipelined Mitos ran %d barriers, want 0", stats.Barriers)
	}
	if stats.CtrlMessages == 0 {
		t.Error("Mitos sent no control messages; the CFM broadcast is not wired")
	}
}

func TestMitosNonPipelinedUsesBarriers(t *testing.T) {
	spec := specs[0]
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := freshStore(t, spec)
	opts := core.Options{Pipelining: false, Hoisting: true}
	if _, err := RunMitos(spec, st, cl, opts); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().Barriers == 0 {
		t.Error("non-pipelined Mitos ran no barriers")
	}
}

// TestStepBenchesAllSystems runs the Fig. 7 loop on all six systems and pins
// the figure's shape as counts: the job-per-step systems launch a job per
// step and dispatch tasks linearly in the machine count, Flink native
// launches once and pays a barrier per step, Mitos launches nothing.
func TestStepBenchesAllSystems(t *testing.T) {
	const steps = 5
	jobPerStep := func(m int64) cluster.Stats {
		return cluster.Stats{JobsLaunched: steps, TasksDispatched: steps * m}
	}
	cases := []struct {
		name string
		run  func(cl *cluster.Cluster) error
		// want gives the launches, dispatches and barriers expected on m
		// machines; nil leaves the comparator's coordination unpinned.
		want func(m int64) cluster.Stats
	}{
		{"mitos", func(cl *cluster.Cluster) error {
			_, err := StepMitos(cl, store.NewMemStore(), steps, core.DefaultOptions())
			return err
		}, func(int64) cluster.Stats { return cluster.Stats{} }},
		{"spark", func(cl *cluster.Cluster) error { return StepSpark(cl, store.NewMemStore(), steps) }, jobPerStep},
		{"flink-separate", func(cl *cluster.Cluster) error { return StepFlinkSeparateJobs(cl, store.NewMemStore(), steps) }, jobPerStep},
		{"flink-native", func(cl *cluster.Cluster) error { return StepFlinkNative(cl, store.NewMemStore(), steps, 0) },
			func(m int64) cluster.Stats {
				return cluster.Stats{JobsLaunched: 1, TasksDispatched: m, Barriers: steps}
			}},
		{"naiad", func(cl *cluster.Cluster) error { return StepNaiad(cl, steps) }, nil},
		{"tf", func(cl *cluster.Cluster) error { return StepTF(cl, steps) }, nil},
	}
	for _, machines := range coordinationRows {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%d", c.name, machines), func(t *testing.T) {
				cl, err := cluster.New(cluster.FastConfig(machines))
				if err != nil {
					t.Fatal(err)
				}
				err = c.run(cl)
				cl.Close()
				if err != nil {
					t.Fatal(err)
				}
				if c.want == nil {
					return
				}
				got, want := cl.Stats(), c.want(int64(machines))
				if got.JobsLaunched != want.JobsLaunched || got.TasksDispatched != want.TasksDispatched || got.Barriers != want.Barriers {
					t.Errorf("jobs/tasks/barriers = %d/%d/%d, want %d/%d/%d",
						got.JobsLaunched, got.TasksDispatched, got.Barriers,
						want.JobsLaunched, want.TasksDispatched, want.Barriers)
				}
			})
		}
	}
}

func TestStepMitosWritesResult(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := store.NewMemStore()
	res, err := StepMitos(cl, st, 7, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.ChainedEdges == 0 {
		t.Error("ChainedEdges = 0: default options should chain the step loop")
	}
	out, err := st.ReadDataset("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].AsInt() != 7 {
		t.Errorf("out = %v, want [7]", out)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := specs[2]
	a, b := store.NewMemStore(), store.NewMemStore()
	if err := spec.Generate(a); err != nil {
		t.Fatal(err)
	}
	if err := spec.Generate(b); err != nil {
		t.Fatal(err)
	}
	for _, name := range a.Names() {
		ae, _ := a.ReadDataset(name)
		be, err := b.ReadDataset(name)
		if err != nil || !bag.Equal(ae, be) {
			t.Errorf("dataset %q not deterministic", name)
		}
	}
}

func TestScriptCompiles(t *testing.T) {
	for si, spec := range specs {
		if _, err := spec.CompileMitos(); err != nil {
			t.Errorf("spec %d script does not compile: %v\n%s", si, err, spec.Script())
		}
	}
}

// TestCombinersShrinkReduceByKeyShuffles is the headline byte-level claim
// of the map-side combiner rewrite: on Visit Count across multiple
// machines, the bytes crossing machines on the reduceByKey shuffle edges
// drop by at least 2x while the outputs stay identical. The pageTypes
// variant is the interesting negative control: there the join has already
// hash-partitioned the data by page key, so the reduceByKey shuffle is
// key-local and byte-free with or without combiners — the test pins both
// facts.
func TestCombinersShrinkReduceByKeyShuffles(t *testing.T) {
	const machines = 4
	run := func(spec VisitCountSpec, combine bool) (rbkBytes, jobBytes int64) {
		t.Helper()
		want := groundTruth(t, spec)
		// The operators whose emissions cross the reduceByKey shuffle edges:
		// without the rewrite the raw producers, with it the combiners.
		g, err := spec.CompileMitos()
		if err != nil {
			t.Fatal(err)
		}
		ob := obs.New()
		opts := core.DefaultOptions()
		opts.Combiners = combine
		opts.Obs = ob
		// The plan the run executes: with chaining, a producer may be the
		// operator its map was fused into.
		plan, err := core.Compile(g, machines, opts)
		if err != nil {
			t.Fatal(err)
		}
		producers := make(map[string]bool)
		for _, op := range plan.Ops {
			if op.Synth == core.SynthNone && op.Instr.Kind == ir.OpReduceByKey {
				producers[op.Inputs[0].Producer.Instr.Var] = true
			}
		}
		if len(producers) == 0 {
			t.Fatal("no reduceByKey shuffle edges in the Visit Count plan")
		}

		cl, err := cluster.New(cluster.FastConfig(machines))
		if err != nil {
			t.Fatal(err)
		}
		st := freshStore(t, spec)
		res, err := RunMitos(spec, st, cl, opts)
		if err != nil {
			cl.Close()
			t.Fatalf("RunMitos(combine=%t): %v", combine, err)
		}
		cl.Close()
		diffOutputs(t, want, st)
		snap := ob.Snapshot()
		for name := range producers {
			rbkBytes += snap.TotalFor(name, "bytes_sent")
		}
		return rbkBytes, res.Job.BytesSent
	}

	plain := VisitCountSpec{Days: 4, VisitsPerDay: 2000, Pages: 40, WithDiff: true, Seed: 25}
	offRbk, offJob := run(plain, false)
	onRbk, onJob := run(plain, true)
	if onRbk == 0 {
		t.Fatal("no remote bytes on the combined reduceByKey edges; shuffle not exercised")
	}
	if offRbk < 2*onRbk {
		t.Errorf("reduceByKey shuffle bytes: off=%d on=%d, want at least a 2x drop", offRbk, onRbk)
	}
	if offJob < 2*onJob {
		t.Errorf("whole-job remote bytes: off=%d on=%d, want at least a 2x drop", offJob, onJob)
	}
	t.Logf("plain: rbk shuffle bytes off=%d on=%d (%.1fx), job bytes off=%d on=%d (%.1fx)",
		offRbk, onRbk, float64(offRbk)/float64(onRbk), offJob, onJob, float64(offJob)/float64(onJob))

	pt := VisitCountSpec{Days: 4, VisitsPerDay: 2000, Pages: 40, WithDiff: true, WithPageTypes: true, Seed: 25}
	ptOffRbk, ptOffJob := run(pt, false)
	ptOnRbk, ptOnJob := run(pt, true)
	if ptOffRbk != 0 || ptOnRbk != 0 {
		t.Errorf("pageTypes reduceByKey shuffle bytes: off=%d on=%d, want 0 (join already key-partitions)", ptOffRbk, ptOnRbk)
	}
	if ptOnJob > ptOffJob {
		t.Errorf("pageTypes whole-job remote bytes regressed with combiners: off=%d on=%d", ptOffJob, ptOnJob)
	}
}

// TestBenchmarkInputsPinned pins, as digests taken at df61bd0, everything the
// frozen benchmark/ module takes from this package: the three scripts and
// the generated datasets. A change here moves every BENCHMARK.json number.
func TestBenchmarkInputsPinned(t *testing.T) {
	h := sha256.New()
	io.WriteString(h, StepLoopScript(50000))
	io.WriteString(h, ConnectedScript)
	var buf []byte
	for _, spec := range specs {
		io.WriteString(h, spec.Script())
		st := freshStore(t, spec)
		for _, name := range st.Names() {
			elems, _ := st.ReadDataset(name)
			buf = append(buf[:0], name...)
			for _, e := range elems {
				buf = val.AppendBinary(buf, e)
			}
			h.Write(buf)
		}
	}
	const want = "1a63d64e0bed9e056cbd05a36963d012d2257fd564f46549290004980ff2adbe"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("scripts + generated datasets digest = %s, want %s", got, want)
	}
}

// TestScriptGolden pins the programs the frozen benchmark generates, as
// text: the Visit Count script in its four variants and the step loop. The
// baselines compile their lambdas from the same constants, so a change to
// one of them must show here.
func TestScriptGolden(t *testing.T) {
	const plain = `yesterdayCounts = empty()
day = 1
do {
  visits = readFile("pageVisitLog" + day)
  counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b)
  counts.writeFile("counts" + day)
  yesterdayCounts = counts
  day = day + 1
} while (day <= 3)
`
	const withTypes = `yesterdayCounts = empty()
pageTypes = readFile("pageTypes")
day = 1
do {
  rawVisits = readFile("pageVisitLog" + day)
  tagged = pageTypes.join(rawVisits.map(x => (x, 1)))
  visits = tagged.filter(t => t.1 == "article").map(t => t.0)
  counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b)
  counts.writeFile("counts" + day)
  yesterdayCounts = counts
  day = day + 1
} while (day <= 3)
`
	const withDiff = `yesterdayCounts = empty()
day = 1
do {
  visits = readFile("pageVisitLog" + day)
  counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b)
  if (day != 1) {
    diffs = counts.join(yesterdayCounts).map(t => abs(t.1 - t.2))
    diffs.sum().writeFile("diff" + day)
  }
  yesterdayCounts = counts
  day = day + 1
} while (day <= 3)
`
	const withBoth = `yesterdayCounts = empty()
pageTypes = readFile("pageTypes")
day = 1
do {
  rawVisits = readFile("pageVisitLog" + day)
  tagged = pageTypes.join(rawVisits.map(x => (x, 1)))
  visits = tagged.filter(t => t.1 == "article").map(t => t.0)
  counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b)
  if (day != 1) {
    diffs = counts.join(yesterdayCounts).map(t => abs(t.1 - t.2))
    diffs.sum().writeFile("diff" + day)
  }
  yesterdayCounts = counts
  day = day + 1
} while (day <= 3)
`
	const step = `x = 0
while (x < 7) {
  x = x + 1
}
newBag(x).writeFile("out")
`
	for _, c := range []struct {
		name, got, want string
	}{
		{"plain", VisitCountSpec{Days: 3}.Script(), plain},
		{"pageTypes", VisitCountSpec{Days: 3, WithPageTypes: true}.Script(), withTypes},
		{"diff", VisitCountSpec{Days: 3, WithDiff: true}.Script(), withDiff},
		{"diff+pageTypes", VisitCountSpec{Days: 3, WithDiff: true, WithPageTypes: true}.Script(), withBoth},
		{"step loop", StepLoopScript(7), step},
	} {
		if c.got != c.want {
			t.Errorf("%s script:\n%s\nwant:\n%s", c.name, c.got, c.want)
		}
	}
}

// TestBaselineLambdasAreTheScripts checks that every UDF a Visit Count
// baseline runs is a lambda of the spec's own compiled program, and that
// the step loops' increment is the script's loop step as a lambda.
func TestBaselineLambdasAreTheScripts(t *testing.T) {
	for _, d := range []bool{false, true} {
		for _, p := range []bool{false, true} {
			spec := VisitCountSpec{Days: 3, WithDiff: d, WithPageTypes: p}
			g, err := spec.CompileMitos()
			if err != nil {
				t.Fatal(err)
			}
			inSSA := make(map[string]bool)
			for _, blk := range g.Blocks {
				for _, in := range blk.Instrs {
					if in.F != nil {
						inSSA[in.F.String()] = true
					}
				}
			}
			// The lambdas dayCounts and emitDay run in this variant.
			body := spec.dayBody()
			runs := []*lang.UDF{body.withOne, body.addCounts}
			if p {
				runs = append(runs, body.isArticle, body.pageOf)
			}
			if d {
				runs = append(runs, body.absDiff)
			}
			for _, f := range runs {
				if !inSSA[f.String()] {
					t.Errorf("diff=%v pageTypes=%v: baseline UDF %s is no lambda of the script's SSA %v", d, p, f, inSSA)
				}
			}
		}
	}
	inc := increment()
	for x := int64(-1); x <= 1; x++ {
		got, err := inc.Call(val.Int(x))
		if err != nil || !got.Equal(val.Int(x+1)) {
			t.Errorf("increment(%d) = %v, %v", x, got, err)
		}
	}
	if inc.String() != "x => "+stepIncrement {
		t.Errorf("increment = %s, want x => %s", inc, stepIncrement)
	}
}
