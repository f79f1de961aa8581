package baseline

import (
	"strings"
	"sync/atomic"
	"testing"

	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

type constructor func(*cluster.Cluster, store.Store) *Session

func newTestSession(t *testing.T, open constructor, machines int) (*Session, *store.MemStore, *cluster.Cluster) {
	t.Helper()
	cl, err := cluster.New(cluster.FastConfig(machines))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	st := store.NewMemStore()
	return open(cl, st), st, cl
}

// bothPolicies runs f as a subtest under each constructor: everything an
// operator computes is independent of the coordination policy.
func bothPolicies(t *testing.T, f func(t *testing.T, open constructor)) {
	t.Run("spark", func(t *testing.T) { f(t, Spark) })
	t.Run("flink", func(t *testing.T) { f(t, Flink) })
}

// udf compiles a lambda from its script text.
func udf(t *testing.T, src string) *lang.UDF {
	t.Helper()
	prog, err := lang.Parse("f = b.map(" + src + ")")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	f, err := lang.MakeUDF(prog.Stmts[0].(*lang.AssignStmt).RHS.(*lang.Method).Args[0])
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func ints(ns ...int64) []val.Value {
	out := make([]val.Value, len(ns))
	for i, n := range ns {
		out[i] = val.Int(n)
	}
	return out
}

func TestPipeline(t *testing.T) {
	bothPolicies(t, func(t *testing.T, open constructor) {
		sess, st, _ := newTestSession(t, open, 3)
		st.WriteDataset("in", ints(1, 2, 3, 4, 5))
		ds := sess.ReadFile("in").Map(udf(t, "x => x * x")).Filter(udf(t, "x => x % 2 == 0"))
		got, err := ds.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !bag.Equal(got, ints(4, 16)) {
			t.Errorf("pipeline = %v", bag.Sorted(got))
		}
		n, err := ds.Count()
		if err != nil || n != 2 {
			t.Errorf("count = %d, %v", n, err)
		}
		sum, err := ds.Sum()
		if err != nil || sum.AsInt() != 20 {
			t.Errorf("sum = %v, %v", sum, err)
		}
	})
}

func TestKeyOps(t *testing.T) {
	bothPolicies(t, func(t *testing.T, open constructor) {
		sess, _, _ := newTestSession(t, open, 2)
		pairs := []val.Value{
			val.Pair(val.Str("x"), val.Int(1)),
			val.Pair(val.Str("y"), val.Int(5)),
			val.Pair(val.Str("x"), val.Int(2)),
		}
		rbk := sess.FromSlice(pairs).ReduceByKey(udf(t, "(a, b) => a + b"))
		got, err := rbk.Collect()
		if err != nil {
			t.Fatal(err)
		}
		want := []val.Value{val.Pair(val.Str("x"), val.Int(3)), val.Pair(val.Str("y"), val.Int(5))}
		if !bag.Equal(got, want) {
			t.Errorf("reduceByKey = %v", bag.Sorted(got))
		}
		types := sess.FromSlice([]val.Value{val.Pair(val.Str("x"), val.Str("T"))})
		joined, err := rbk.Join(types).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(joined) != 1 || !joined[0].Equal(val.Tuple(val.Str("x"), val.Int(3), val.Str("T"))) {
			t.Errorf("join = %v", joined)
		}
		// JoinStatic is the same join seen from the probe side.
		static, err := types.JoinStatic(rbk).Collect()
		if err != nil || !bag.Equal(static, joined) {
			t.Errorf("joinStatic = %v, %v; want %v", static, err, joined)
		}
	})
}

func TestSum(t *testing.T) {
	bothPolicies(t, func(t *testing.T, open constructor) {
		sess, _, _ := newTestSession(t, open, 2)
		a := sess.FromSlice(ints(1, 1, 2))
		sum, err := a.Sum()
		if err != nil || sum.AsInt() != 4 {
			t.Errorf("sum = %v, %v", sum, err)
		}
		mixed, err := sess.FromSlice([]val.Value{val.Int(1), val.Float(0.5)}).Sum()
		if err != nil || mixed.AsFloat() != 1.5 {
			t.Errorf("mixed sum = %v, %v", mixed, err)
		}
	})
}

func TestWriteFile(t *testing.T) {
	bothPolicies(t, func(t *testing.T, open constructor) {
		sess, st, _ := newTestSession(t, open, 2)
		st.WriteDataset("in", ints(5, 6))
		if err := sess.ReadFile("in").WriteFile("out"); err != nil {
			t.Fatal(err)
		}
		got, err := st.ReadDataset("out")
		if err != nil || !bag.Equal(got, ints(5, 6)) {
			t.Errorf("written = %v, %v", got, err)
		}
	})
}

func TestErrorPropagation(t *testing.T) {
	bothPolicies(t, func(t *testing.T, open constructor) {
		sess, st, _ := newTestSession(t, open, 2)
		st.WriteDataset("in", ints(1))
		_, err := sess.ReadFile("in").Map(udf(t, "x => x / 0")).Collect()
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("map error = %v", err)
		}
		_, err = sess.ReadFile("in").Filter(udf(t, "x => x")).Collect()
		if err == nil || !strings.Contains(err.Error(), "want bool") {
			t.Errorf("filter non-bool error = %v", err)
		}
		_, err = sess.ReadFile("in").ReduceByKey(udf(t, "(a, b) => a")).Collect()
		if err == nil || !strings.Contains(err.Error(), "pairs") {
			t.Errorf("reduceByKey non-pairs error = %v", err)
		}
		if _, err := sess.ReadFile("missing").Collect(); err == nil {
			t.Error("missing dataset read succeeded")
		}
		// Non-pairs on the build side and on the probe side.
		pair := sess.FromSlice([]val.Value{val.Pair(val.Int(1), val.Int(1))})
		for _, j := range []*Dataset{sess.FromSlice(ints(1)).Join(pair), pair.Join(sess.FromSlice(ints(2)))} {
			if _, err := j.Collect(); err == nil || !strings.Contains(err.Error(), "pairs") {
				t.Errorf("join non-pairs error = %v", err)
			}
		}
		if _, err := sess.FromSlice([]val.Value{val.Str("s")}).Sum(); err == nil {
			t.Error("sum of strings succeeded")
		}
	})
}

// TestShuffleDeterministic pins the shuffle's contract: partitions hold
// their elements in source-partition order on every run, although every
// source routes on its own goroutine.
func TestShuffleDeterministic(t *testing.T) {
	bothPolicies(t, func(t *testing.T, open constructor) {
		sess, _, cl := newTestSession(t, open, 4)
		var elems []val.Value
		for i := int64(0); i < 400; i++ {
			elems = append(elems, val.Pair(val.Int(i%37), val.Int(i)))
		}
		var first [][]val.Value
		for run := 0; run < 5; run++ {
			parts, err := sess.FromSlice(elems).shuffleByKey().materialize()
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = parts
				continue
			}
			for p := range parts {
				if len(parts[p]) != len(first[p]) {
					t.Fatalf("run %d: partition %d has %d elements, first run %d", run, p, len(parts[p]), len(first[p]))
				}
				for i := range parts[p] {
					if !parts[p][i].Equal(first[p][i]) {
						t.Fatalf("run %d: partition %d element %d = %v, first run %v", run, p, i, parts[p][i], first[p][i])
					}
				}
			}
		}
		// 4 sources x 3 remote destinations, each moving under 128 elements.
		if got := cl.Stats().NetBatches; got != 5*12 {
			t.Errorf("net batches = %d, want 60", got)
		}
	})
}

// The tests below pin what differs between the policies.

func TestSparkActionsLaunchJobs(t *testing.T) {
	sess, st, cl := newTestSession(t, Spark, 3)
	st.WriteDataset("in", ints(1, 2, 3))
	ds := sess.ReadFile("in")
	for i := 0; i < 4; i++ {
		if _, err := ds.Count(); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.Stats().JobsLaunched; got != 4 {
		t.Errorf("jobs launched = %d, want 4 (one per action)", got)
	}
}

func TestFlinkLaunchesOncePerSession(t *testing.T) {
	sess, st, cl := newTestSession(t, Flink, 3)
	st.WriteDataset("in", ints(1, 2, 3))
	rbk := sess.ReadFile("in").Map(udf(t, "x => (x, x)")).ReduceByKey(udf(t, "(a, b) => a"))
	for i := 0; i < 4; i++ {
		if _, err := rbk.Count(); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.Stats(); got.JobsLaunched != 1 || got.TasksDispatched != 3 {
		t.Errorf("jobs launched = %d, tasks dispatched = %d; want 1 and 3 (no per-stage waves)", got.JobsLaunched, got.TasksDispatched)
	}
}

func TestSparkStageCounting(t *testing.T) {
	sess, st, cl := newTestSession(t, Spark, 2)
	st.WriteDataset("in", []val.Value{val.Pair(val.Str("k"), val.Int(1))})
	base := sess.ReadFile("in")
	if base.stages != 1 {
		t.Errorf("source stages = %d", base.stages)
	}
	rbk := base.ReduceByKey(udf(t, "(a, b) => a"))
	if rbk.stages != 2 {
		t.Errorf("reduceByKey stages = %d, want 2", rbk.stages)
	}
	joined := rbk.Join(base)
	if joined.stages != 3 {
		t.Errorf("join stages = %d, want 3", joined.stages)
	}
	before := cl.Stats().TasksDispatched
	if _, err := joined.Count(); err != nil {
		t.Fatal(err)
	}
	dispatched := cl.Stats().TasksDispatched - before
	// 3 stages x 2 machines.
	if dispatched != 6 {
		t.Errorf("tasks dispatched = %d, want 6", dispatched)
	}
}

// TestDatasetLifetime: a Spark dataset is recomputed by every action unless
// cached; a Flink dataset is computed once per job.
func TestDatasetLifetime(t *testing.T) {
	for _, c := range []struct {
		name  string
		open  constructor
		cache bool
		want  int64
	}{
		{"spark", Spark, false, 6},
		{"spark cached", Spark, true, 3},
		{"flink", Flink, false, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			sess, st, _ := newTestSession(t, c.open, 2)
			st.WriteDataset("in", ints(1, 2, 3))
			var evals atomic.Int64
			counted, err := lang.MakeUDF(lang.Native("counted", 1, func(args []val.Value) val.Value {
				evals.Add(1)
				return args[0]
			}))
			if err != nil {
				t.Fatal(err)
			}
			ds := sess.ReadFile("in").Map(counted)
			if c.cache {
				ds.Cache()
			}
			for i := 0; i < 2; i++ {
				if _, err := ds.Count(); err != nil {
					t.Fatal(err)
				}
			}
			if evals.Load() != c.want {
				t.Errorf("map evaluated %d times over two actions, want %d", evals.Load(), c.want)
			}
		})
	}
}

// TestJoinStateLifetime is the Fig. 8 mechanism as a count: the same
// three-step loop joining one static dataset builds the static side's hash
// tables at every step under Spark — although the dataset itself is cached
// — and once under Flink's native iteration.
func TestJoinStateLifetime(t *testing.T) {
	const steps, machines = 3, 2
	stat := []val.Value{val.Pair(val.Str("k"), val.Str("T"))}
	want := val.Tuple(val.Str("k"), val.Str("T"), val.Int(7))
	step := func(t *testing.T, sess *Session, static *Dataset) *Dataset {
		joined := sess.FromSlice([]val.Value{val.Pair(val.Str("k"), val.Int(7))}).JoinStatic(static)
		out, err := joined.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || !out[0].Equal(want) {
			t.Errorf("joinStatic = %v", out)
		}
		return joined
	}

	spark, st, _ := newTestSession(t, Spark, machines)
	st.WriteDataset("static", stat)
	static := spark.ReadFile("static").Cache()
	for i := 0; i < steps; i++ {
		step(t, spark, static)
	}
	if spark.tablesBuilt != steps*machines {
		t.Errorf("spark built %d join tables, want %d (every step, every partition)", spark.tablesBuilt, steps*machines)
	}

	flink, st, _ := newTestSession(t, Flink, machines)
	st.WriteDataset("static", stat)
	static = flink.ReadFile("static")
	_, err := flink.Iterate(flink.FromSlice(nil), steps, func(_ int, _ *Dataset) (*Dataset, error) {
		return step(t, flink, static), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if flink.tablesBuilt != machines {
		t.Errorf("flink built %d join tables, want %d (once per partition)", flink.tablesBuilt, machines)
	}
}

func TestIterateFixedSteps(t *testing.T) {
	sess, _, cl := newTestSession(t, Flink, 2)
	out, err := sess.Iterate(sess.FromSlice(ints(0)), 10, func(step int, in *Dataset) (*Dataset, error) {
		return in.Map(udf(t, "x => x + 1")), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].AsInt() != 10 {
		t.Errorf("iterate result = %v", got)
	}
	if s := cl.Stats(); s.Barriers != 10 || s.JobsLaunched != 1 {
		t.Errorf("barriers = %d, jobs = %d; want one barrier per superstep and one job", s.Barriers, s.JobsLaunched)
	}
}

func TestIterateNeedsFlinkPolicy(t *testing.T) {
	sess, _, _ := newTestSession(t, Spark, 1)
	_, err := sess.Iterate(sess.FromSlice(ints(0)), 1, func(_ int, in *Dataset) (*Dataset, error) { return in, nil })
	if err == nil || !strings.Contains(err.Error(), "Flink policy") {
		t.Errorf("iterate on a Spark session: %v", err)
	}
}

func TestNestedIterateRejected(t *testing.T) {
	sess, _, _ := newTestSession(t, Flink, 1)
	_, err := sess.Iterate(sess.FromSlice(ints(0)), 2, func(step int, in *Dataset) (*Dataset, error) {
		_, nested := sess.Iterate(in, 2, func(int, *Dataset) (*Dataset, error) { return in, nil })
		return in, nested
	})
	if err == nil || !strings.Contains(err.Error(), "nested") {
		t.Errorf("nested iterate error = %v", err)
	}
	// The session recovers for further use.
	if _, err := sess.Iterate(sess.FromSlice(ints(1)), 1, func(step int, in *Dataset) (*Dataset, error) {
		return in, nil
	}); err != nil {
		t.Errorf("iterate after failed nesting: %v", err)
	}
}

func TestStrictModeRejectsIOInIteration(t *testing.T) {
	sess, st, _ := newTestSession(t, Flink, 1)
	sess.Strict = true
	st.WriteDataset("f", ints(1))
	_, err := sess.Iterate(sess.FromSlice(ints(0)), 1, func(step int, in *Dataset) (*Dataset, error) {
		if _, err := sess.ReadFile("f").Collect(); err != nil {
			return nil, err
		}
		return in, nil
	})
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("strict readFile error = %v", err)
	}
	_, err = sess.Iterate(sess.FromSlice(ints(0)), 1, func(step int, in *Dataset) (*Dataset, error) {
		return in, in.WriteFile("out")
	})
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("strict writeFile error = %v", err)
	}
	// Outside an iteration, strict mode allows both.
	if err := sess.ReadFile("f").WriteFile("g"); err != nil {
		t.Errorf("strict I/O outside an iteration: %v", err)
	}
}

func TestErrorsPropagateFromBody(t *testing.T) {
	sess, _, _ := newTestSession(t, Flink, 1)
	id, failing := udf(t, "x => x"), udf(t, "x => x / 0")
	_, err := sess.Iterate(sess.FromSlice(ints(1)), 3, func(step int, in *Dataset) (*Dataset, error) {
		if step == 2 {
			return in.Map(failing), nil
		}
		return in.Map(id), nil
	})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("body error = %v", err)
	}
}
