package core_test

import (
	"maps"
	"sync"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// keptSrc joins every step's visits with a loop-invariant build side, which
// hoisting builds once per job, and folds the matches by the build side's
// label.
const keptSrc = `types = readFile("types")
visits = readFile("in")
i = 1
while (i <= 3) {
  tagged = types.join(visits.map(x => (x, 1)))
  counts = tagged.map(t => (t.1, t.2)).reduceByKey((a, b) => a + b)
  counts.writeFile("out" + i)
  i = i + 1
}
`

// TestKeyedTablesKeptAcrossJobs runs keptSrc twice through one PlanMemo,
// over stores whose build side labels every key differently. The hosts of
// the second job start from the runs the first job's hosts released, keyed
// tables cleared: core's table hook, which sees every bag that refills a
// table, sees the hoisted join only in the second job, whose one build per
// host fills the table the first job's cache left behind, and the fold in
// both. The first job's hoisted build must not cross: each job writes the
// bags the AST interpreter writes over its own store.
func TestKeyedTablesKeptAcrossJobs(t *testing.T) {
	var mu sync.Mutex
	refills := map[string]int{}
	core.SetTableHook(func(op string) {
		mu.Lock()
		refills[op]++
		mu.Unlock()
	})
	t.Cleanup(func() { core.SetTableHook(nil) })
	var memo core.PlanMemo
	var seen [2]map[string]int
	for job, label := range []string{"a", "b"} {
		clear(refills)
		gen := func(st store.Store) error {
			var types, visits []val.Value
			for k := 0; k < 10; k++ {
				types = append(types, val.Pair(val.Int(int64(k)), val.Str(label)))
			}
			for v := 0; v < 100; v++ {
				visits = append(visits, val.Int(int64(v%10)))
			}
			if err := st.WriteDataset("types", types); err != nil {
				return err
			}
			return st.WriteDataset("in", visits)
		}
		againstAST(t, keptSrc, gen, func(g *ir.Graph, got *store.MemStore) error {
			cl, err := cluster.New(cluster.FastConfig(1))
			if err != nil {
				return err
			}
			defer cl.Close()
			plan, err := memo.Compile(keptSrc, 1, core.DefaultOptions(), func(string) (*ir.Graph, error) { return g, nil })
			if err != nil {
				return err
			}
			_, err = core.ExecutePlan(plan, got, cl, core.DefaultOptions())
			return err
		})
		seen[job] = maps.Clone(refills)
	}
	if seen[0]["tagged.1"] != 0 || seen[1]["tagged.1"] != 1 {
		t.Errorf("the hoisted join refilled a table %d times in the first job and %d in the second, want 0 and 1", seen[0]["tagged.1"], seen[1]["tagged.1"])
	}
	if seen[1]["counts.1"] <= seen[0]["counts.1"] {
		t.Errorf("the fold refilled a table %d times in the first job and %d in the second: the second did not start from the first's", seen[0]["counts.1"], seen[1]["counts.1"])
	}
}
