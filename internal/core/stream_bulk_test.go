package core_test

import (
	"sync"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dfs"
	"github.com/mitos-project/mitos/internal/workload"
)

// TestStreamedShareVisitCount measures, on the benchmark's visitcount_bulk
// shape, how many elements reach operator logic without being buffered —
// overall and on chained edges, where a member that emits from OnControl
// reaches a consumer that has not ingested the same path update yet
// (dataflow's chained control fan-out runs the members one after the
// other). DESIGN.md Sec. 16 quotes the numbers. The overall share depends
// on scheduling (a bag that arrives before its output starts is buffered by
// design); the chained share does not, and above 5 % the fan-out would have
// to ingest the path on every member before any of them progresses.
func TestStreamedShareVisitCount(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 6, VisitsPerDay: 25000, Pages: 2500, WithDiff: true, WithPageTypes: true, Seed: 1}
	if testing.Short() {
		spec.VisitsPerDay, spec.Pages = 2500, 250
	}
	st := dfs.New(dfs.Config{BlockSize: 2048})
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.FastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	type tally struct{ streamed, buffered int }
	var mu sync.Mutex
	var all, chained tally
	byOp := map[string]*tally{}
	core.SetBatchHook(func(op string, ch bool, streamed, buffered int) {
		mu.Lock()
		defer mu.Unlock()
		all.streamed += streamed
		all.buffered += buffered
		if ch {
			chained.streamed += streamed
			chained.buffered += buffered
		}
		o := byOp[op]
		if o == nil {
			o = &tally{}
			byOp[op] = o
		}
		o.streamed += streamed
		o.buffered += buffered
	})
	defer core.SetBatchHook(nil)

	if _, err := workload.RunMitos(spec, st, cl, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	frac := func(x tally) float64 { return float64(x.buffered) / float64(x.streamed+x.buffered) }
	t.Logf("all edges: %d streamed, %d buffered (%.2f%% buffered)", all.streamed, all.buffered, 100*frac(all))
	t.Logf("chained edges: %d streamed, %d buffered (%.2f%% buffered)", chained.streamed, chained.buffered, 100*frac(chained))
	for op, o := range byOp {
		if o.buffered > 0 {
			t.Logf("  %-24s %8d streamed %8d buffered", op, o.streamed, o.buffered)
		}
	}
	if chained.streamed == 0 {
		t.Error("no element streamed over a chained edge")
	}
	if f := frac(chained); f > 0.05 {
		t.Errorf("%.1f%% of the elements on chained edges were buffered, want at most 5%%", 100*f)
	}
}
