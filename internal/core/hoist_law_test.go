package core_test

import (
	"fmt"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/netcluster"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// TestHoistedJoinBuildLaw pins loop-invariant hoisting (paper Sec. 5.3,
// Fig. 8) as an exact count on the visitcount_bulk script with m join
// instances, on m simulated machines and on two loopback TCP workers. The
// pageTypes join's build side is loop invariant; the day-diff join's is the
// day's counts, and it runs on days 2 to days. With hoisting the first builds
// once per instance and the second once per instance and day it runs, so
// Result.JoinBuilds is m·days; without, the first builds every day too,
// m·(2·days − 1). The join_build_reuses counters, summed, make up the
// difference.
func TestHoistedJoinBuildLaw(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 6, VisitsPerDay: 400, Pages: 50, WithDiff: true, WithPageTypes: true, Seed: 1}
	tcp, cleanup, err := netcluster.StartLocal(2, netcluster.CoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	for _, m := range []int{2, 4, 8} {
		for _, backend := range []string{"sim", "tcp"} {
			for _, hoisting := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/m%d/hoisting=%t", backend, m, hoisting), func(t *testing.T) {
					st := store.NewMemStore()
					if err := spec.Generate(st); err != nil {
						t.Fatal(err)
					}
					o := obs.New()
					opts := core.DefaultOptions()
					opts.Hoisting, opts.Obs = hoisting, o
					var builds, reuses int64
					if backend == "sim" {
						cl, err := cluster.New(cluster.FastConfig(m))
						if err != nil {
							t.Fatal(err)
						}
						defer cl.Close()
						res, err := workload.RunMitos(spec, st, cl, opts)
						if err != nil {
							t.Fatal(err)
						}
						builds, reuses = res.JoinBuilds, o.Metrics.Snapshot().Total("join_build_reuses")
					} else {
						opts.Parallelism = m
						res, err := tcp.Run(spec.Script(), st, opts)
						if err != nil {
							t.Fatal(err)
						}
						builds = res.JoinBuilds
						for _, s := range res.WorkerStats {
							reuses += s.Total("join_build_reuses")
						}
					}
					hoisted, rebuilt := int64(m*spec.Days), int64(m*(2*spec.Days-1))
					want := hoisted
					if !hoisting {
						want = rebuilt
					}
					if builds != want {
						t.Errorf("JoinBuilds = %d, want %d", builds, want)
					}
					if builds+reuses != rebuilt {
						t.Errorf("%d builds + %d reuses = %d, want %d", builds, reuses, builds+reuses, rebuilt)
					}
				})
			}
		}
	}
}
