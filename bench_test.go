package mitos

// Benchmarks regenerating the paper's evaluation, one per figure, plus
// per-system and ablation benchmarks. Each figure benchmark runs its full
// experiment sweep (quick scale) per iteration; use cmd/mitos-bench for
// the full-scale tables and per-cell output.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dfs"
	"github.com/mitos-project/mitos/internal/experiments"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

func benchFigure(b *testing.B, f func(experiments.Options) (*experiments.Table, error)) {
	b.Helper()
	o := experiments.Options{Quick: true}
	for i := 0; i < b.N; i++ {
		t, err := f(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Cells) == 0 {
			b.Fatal("empty result table")
		}
	}
}

// BenchmarkFig1 regenerates Fig. 1 (Spark vs Flink motivation experiment).
func BenchmarkFig1(b *testing.B) { benchFigure(b, experiments.Fig1) }

// BenchmarkFig5 regenerates Fig. 5 (strong scaling for Visit Count).
func BenchmarkFig5(b *testing.B) { benchFigure(b, experiments.Fig5) }

// BenchmarkFig6 regenerates Fig. 6 (input-size sweep with pageTypes).
func BenchmarkFig6(b *testing.B) { benchFigure(b, experiments.Fig6) }

// BenchmarkFig7 regenerates Fig. 7 (per-step overhead microbenchmark).
func BenchmarkFig7(b *testing.B) { benchFigure(b, experiments.Fig7) }

// BenchmarkFig8 regenerates Fig. 8 (loop-invariant hoisting sweep).
func BenchmarkFig8(b *testing.B) { benchFigure(b, experiments.Fig8) }

// BenchmarkFig9 regenerates Fig. 9 (loop pipelining ablation).
func BenchmarkFig9(b *testing.B) { benchFigure(b, experiments.Fig9) }

// BenchmarkAblationGrid measures the 2x2 pipelining x hoisting grid
// (DESIGN.md Sec. 6 extension).
func BenchmarkAblationGrid(b *testing.B) { benchFigure(b, experiments.AblationGrid) }

// benchSpec is the shared Visit Count workload for per-system benchmarks.
var benchSpec = workload.VisitCountSpec{
	Days: 10, VisitsPerDay: 1000, Pages: 100,
	WithDiff: true, WithPageTypes: true, Seed: 99,
}

func benchCluster(b *testing.B, machines int) *cluster.Cluster {
	b.Helper()
	cl, err := cluster.New(cluster.DefaultConfig(machines))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	return cl
}

func benchStore(b *testing.B) store.Store {
	b.Helper()
	st := dfs.New(dfs.Config{BlockSize: 2048})
	if err := benchSpec.Generate(st); err != nil {
		b.Fatal(err)
	}
	return st
}

// benchVisitCount measures one full Visit Count run on sys per iteration.
func benchVisitCount(b *testing.B, sys experiments.System, opts core.Options) {
	b.Helper()
	cl := benchCluster(b, 4)
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunVisitCount(sys, benchSpec, st, cl, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVisitCountMitos measures one full Visit Count run on Mitos.
func BenchmarkVisitCountMitos(b *testing.B) {
	benchVisitCount(b, experiments.Mitos, core.DefaultOptions())
}

// BenchmarkVisitCountMitosNoPipelining is Mitos without step overlap.
func BenchmarkVisitCountMitosNoPipelining(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Pipelining = false
	benchVisitCount(b, experiments.Mitos, opts)
}

// BenchmarkVisitCountMitosNoHoisting is Mitos rebuilding static join sides.
func BenchmarkVisitCountMitosNoHoisting(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Hoisting = false
	benchVisitCount(b, experiments.Mitos, opts)
}

// BenchmarkVisitCountSpark measures the Spark baseline.
func BenchmarkVisitCountSpark(b *testing.B) {
	benchVisitCount(b, experiments.Spark, core.Options{})
}

// BenchmarkVisitCountFlink measures the Flink native-iteration baseline.
func BenchmarkVisitCountFlink(b *testing.B) {
	benchVisitCount(b, experiments.Flink, core.Options{})
}

// BenchmarkCompile measures front end + SSA + planning for the Visit Count
// program.
func BenchmarkCompile(b *testing.B) {
	src := benchSpec.Script()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepOverheadMitos measures Mitos' per-iteration coordination
// cost in isolation (the Fig. 7 loop at a fixed cluster size).
func BenchmarkStepOverheadMitos(b *testing.B) {
	cl := benchCluster(b, 8)
	const steps = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.StepMitos(cl, store.NewMemStore(), steps, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*steps), "µs/step")
}

// BenchmarkBatchSize is an engine ablation (DESIGN.md Sec. 6): transfer
// batch size vs end-to-end Visit Count time.
func BenchmarkBatchSize(b *testing.B) {
	for _, bs := range []int{1, 16, 128, 1024} {
		b.Run(fmt.Sprintf("batch%d", bs), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.BatchSize = bs
			benchVisitCount(b, experiments.Mitos, opts)
		})
	}
}

// BenchmarkCopyPropagationAblation compares Visit Count with and without
// the optional copy-propagation pass (extension beyond the paper: fewer
// dataflow operators, at the cost of losing the paper's one-node-per-
// assignment correspondence).
func BenchmarkCopyPropagationAblation(b *testing.B) {
	for _, propagate := range []bool{false, true} {
		name := "keepCopies"
		if propagate {
			name = "propagated"
		}
		b.Run(name, func(b *testing.B) {
			cl := benchCluster(b, 4)
			st := benchStore(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := benchSpec.CompileMitos()
				if err != nil {
					b.Fatal(err)
				}
				if propagate {
					ir.PropagateCopies(g)
				}
				if _, err := core.Execute(g, st, cl, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
