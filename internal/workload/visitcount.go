// Package workload provides the paper's evaluation workloads: the Visit
// Count task of Sec. 2 in its three variants (plain, with day-over-day
// diffs, with the loop-invariant pageTypes join), implemented for every
// system under comparison, plus deterministic input generators and the
// iteration-step-overhead microbenchmark of Fig. 7.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/mitos-project/mitos/internal/baseline"
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// VisitCountSpec parameterizes the Visit Count task. The paper uses 365
// days of 21 MB logs; tests and benchmarks scale Days and VisitsPerDay.
type VisitCountSpec struct {
	Days         int
	VisitsPerDay int
	Pages        int // page-ID universe; visits are uniform over it
	WithDiff     bool
	// WithPageTypes joins each day's visits with the loop-invariant
	// pageTypes dataset and keeps only "article" pages.
	WithPageTypes bool
	// PageTypesSize is the number of entries in the pageTypes dataset
	// (defaults to Pages). Entries beyond the page universe exercise the
	// build side without matching — the knob Fig. 8 sweeps.
	PageTypesSize int
	Seed          int64
}

func (s VisitCountSpec) pageTypesSize() int {
	if s.PageTypesSize > 0 {
		return s.PageTypesSize
	}
	return s.Pages
}

// Generate writes the input datasets: pageVisitLog1..Days and (when
// WithPageTypes) pageTypes. Generation is deterministic in Seed.
func (s VisitCountSpec) Generate(st store.Store) error {
	r := rand.New(rand.NewSource(s.Seed))
	for day := 1; day <= s.Days; day++ {
		elems := make([]val.Value, s.VisitsPerDay)
		for i := range elems {
			elems[i] = val.Str(pageID(r.Intn(s.Pages)))
		}
		if err := st.WriteDataset(fmt.Sprintf("pageVisitLog%d", day), elems); err != nil {
			return err
		}
	}
	if s.WithPageTypes {
		n := s.pageTypesSize()
		types := make([]val.Value, n)
		for i := range types {
			t := "article"
			if i%3 == 0 {
				t = "index"
			}
			types[i] = val.Pair(val.Str(pageID(i)), val.Str(t))
		}
		if err := st.WriteDataset("pageTypes", types); err != nil {
			return err
		}
	}
	return nil
}

func pageID(i int) string { return fmt.Sprintf("page%d", i) }

// The Visit Count lambdas, in the text Script writes. The baselines compile
// the same text (dayBody), so all three systems run the same UDFs.
const (
	withOne   = "x => (x, 1)"
	isArticle = `t => t.1 == "article"`
	pageOf    = "t => t.0"
	addCounts = "(a, b) => a + b"
	absDiff   = "t => abs(t.1 - t.2)"
)

// Script returns the Mitos program for the spec — the imperative source of
// the paper's Sec. 2 example.
func (s VisitCountSpec) Script() string {
	src := "yesterdayCounts = empty()\n"
	if s.WithPageTypes {
		src += `pageTypes = readFile("pageTypes")` + "\n"
	}
	src += "day = 1\ndo {\n"
	if s.WithPageTypes {
		// The static pageTypes dataset is the hash-join build side, so
		// loop-invariant hoisting builds its table once (paper Sec. 5.3).
		src += `  rawVisits = readFile("pageVisitLog" + day)
  tagged = pageTypes.join(rawVisits.map(` + withOne + `))
  visits = tagged.filter(` + isArticle + `).map(` + pageOf + `)
`
	} else {
		src += `  visits = readFile("pageVisitLog" + day)` + "\n"
	}
	src += "  counts = visits.map(" + withOne + ").reduceByKey(" + addCounts + ")\n"
	if s.WithDiff {
		src += `  if (day != 1) {
    diffs = counts.join(yesterdayCounts).map(` + absDiff + `)
    diffs.sum().writeFile("diff" + day)
  }
`
	} else {
		src += `  counts.writeFile("counts" + day)` + "\n"
	}
	src += `  yesterdayCounts = counts
  day = day + 1
} while (day <= ` + fmt.Sprint(s.Days) + ")\n"
	return src
}

// CompileMitos compiles the spec's script to SSA.
func (s VisitCountSpec) CompileMitos() (*ir.Graph, error) {
	prog, err := lang.Parse(s.Script())
	if err != nil {
		return nil, err
	}
	if _, err := lang.Check(prog); err != nil {
		return nil, err
	}
	return ir.CompileToSSA(prog)
}

// RunMitos executes the Visit Count task on the Mitos runtime.
func RunMitos(s VisitCountSpec, st store.Store, cl *cluster.Cluster, opts core.Options) (*core.Result, error) {
	g, err := s.CompileMitos()
	if err != nil {
		return nil, err
	}
	return core.Execute(g, st, cl, opts)
}

// mustLambda compiles a lambda from its script text, one of this package's
// constants: a text that does not compile is a bug, not a run's error. The
// parser reads programs, so the lambda is parsed as a map's argument.
func mustLambda(src string) *lang.UDF {
	prog, err := lang.Parse("f = b.map(" + src + ")")
	if err != nil {
		panic(err)
	}
	f, err := lang.MakeUDF(prog.Stmts[0].(*lang.AssignStmt).RHS.(*lang.Method).Args[0])
	if err != nil {
		panic(err)
	}
	return f
}

// The baselines run one day body under three orchestrations. It is written
// once, in two halves, because the orchestrations differ in what happens
// between them (Spark caches the counts) and in where yesterday's counts
// come from.

// dayBody is the spec with its script's lambdas, compiled once per run from
// the text Script writes.
type dayBody struct {
	VisitCountSpec
	withOne, isArticle, pageOf, addCounts, absDiff *lang.UDF
}

func (s VisitCountSpec) dayBody() *dayBody {
	return &dayBody{s, mustLambda(withOne), mustLambda(isArticle), mustLambda(pageOf),
		mustLambda(addCounts), mustLambda(absDiff)}
}

// dayCounts is the first half of the day body, up to the per-page counts:
//
//	visits → [static join → filter article → project] → (x, 1) → ReduceByKey
//
// pageTypes is the loop-invariant build side (nil unless WithPageTypes).
func (b *dayBody) dayCounts(sess *baseline.Session, pageTypes *baseline.Dataset, day int) *baseline.Dataset {
	visits := sess.ReadFile(fmt.Sprintf("pageVisitLog%d", day))
	if b.WithPageTypes {
		// (page, type, 1) triples. Whether the build side's hash table is
		// built once or every day is the session's policy (Fig. 8).
		visits = visits.Map(b.withOne).JoinStatic(pageTypes).Filter(b.isArticle).Map(b.pageOf)
	}
	return visits.Map(b.withOne).ReduceByKey(b.addCounts)
}

// emitDay is the second half: the day's output, each variant one action.
//
//	[join yesterday → |diff| → Sum → diff<day>] | counts<day>
//
// The diff variant has nothing to emit on day 1, whatever yesterday is.
func (b *dayBody) emitDay(st store.Store, counts, yesterday *baseline.Dataset, day int) error {
	if !b.WithDiff {
		return counts.WriteFile(fmt.Sprintf("counts%d", day))
	}
	if day == 1 {
		return nil
	}
	sum, err := counts.Join(yesterday).Map(b.absDiff).Sum()
	if err != nil {
		return err
	}
	return st.WriteDataset(fmt.Sprintf("diff%d", day), []val.Value{sum})
}

// RunSpark executes the Visit Count task Spark-style: imperative control
// flow in the driver, one job launch per action, no cross-job operator
// state. The loop-invariant pageTypes dataset is cached once before the
// loop, as the paper's Spark implementation does — but the join hash table
// is still rebuilt every step.
func RunSpark(s VisitCountSpec, st store.Store, cl *cluster.Cluster) error {
	body := s.dayBody()
	sess := baseline.Spark(cl, st)
	var pageTypes *baseline.Dataset
	if s.WithPageTypes {
		pageTypes = sess.ReadFile("pageTypes").Cache()
		// Materialize the cached partitioning once, before the loop.
		if _, err := pageTypes.Count(); err != nil {
			return err
		}
	}
	var yesterday *baseline.Dataset
	for day := 1; day <= s.Days; day++ {
		counts := body.dayCounts(sess, pageTypes, day).Cache()
		if err := body.emitDay(st, counts, yesterday, day); err != nil {
			return err
		}
		if s.WithDiff && day == 1 {
			// No action has touched day 1 yet: materialize it.
			if _, err := counts.Count(); err != nil {
				return err
			}
		}
		yesterday = counts
	}
	return nil
}

// RunFlinkNative executes Visit Count as one native iteration under the
// Flink policy: one job, superstep barriers (each charged penaltyPerOp per
// operator of the body), the pageTypes table hoisted. The per-step file
// reads use the lenient step-indexed source (Flink's real API cannot
// express them — paper Sec. 2).
func RunFlinkNative(s VisitCountSpec, st store.Store, cl *cluster.Cluster, penaltyPerOp time.Duration) error {
	body := s.dayBody()
	sess := baseline.Flink(cl, st)
	sess.PenaltyPerOp = penaltyPerOp
	var pageTypes *baseline.Dataset
	if s.WithPageTypes {
		pageTypes = sess.ReadFile("pageTypes")
	}
	_, err := sess.Iterate(sess.FromSlice(nil), s.Days, func(day int, yesterday *baseline.Dataset) (*baseline.Dataset, error) {
		counts := body.dayCounts(sess, pageTypes, day)
		return counts, body.emitDay(st, counts, yesterday, day)
	})
	return err
}
