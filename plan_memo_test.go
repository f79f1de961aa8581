package mitos

import (
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/val"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// memoSpec is a workload with a join, combiners and chains in a loop.
var memoSpec = workload.VisitCountSpec{Days: 4, VisitsPerDay: 400, Pages: 50, WithDiff: true, WithPageTypes: true, Seed: 9}

// memoOracle compiles memoSpec and runs it on the sequential interpreter.
func memoOracle(t *testing.T) (*Program, *store.MemStore) {
	t.Helper()
	p, err := Compile(memoSpec.Script())
	if err != nil {
		t.Fatal(err)
	}
	want := memoStore(t)
	if err := p.RunSequential(want); err != nil {
		t.Fatal(err)
	}
	return p, want
}

func memoStore(t *testing.T) *store.MemStore {
	t.Helper()
	st := store.NewMemStore()
	if err := memoSpec.Generate(st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestProgramConcurrentRuns: goroutines running one Program at once share
// its plan — with equal options — or take turns replacing it — with
// different ones — and every run's outputs match the sequential
// interpreter's as bags. Runs at the default batch size share the Program's
// free lists, and a run at batch size 3 has lists of its own beside one that
// shares them. Run with -race: a write to a shared plan or to shared lists
// during execution is a race between the two runs.
func TestProgramConcurrentRuns(t *testing.T) {
	p, want := memoOracle(t)
	for _, cfgs := range [][2]Config{
		{{Machines: 3}, {Machines: 3}},
		{{Machines: 3}, {Machines: 3, DisableCombiners: true}},
		{{Machines: 3}, {Machines: 3, BatchSize: 3}},
	} {
		var wg sync.WaitGroup
		for _, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st := memoStore(t)
				if _, err := p.Run(st, cfg); err != nil {
					t.Error(err)
					return
				}
				if err := diffBags(want, st); err != nil {
					t.Errorf("%+v: %v", cfg, err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestProgramPlanMemo: Program.Run plans through the program's memo — a
// repeated configuration reuses the kept plan, a changed plan option
// replaces it — and its outputs match the sequential interpreter's.
func TestProgramPlanMemo(t *testing.T) {
	p, want := memoOracle(t)
	cfg := Config{Machines: 3}
	run := func(cfg Config) {
		t.Helper()
		st := memoStore(t)
		if _, err := p.Run(st, cfg); err != nil {
			t.Fatal(err)
		}
		if err := diffBags(want, st); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
	kept := func() *core.Plan {
		t.Helper()
		plan, err := p.plan(3, cfg.options())
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	run(cfg)
	first := kept()
	run(cfg)
	if kept() != first {
		t.Error("a second run with the same configuration planned again")
	}
	run(Config{Machines: 3, DisableTemplates: true, DisableHoisting: true})
	if kept() != first {
		t.Error("options outside the plan key replaced the kept plan")
	}
	run(Config{Machines: 3, DisableChaining: true})
	if kept() == first {
		t.Error("a run with chaining off did not replace the kept plan")
	}
}

// TestProgramKeepsFreeLists: the jobs of one Program draw their batch
// buffers and arenas from the free lists its plan memo keeps, so a second
// identical job finds what the first recycled. Over the three jobs after the
// first (one job's peak demand varies with timing) they must draw at least
// 90 % of their batches from the lists, and allocate no more arenas than 10 %
// of those they draw plus the arenas any of the four jobs' vertices
// retained: a retained arena goes to the collector, never back to the lists,
// so each one an earlier job kept is missing from them and each one a later
// job keeps must be replaced. A job at another batch size gets lists of its
// own and leaves the kept ones alone. The counts come from dataflow's
// free-list and arena hooks.
func TestProgramKeepsFreeLists(t *testing.T) {
	p, want := memoOracle(t)
	// draws counts draws by [kept lists][arena][miss].
	var draws [2][2][2]atomic.Int64
	dataflow.SetFreeListHook(func(lent, arena, miss bool) { draws[b2i(lent)][b2i(arena)][b2i(miss)].Add(1) })
	t.Cleanup(func() { dataflow.SetFreeListHook(nil) })
	var retained atomic.Int64
	dataflow.SetArenaHook(func(_ string, _, kept bool, slots []val.Value) {
		if kept {
			retained.Add(1)
		}
		clear(slots)
	})
	t.Cleanup(func() { dataflow.SetArenaHook(nil) })
	reset := func() {
		for i := range draws {
			for j := range draws[i] {
				draws[i][j][0].Store(0)
				draws[i][j][1].Store(0)
			}
		}
	}
	run := func(cfg Config) {
		t.Helper()
		st := memoStore(t)
		if _, err := p.Run(st, cfg); err != nil {
			t.Fatal(err)
		}
		if err := diffBags(want, st); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
	cfg := Config{Machines: 3}
	run(cfg)
	reset()
	for range 3 {
		run(cfg)
	}
	kept, own := &draws[1], &draws[0]
	for arena, what := range []string{"batches", "arenas"} {
		hits, misses := kept[arena][0].Load(), kept[arena][1].Load()
		allowed := (hits + misses) / 10
		if arena == 1 {
			allowed += retained.Load()
		}
		switch {
		case hits+misses == 0:
			t.Errorf("the later jobs drew no %s from the kept lists", what)
		case misses > allowed:
			t.Errorf("the later jobs drew %d %s from the kept lists and allocated %d, more than %d", hits, what, misses, allowed)
		}
		if n := own[arena][0].Load() + own[arena][1].Load(); n != 0 {
			t.Errorf("the later jobs drew %d %s from lists of their own", n, what)
		}
	}
	reset()
	run(Config{Machines: 3, BatchSize: 3})
	for arena, what := range []string{"batches", "arenas"} {
		if n := kept[arena][0].Load() + kept[arena][1].Load(); n != 0 {
			t.Errorf("a job of batch size 3 drew %d %s from the kept lists of size %d", n, what, dataflow.DefaultBatchSize)
		}
		if own[arena][0].Load()+own[arena][1].Load() == 0 {
			t.Errorf("a job of batch size 3 drew no %s from lists of its own", what)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
