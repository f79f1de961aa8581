package mitos

import (
	"sync"
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
// interpreter's as bags. Run with -race: a write to a shared plan during
// execution is a race between the two runs.
func TestProgramConcurrentRuns(t *testing.T) {
	p, want := memoOracle(t)
	for _, cfgs := range [][2]Config{
		{{Machines: 3}, {Machines: 3}},
		{{Machines: 3}, {Machines: 3, DisableCombiners: true}},
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
