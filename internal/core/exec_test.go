package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/testprog"
	"github.com/mitos-project/mitos/internal/val"
)

func compile(t *testing.T, src string) *ir.Graph {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	g, err := ir.CompileToSSA(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return g
}

func groundTruth(t *testing.T, c testprog.Case) *store.MemStore {
	t.Helper()
	st := store.NewMemStore()
	if err := c.Setup(st); err != nil {
		t.Fatalf("setup: %v", err)
	}
	prog, err := lang.Parse(c.Src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.RunAST(prog, st); err != nil {
		t.Fatalf("AST interpreter: %v", err)
	}
	return st
}

func diffStores(t *testing.T, want, got *store.MemStore) {
	t.Helper()
	wn, gn := want.Names(), got.Names()
	if !reflect.DeepEqual(wn, gn) {
		t.Errorf("dataset names differ:\n want %v\n got  %v", wn, gn)
		return
	}
	for _, name := range wn {
		we, _ := want.ReadDataset(name)
		ge, _ := got.ReadDataset(name)
		if !bag.Equal(we, ge) {
			t.Errorf("dataset %q differs:\n want %v\n got  %v", name, bag.Sorted(we), bag.Sorted(ge))
		}
	}
}

// TestExecuteMatchesGroundTruth is the central differential test of the
// reproduction: the distributed Mitos runtime — under every combination of
// pipelining and loop-invariant hoisting, at several cluster sizes — must
// produce exactly the outputs of the sequential AST interpreter on every
// corpus program (including the paper's Fig. 4 coordination hazards).
func TestExecuteMatchesGroundTruth(t *testing.T) {
	configs := []struct {
		machines   int
		pipelining bool
		hoisting   bool
		combiners  bool
		chaining   bool
	}{
		{1, true, true, false, false},
		{2, true, true, false, false},
		{4, true, true, false, false},
		{4, false, true, false, false},
		{4, true, false, false, false},
		{4, false, false, false, false},
		{3, true, true, false, false},
		{4, true, true, true, false},
		{2, false, true, true, false},
		{3, true, false, true, false},
		{1, true, true, true, true},
		{4, true, true, true, true},
		{2, false, true, false, true},
		{3, true, false, true, true},
		{4, false, false, false, true},
	}
	for _, c := range testprog.Cases() {
		g := compile(t, c.Src)
		want := groundTruth(t, c)
		for _, cfg := range configs {
			name := fmt.Sprintf("%s/m%d_pipe%t_hoist%t_comb%t_chain%t", c.Name, cfg.machines, cfg.pipelining, cfg.hoisting, cfg.combiners, cfg.chaining)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cl, err := cluster.New(cluster.FastConfig(cfg.machines))
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				st := store.NewMemStore()
				if err := c.Setup(st); err != nil {
					t.Fatal(err)
				}
				res, err := Execute(g, st, cl, Options{
					Pipelining: cfg.pipelining,
					Hoisting:   cfg.hoisting,
					Combiners:  cfg.combiners,
					Chaining:   cfg.chaining,
				})
				if err != nil {
					t.Fatalf("Execute: %v", err)
				}
				if res.Steps < 1 {
					t.Errorf("Steps = %d", res.Steps)
				}
				diffStores(t, want, st)
			})
		}
	}
}

func TestExecuteSmallBatches(t *testing.T) {
	// Batch size 1 exercises every flush path and maximizes interleaving.
	for _, c := range testprog.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			g := compile(t, c.Src)
			want := groundTruth(t, c)
			cl, err := cluster.New(cluster.FastConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			st := store.NewMemStore()
			if err := c.Setup(st); err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.BatchSize = 1
			if _, err := Execute(g, st, cl, opts); err != nil {
				t.Fatalf("Execute: %v", err)
			}
			diffStores(t, want, st)
		})
	}
}

func TestExecuteHigherParallelismThanMachines(t *testing.T) {
	c := testprog.Cases()[2] // visitcount-diff
	g := compile(t, c.Src)
	want := groundTruth(t, c)
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := store.NewMemStore()
	if err := c.Setup(st); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Parallelism = 5
	if _, err := Execute(g, st, cl, opts); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	diffStores(t, want, st)
}

func TestExecuteErrorPropagation(t *testing.T) {
	g := compile(t, `a = readFile("missing")
a.writeFile("out")`)
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := store.NewMemStore()
	_, err = Execute(g, st, cl, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("Execute error = %v, want dataset-not-found", err)
	}
}

func TestExecuteRuntimeUDFError(t *testing.T) {
	g := compile(t, `a = readFile("d")
b = a.map(x => x / 0)
b.writeFile("out")`)
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := store.NewMemStore()
	if err := st.WriteDataset("d", []val.Value{val.Int(1), val.Int(2)}); err != nil {
		t.Fatal(err)
	}
	_, err = Execute(g, st, cl, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("Execute error = %v, want division by zero", err)
	}
}

// TestExecuteEffectFreeProgram: dead-code elimination can leave a program
// with no instructions at all; the coordinator must still terminate.
func TestExecuteEffectFreeProgram(t *testing.T) {
	g := compile(t, `x = 1
y = x + 2`)
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := Execute(g, store.NewMemStore(), cl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 1 {
		t.Errorf("Steps = %d", res.Steps)
	}
}

// TestExecuteLoopOnlyConditions: a program that is nothing but control
// flow (every step's work is deciding the next step) completes in both
// modes.
func TestExecuteLoopOnlyConditions(t *testing.T) {
	g := compile(t, `
i = 0
j = 0
while (i < 4) {
  j = 0
  while (j < 3) {
    j = j + 1
  }
  i = i + 1
}
newBag(i * 10 + j).writeFile("out")
`)
	for _, pipe := range []bool{true, false} {
		cl, err := cluster.New(cluster.FastConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		st := store.NewMemStore()
		if _, err := Execute(g, st, cl, Options{Pipelining: pipe, Hoisting: true}); err != nil {
			cl.Close()
			t.Fatalf("pipelining=%t: %v", pipe, err)
		}
		out, _ := st.ReadDataset("out")
		if len(out) != 1 || out[0].AsInt() != 43 {
			t.Errorf("pipelining=%t: out = %v, want [43]", pipe, out)
		}
		cl.Close()
	}
}
