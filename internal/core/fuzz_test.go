package core

import (
	"fmt"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/testprog"
)

// TestFuzzDifferential generates random well-typed control-flow programs
// and checks that the distributed runtime agrees with the sequential AST
// interpreter on every one of them, under a different joint setting of the
// six optimization switches for every seed.
// This is the broad-coverage safety net behind the hand-written corpus.
func TestFuzzDifferential(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			refStore := store.NewMemStore()
			src, err := testprog.GenProgram(refStore, seed)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(src)
			if err != nil {
				t.Fatalf("generated program does not parse: %v\n%s", err, src)
			}
			if _, err := lang.Check(prog); err != nil {
				t.Fatalf("generated program does not check: %v\n%s", err, src)
			}
			if err := ir.RunAST(prog, refStore); err != nil {
				t.Fatalf("AST interpreter: %v\n%s", err, src)
			}

			g, err := ir.CompileToSSA(prog)
			if err != nil {
				t.Fatalf("compile: %v\n%s", err, src)
			}

			// Each switch is off iff its own seed bit is set, so the seeds
			// sample the six jointly and seed 0 is the all-on default.
			machines := 1 + int(seed%4)
			on := func(k uint) bool { return seed>>k&1 == 0 }
			opts := Options{
				Pipelining: on(0),
				Hoisting:   on(1),
				Combiners:  on(2),
				Chaining:   on(3),
				Templates:  on(4),
				Delta:      on(5),
			}
			repro := fmt.Sprintf("seed=%d machines=%d pipelining=%t hoisting=%t combiners=%t chaining=%t templates=%t delta=%t",
				seed, machines, opts.Pipelining, opts.Hoisting, opts.Combiners, opts.Chaining, opts.Templates, opts.Delta)
			cl, err := cluster.New(cluster.FastConfig(machines))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			distStore := store.NewMemStore()
			if _, err := testprog.GenProgram(distStore, seed); err != nil {
				t.Fatal(err)
			}
			if _, err := Execute(g, distStore, cl, opts); err != nil {
				t.Fatalf("Execute (%s): %v\n%s", repro, err, src)
			}
			diffStores(t, refStore, distStore)
			if t.Failed() {
				t.Logf("repro: %s\nprogram:\n%s", repro, src)
			}
		})
	}
}
