package core

import (
	"fmt"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// TestBufferedBagsBoundedByGC runs loops of very different lengths and
// checks that the per-host input-bag high-water mark does not grow with
// the iteration count: the monotone input-position rule garbage-collects
// superseded bags (paper Sec. 5.2.4).
func TestBufferedBagsBoundedByGC(t *testing.T) {
	run := func(iters int) int64 {
		src := fmt.Sprintf(`
acc = readFile("seed")
i = 0
while (i < %d) {
  acc = acc.map(x => (x.0, x.1 + 1)).reduceByKey((a, b) => a + b)
  i = i + 1
}
acc.writeFile("out")
`, iters)
		g := compile(t, src)
		cl, err := cluster.New(cluster.FastConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st := store.NewMemStore()
		st.WriteDataset("seed", []val.Value{
			val.Pair(val.Str("a"), val.Int(0)),
			val.Pair(val.Str("b"), val.Int(0)),
		})
		res, err := Execute(g, st, cl, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxBufferedBags
	}
	short, long := run(5), run(80)
	if long > short*4 {
		t.Errorf("buffered bags grow with iterations: %d @5 iters vs %d @80 iters", short, long)
	}
	if long == 0 {
		t.Error("high-water mark not recorded")
	}
}

// TestNonPipelinedStrictOrder: with pipelining off, no operator may start
// an iteration step before every operator finished the previous one. We
// observe this through the coordinator: in non-pipelined mode the number
// of barriers equals the number of path positions after the first.
func TestNonPipelinedStrictOrder(t *testing.T) {
	src := `
i = 0
while (i < 6) {
  i = i + 1
}
newBag(i).writeFile("out")
`
	g := compile(t, src)
	cl, err := cluster.New(cluster.FastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := store.NewMemStore()
	res, err := Execute(g, st, cl, Options{Pipelining: false, Hoisting: true})
	if err != nil {
		t.Fatal(err)
	}
	barriers := cl.Stats().Barriers
	if want := int64(res.Steps - 1); barriers != want {
		t.Errorf("barriers = %d, want %d (one per step boundary)", barriers, want)
	}
	out, _ := st.ReadDataset("out")
	if len(out) != 1 || out[0].AsInt() != 6 {
		t.Errorf("out = %v", out)
	}
}

// TestPipelinedNoBarriers: the pipelined coordinator never uses cluster
// barriers; control flow advances through asynchronous broadcasts only.
func TestPipelinedNoBarriers(t *testing.T) {
	src := `
i = 0
while (i < 6) {
  i = i + 1
}
newBag(i).writeFile("out")
`
	g := compile(t, src)
	cl, err := cluster.New(cluster.FastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := store.NewMemStore()
	if _, err := Execute(g, st, cl, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if got := cl.Stats().Barriers; got != 0 {
		t.Errorf("pipelined run used %d barriers", got)
	}
}
