package core_test

import (
	"sync"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/dfs"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/netcluster"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
	"github.com/mitos-project/mitos/internal/workload"
)

// streamTally counts, through core.SetBatchHook, the elements that reached
// operator logic as they arrived (streamed) and those that waited in an
// input-bag buffer (buffered), overall, on chained edges, on edges from a
// lending producer — where a buffered element is one the consumer copied —
// and per operator. Only a chained edge can buffer a lent element: one that
// arrives over a batching edge was encoded or copied as it was emitted. It
// also counts, per operator, through dataflow.SetArenaHook, the batches on
// in-place edges whose arenas were recycled and those the host retained
// because it buffered one of their elements.
type streamTally struct {
	mu                 sync.Mutex
	all, chained, lent shareCount
	byOp               map[string]*shareCount
	arenas             map[string]*arenaCount
}

type shareCount struct{ streamed, buffered int }

type arenaCount struct{ recycled, retained int }

func (c shareCount) frac() float64 {
	return float64(c.buffered) / float64(max(c.streamed+c.buffered, 1))
}

// install sets the hook; the returned function removes it. Install before
// any worker goroutine that may run a host starts, remove after all have
// exited.
func (s *streamTally) install() func() {
	s.byOp = map[string]*shareCount{}
	s.arenas = map[string]*arenaCount{}
	dataflow.SetArenaHook(func(op string, _, retained bool, _ []val.Value) {
		s.mu.Lock()
		defer s.mu.Unlock()
		a := s.arenas[op]
		if a == nil {
			a = &arenaCount{}
			s.arenas[op] = a
		}
		if retained {
			a.retained++
		} else {
			a.recycled++
		}
	})
	core.SetBatchHook(func(op string, ch, lent bool, streamed, buffered int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.all.streamed += streamed
		s.all.buffered += buffered
		if ch {
			s.chained.streamed += streamed
			s.chained.buffered += buffered
		}
		if lent {
			s.lent.streamed += streamed
			s.lent.buffered += buffered
		}
		o := s.byOp[op]
		if o == nil {
			o = &shareCount{}
			s.byOp[op] = o
		}
		o.streamed += streamed
		o.buffered += buffered
	})
	return func() {
		core.SetBatchHook(nil)
		dataflow.SetArenaHook(nil)
	}
}

// logParked logs, per operator, the batches that waited in their link
// (dataflow.InputGate): the obs registry's batches_parked, summed over
// machines.
func logParked(t *testing.T, snap *obs.Snapshot) {
	parked := map[string]int64{}
	for _, c := range snap.Counters {
		if c.Name == "batches_parked" {
			parked[c.Op] += c.Value
		}
	}
	for op, n := range parked {
		if n > 0 {
			t.Logf("  %-24s %8d batches parked", op, n)
		}
	}
}

func (s *streamTally) log(t *testing.T) {
	t.Logf("all edges: %d streamed, %d buffered (%.2f%% buffered)", s.all.streamed, s.all.buffered, 100*s.all.frac())
	t.Logf("chained edges: %d streamed, %d buffered (%.2f%% buffered)", s.chained.streamed, s.chained.buffered, 100*s.chained.frac())
	t.Logf("lent elements: %d read in place, %d copied (%.2f%% copied)", s.lent.streamed, s.lent.buffered, 100*s.lent.frac())
	for op, o := range s.byOp {
		if o.buffered > 0 {
			t.Logf("  %-24s %8d streamed %8d buffered", op, o.streamed, o.buffered)
		}
	}
	for op, a := range s.arenas {
		t.Logf("batch arenas of %-24s %6d recycled %6d retained", op, a.recycled, a.retained)
	}
}

// TestStreamedShare measures, on the data shape of each benchmark workload
// that moves elements, how many elements reach operator logic without being
// buffered — overall and on chained edges. The overall share depends on
// scheduling (a bag that arrives before its output starts is buffered by
// design); the chained share does not. A chain's members take each path
// segment consumer first, so a member that emits from its control callback
// (a readFile whose file name is in, a phi whose loop-body bag is complete, a
// deltaMerge) reaches consumers already running the bag it feeds. When the
// segment went to the producer first, the chained-edge shares were 29 of
// 626 115 elements (visitcount_bulk, where no head emits from control),
// 26–35 % (connected_delta, 6 runs) and 18–26 % (visitcount_tcp, in 4 of 5
// runs; the fifth happened to read 0.05 %). Consumer first, they are 21
// elements, 0 and 237–437 (at most 0.08 %). DESIGN.md Sec. 16 quotes the
// numbers.
//
// The same holds for lent elements (PlanOp.Lends) on chained edges: a
// consumer copies one only when it buffers it, so a lending producer whose
// elements mostly got copied would lend in name only. Both Visit Count shapes
// lend their (x, 1) pair to a chained reader — visitcount_tcp's combiner,
// visitcount_bulk's reduceByKey over a forward keyed edge — and must read at
// least 99.5 % of it in place; connected_delta lends only over batching
// edges (its combiner's pairs to deltaMerge, its loop body's pairs to the
// phi's back edge), so no chained slot sees a lent element.
//
// On visitcount_bulk, a host leaves in its link what it could only buffer
// and would read live later (host.Accepts): a probe during its join's build,
// a later day's bag while a day's output is open. So under 10 % of all its
// elements are buffered (28.6 % when every batch was taken in arrival order),
// and the hoisted join tagged.1 retains under 5 % of its batch arenas (about
// half before). -v logs each operator's batches_parked.
func TestStreamedShare(t *testing.T) {
	short := testing.Short()
	for _, c := range []struct {
		name  string
		lends bool
		run   func(t *testing.T) *obs.Snapshot
	}{
		{"visitcount_bulk", true, func(t *testing.T) *obs.Snapshot {
			spec := workload.VisitCountSpec{Days: 6, VisitsPerDay: 25000, Pages: 2500, WithDiff: true, WithPageTypes: true, Seed: 1}
			if short {
				spec.VisitsPerDay, spec.Pages = 2500, 250
			}
			return runVisitCountSim(t, spec)
		}},
		{"connected_delta", false, func(t *testing.T) *obs.Snapshot {
			spec := workload.ConnectedSpec{PairChains: 15000, LongChains: 8, LongLen: 64}
			if short {
				spec.PairChains, spec.LongLen = 1500, 16
			}
			return runConnectedSim(t, spec)
		}},
		{"visitcount_tcp", true, func(t *testing.T) *obs.Snapshot {
			// The benchmark's workload runs on two loopback TCP workers,
			// without the pageTypes join.
			// -short keeps the daily visits: the few bags a loaded machine
			// delivers early on a chained edge (the day number, the page
			// counts) do not grow with the visits, so on fewer visits they
			// alone could exceed the bound.
			spec := workload.VisitCountSpec{Days: 60, VisitsPerDay: 4000, Pages: 400, WithDiff: true, Seed: 1}
			if short {
				spec.Days, spec.Pages = 20, 100
			}
			return runVisitCountTCP(t, spec)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s streamTally
			remove := s.install()
			snap := c.run(t)
			remove()
			s.log(t)
			logParked(t, snap)
			if s.chained.streamed == 0 {
				t.Error("no element streamed over a chained edge")
			}
			if f := s.chained.frac(); f > 0.005 {
				t.Errorf("%.2f%% of the elements on chained edges were buffered, want at most 0.5%%", 100*f)
			}
			if got := s.lent.streamed+s.lent.buffered > 0; got != c.lends {
				t.Errorf("lent elements seen: %t, want %t", got, c.lends)
			}
			if f := s.lent.frac(); f > 0.005 {
				t.Errorf("%.2f%% of the lent elements were copied into a buffer, want at most 0.5%%", 100*f)
			}
			if c.name != "visitcount_bulk" {
				return
			}
			if f := s.all.frac(); f >= 0.10 {
				t.Errorf("%.2f%% of all elements were buffered, want under 10%%", 100*f)
			}
			a := s.arenas["tagged.1"]
			if a == nil {
				t.Fatal("no batch arena reached tagged.1: the test no longer sees the hoisted join")
			}
			if f := float64(a.retained) / float64(a.recycled+a.retained); f >= 0.05 {
				t.Errorf("tagged.1 retained %d of %d batch arenas (%.1f%%), want under 5%%", a.retained, a.recycled+a.retained, 100*f)
			}
		})
	}
}

// The runs below attach an observer and return its final snapshot.

func runVisitCountSim(t *testing.T, spec workload.VisitCountSpec) *obs.Snapshot {
	st := dfs.New(dfs.Config{BlockSize: 2048})
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.FastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	opts := core.DefaultOptions()
	opts.Obs = obs.New()
	if _, err := workload.RunMitos(spec, st, cl, opts); err != nil {
		t.Fatal(err)
	}
	return opts.Obs.Reg().Snapshot()
}

func runVisitCountTCP(t *testing.T, spec workload.VisitCountSpec) *obs.Snapshot {
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	c, cleanup, err := netcluster.StartLocal(2, netcluster.CoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	opts := core.DefaultOptions()
	opts.Obs = obs.New()
	if _, err := c.Run(spec.Script(), st, opts); err != nil {
		t.Fatal(err)
	}
	return c.FederatedSnapshot()
}

// runConnectedSim runs connected components on four simulated machines and
// checks every node's label against a union-find over the edges.
func runConnectedSim(t *testing.T, spec workload.ConnectedSpec) *obs.Snapshot {
	st := dfs.New(dfs.Config{BlockSize: 2048})
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	g, err := spec.CompileMitos()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.FastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	opts := core.DefaultOptions()
	opts.Obs = obs.New()
	if _, err := core.Execute(g, st, cl, opts); err != nil {
		t.Fatal(err)
	}
	checkComponents(t, st, spec.Nodes())
	return opts.Obs.Reg().Snapshot()
}

// checkComponents compares the "components" output — (node, label) pairs —
// with a union-find over "edges": each node's label must be the smallest
// node ID of its component.
func checkComponents(t *testing.T, st store.Store, nodes int) {
	t.Helper()
	parent := make([]int64, nodes)
	for i := range parent {
		parent[i] = int64(i)
	}
	var find func(x int64) int64
	find = func(x int64) int64 {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	edges, err := st.ReadDataset("edges")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		a, b := find(e.Field(0).AsInt()), find(e.Field(1).AsInt())
		parent[max(a, b)] = min(a, b) // the root stays the component minimum
	}
	comp, err := st.ReadDataset("components")
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) != nodes {
		t.Fatalf("%d labeled nodes, want %d", len(comp), nodes)
	}
	seen := make([]bool, nodes)
	for _, p := range comp {
		u, label := p.Field(0).AsInt(), p.Field(1).AsInt()
		if seen[u] {
			t.Fatalf("node %d labeled twice", u)
		}
		seen[u] = true
		if want := find(u); label != want {
			t.Fatalf("node %d labeled %d, union-find says %d", u, label, want)
		}
	}
}

// TestSolutionSlotBuffersNothing: the edge from a deltaMerge to its
// solution() only names the step whose state to dump, so the solution's
// slot drops its elements on arrival — none is ever buffered — and the dump
// is still the right one.
func TestSolutionSlotBuffersNothing(t *testing.T) {
	spec := workload.ConnectedSpec{PairChains: 3000, LongChains: 4, LongLen: 32}
	g, err := spec.CompileMitos()
	if err != nil {
		t.Fatal(err)
	}
	var solution string
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == ir.OpSolution {
				solution = in.Var
			}
		}
	}
	if solution == "" {
		t.Fatal("connected components has no solution()")
	}
	var s streamTally
	remove := s.install()
	runConnectedSim(t, spec)
	remove()
	got := s.byOp[solution]
	if got == nil {
		t.Fatalf("no element reached %s: the test no longer sees its slot", solution)
	}
	if got.buffered != 0 {
		t.Errorf("%s buffered %d of %d elements, want 0", solution, got.buffered, got.streamed+got.buffered)
	}
}
