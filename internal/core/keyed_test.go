package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// joinBuildSide is a build side of n unique keys, as pageTypes is.
func joinBuildSide(n int) []val.Value {
	out := make([]val.Value, n)
	for i := range out {
		out[i] = val.Pair(val.Int(int64(i)), val.Int(int64(i%7)))
	}
	return out
}

// buildJoinTable runs the join's build step over side on a bare host.
func buildJoinTable(tb testing.TB, h *host, side []val.Value) *val.Map[[]val.Value] {
	run := &outputRun{build: val.NewMap[[]val.Value](0)}
	for _, x := range side {
		if err := h.consume(run, 0, x); err != nil {
			tb.Fatal(err)
		}
	}
	return run.build
}

// TestJoinBuildGroupAllocs: a key that occurs once on the build side keeps
// its value in a slice carved from the host's slab, not in an allocation of
// its own, so building 1000 of them costs the table's growth steps and four
// slab chunks; a key with several values emits them in build order, and a
// hoisted table reused by a later output bag gives the same matches again.
func TestJoinBuildGroupAllocs(t *testing.T) {
	bare := newHost(&runtime{}, &PlanOp{Instr: &ir.Instr{Var: "j", Kind: ir.OpJoin}}, 0)
	side := joinBuildSide(1000)
	if n := testing.AllocsPerRun(10, func() {
		if got := buildJoinTable(t, bare, side).Len(); got != len(side) {
			t.Fatalf("built %d keys, want %d", got, len(side))
		}
	}); n > 30 {
		t.Errorf("building %d unique keys: %v allocs, want <= 30", len(side), n)
	}

	sink := &collector{}
	h := handFedHost(t, ir.OpJoin, nil, store.NewMemStore(), []ir.BlockID{0, 1}, sink)
	k, u := val.Str("k"), val.Str("u")
	visit(t, h, 0)
	feed(t, h, 0, 1, val.Pair(k, val.Int(1)), val.Pair(u, val.Int(9)), val.Pair(k, val.Int(2)), val.Pair(k, val.Int(3)))
	eob(t, h, 0, 1)
	want := []val.Value{
		val.Tuple(k, val.Int(1), val.Int(100)),
		val.Tuple(k, val.Int(2), val.Int(100)),
		val.Tuple(k, val.Int(3), val.Int(100)),
		val.Tuple(u, val.Int(9), val.Int(200)),
	}
	for pos := 2; pos <= 3; pos++ {
		visit(t, h, 1)
		feed(t, h, 1, pos, val.Pair(k, val.Int(100)), val.Pair(val.Str("absent"), val.Int(0)), val.Pair(u, val.Int(200)))
		eob(t, h, 1, pos)
		got := sink.bags[pos]
		if len(got) != len(want) {
			t.Fatalf("output bag %d = %v, want %v", pos, got, want)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Errorf("output bag %d, match %d = %v, want %v (build order)", pos, i, got[i], want[i])
			}
		}
	}
	if n := h.rt.joinBuilds.Load(); n != 1 {
		t.Errorf("%d join builds for two output bags over one build bag, want 1 (hoisted)", n)
	}
}

// BenchmarkHostJoinBuild is one join build of 1024 unique keys, per key.
func BenchmarkHostJoinBuild(b *testing.B) {
	h := newHost(&runtime{}, &PlanOp{Instr: &ir.Instr{Var: "j", Kind: ir.OpJoin}}, 0)
	side := joinBuildSide(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += len(side) {
		buildJoinTable(b, h, side)
	}
}

// TestSolutionApplyAllocs: merging a 1000-candidate step into a seeded
// 10 000-key solution set costs the changed pairs' slab chunks (127 pairs
// each) and a constant — no allocation per key probed, inserted or changed,
// and no changed slice regrown from nothing every step. A step that finds no
// changed scratch, as the first one does, sizes it in one allocation.
func TestSolutionApplyAllocs(t *testing.T) {
	s := &solutionStore{idx: val.NewMap[val.Value](0), created: time.Now()}
	seed := val.NewMap[val.Value](0)
	for i := 0; i < 10000; i++ {
		seed.Put(val.Int(int64(i)), val.Int(0))
	}
	lower := func(old, v val.Value) (val.Value, error) {
		if v.AsInt() < old.AsInt() {
			return v, nil
		}
		return old, nil
	}
	var slab val.Slab
	// Every step lowers 900 stored keys and inserts 100 new ones.
	const steps = 20
	cands := make([]*val.Map[val.Value], 2*steps+3)
	for r := range cands {
		cands[r] = val.NewMap[val.Value](0)
		for i := 0; i < 900; i++ {
			cands[r].Put(val.Int(int64(i*11)), val.Int(int64(-r-1)))
		}
		for i := 0; i < 100; i++ {
			cands[r].Put(val.Int(int64(10000+r*100+i)), val.Int(0))
		}
	}
	step := 0
	apply := func() {
		changed, st, err := s.apply(step+1, seed, cands[step], lower, true, 1000, &slab)
		if err != nil || len(changed) != 1000 || st.Changed != 1000 {
			t.Fatalf("step %d: %d changed (%+v), %v; want 1000", step, len(changed), st, err)
		}
		step++
	}
	apply() // seeds
	if n := testing.AllocsPerRun(steps, func() {
		s.changed = nil
		apply()
	}); n > 1+8+1 {
		t.Errorf("a 1000-candidate step without a changed scratch: %v allocs, want <= 10 (the scratch, 8 slab chunks and the step record)", n)
	}
	if n := testing.AllocsPerRun(steps, apply); n > 8+4 {
		t.Errorf("a 1000-candidate step: %v allocs, want <= 12 (8 slab chunks and a constant)", n)
	}
	if got, want := s.idx.Len(), 10000+100*step; got != want {
		t.Errorf("solution set holds %d keys, want %d", got, want)
	}
}

// lentCombine hand-feeds the shape of every Visit Count day: a copy with the
// map x => (x, 1) fused in as its stage, whose pairs go to its chained key
// combiner, lent when lends is set. Both hosts are running the output bag at
// position 2 of loopPlan's b1 when it returns; the test feeds the copy.
func lentCombine(tb testing.TB, lends bool) (m, c *host) {
	tb.Helper()
	mop := &PlanOp{Instr: &ir.Instr{Var: "m", Kind: ir.OpCopy}, Block: 1, Par: 1, Lends: lends,
		Stages: []Stage{{Instr: &ir.Instr{Var: "pairs", Kind: ir.OpMap, F: mustUDF(tb, pairUDF)}}},
		Inputs: []PlanInput{{Producer: &PlanOp{Instr: &ir.Instr{Var: "in0"}, Block: 1}, Part: dataflow.PartForward}}}
	cop := &PlanOp{ID: 1, Instr: &ir.Instr{Var: "c", Kind: ir.OpReduceByKey, F: mustUDF(tb, addUDF)}, Block: 1, Par: 1,
		Synth: SynthCombineByKey, Inputs: []PlanInput{{Producer: mop, Part: dataflow.PartForward, Chained: true}}}
	rt := handFedRuntime(store.NewMemStore())
	var g dataflow.Graph
	in := g.AddOp("in0", 1, func(int) dataflow.Vertex { return &collector{} })
	mid := g.AddOp("m", 1, func(int) dataflow.Vertex { m = newHost(rt, mop, 0); return m })
	cid := g.AddOp("c", 1, func(int) dataflow.Vertex { c = newHost(rt, cop, 0); return c })
	g.Connect(in, mid, 0, dataflow.PartForward)
	g.ConnectChained(mid, cid, 0)
	startHandFed(tb, &g)
	for _, h := range []*host{c, m} {
		visit(tb, h, 0)
		visit(tb, h, 1)
	}
	return m, c
}

// pageBatch is one 1024-element batch of bag 2 over 16 page names.
func pageBatch() []Element {
	batch := make([]Element, 1024)
	for i := range batch {
		batch[i] = Element{Tag: 2, Val: val.Str(fmt.Sprintf("page%02d", i%16))}
	}
	return batch
}

// TestLentPairAllocFree: a fused x => (x, 1) lending to its chained key
// combiner allocates nothing per element once the fold table holds every key
// — the pair lives in the host's lent tuple and the combiner keeps its fields
// — and folds what a carved pair folds. Carved, the same batch costs a slab
// chunk per 127 pairs, which is what tells the two apart.
func TestLentPairAllocFree(t *testing.T) {
	batch := pageBatch()
	const runs = 20
	for _, lends := range []bool{true, false} {
		m, c := lentCombine(t, lends)
		n := testing.AllocsPerRun(runs, func() {
			if err := m.OnBatch(0, 0, batch); err != nil {
				t.Fatal(err)
			}
		})
		if lends && n != 0 {
			t.Errorf("lent: %v allocs per %d-pair batch, want 0", n, len(batch))
		}
		if !lends && n < 4 {
			t.Errorf("carved: %v allocs per %d-pair batch, want a slab chunk per 127 pairs", n, len(batch))
		}
		if got := m.lent[1].IsValid(); got != lends {
			t.Errorf("lends=%t: the lent tuple was filled: %t", lends, got)
		}
		// AllocsPerRun makes one warm-up call besides the counted ones.
		if v, ok := c.cur.hash.Get(val.Str("page00")); !ok || v.AsInt() != (runs+1)*64 || c.cur.hash.Len() != 16 {
			t.Errorf("lends=%t: page00 folded to %v over %d keys, want %d over 16", lends, v, c.cur.hash.Len(), (runs+1)*64)
		}
	}
}

// TestLentElementBufferedAsCopy: a lent pair that reaches its chained
// combiner before the combiner's output bag has started is buffered as a
// copy, since its producer overwrites the lent tuple as soon as the call
// returns. Here the producer runs one loop step ahead of the combiner, so
// every pair of the batch is buffered; the lent tuple is then poisoned, bag
// 2 ends, and the combiner must still fold the batch's 16 keys into bag 3.
func TestLentElementBufferedAsCopy(t *testing.T) {
	m, c := lentCombine(t, true)
	visit(t, m, 1)
	batch := pageBatch()
	for i := range batch {
		batch[i].Tag = 3
	}
	if err := m.OnBatch(0, 0, batch); err != nil {
		t.Fatal(err)
	}
	for i := range m.lent {
		m.lent[i] = val.Str("lent tuple poisoned")
	}
	eob(t, m, 0, 2)
	visit(t, c, 1)
	if c.cur == nil || c.cur.pos != 3 {
		t.Fatalf("combiner is not running bag 3: %+v", c.cur)
	}
	if v, ok := c.cur.hash.Get(val.Str("page00")); !ok || v.AsInt() != 64 || c.cur.hash.Len() != 16 {
		t.Errorf("page00 folded to %v over %d keys, want 64 over 16", v, c.cur.hash.Len())
	}
}

// BenchmarkHostLentCombine is one (x, 1) pair from a copy with the map fused
// in into its chained key combiner, lent and carved.
func BenchmarkHostLentCombine(b *testing.B) {
	batch := pageBatch()
	for _, lends := range []bool{true, false} {
		b.Run(map[bool]string{true: "lent", false: "carved"}[lends], func(b *testing.B) {
			m, _ := lentCombine(b, lends)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += len(batch) {
				if err := m.OnBatch(0, 0, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// slabChunkValues is how many Values one slab chunk holds.
const slabChunkValues = 255

// TestKeyedTablesReusedAcrossBags hand-feeds three loop steps into each
// keyed host — a key combiner, reduceByKey, distinct, a join with hoisting on
// and a build bag that changes every step, one with hoisting off, and a
// deltaMerge — each step over keys no other step uses (a join's probe side
// also carries the earlier steps' keys, which must miss). Every output bag
// must hold exactly its own step's keys. Steps 2 and 3 must start on the
// table step 1 filled, emptied, and allocate no table storage: step 3 costs
// at most the slab chunks its carved Values fill, and for the deltaMerge its
// step record, where a table built afresh for 64 keys is 8 allocations.
func TestKeyedTablesReusedAcrossBags(t *testing.T) {
	const keys = 64
	// ks returns the keys of steps from..to, each as a tuple with the fields
	// v when v is given.
	ks := func(from, to int, v ...val.Value) []val.Value {
		var out []val.Value
		for s := from; s <= to; s++ {
			for i := 0; i < keys; i++ {
				k := val.Int(int64(s*1000 + i))
				if len(v) == 0 {
					out = append(out, k)
				} else {
					out = append(out, val.Tuple(append([]val.Value{k}, v...)...))
				}
			}
		}
		return out
	}
	twice := func(vs []val.Value) []val.Value { return append(vs, vs...) }
	hashTable := func(r *outputRun) interface{ Len() int } { return r.hash }
	type keyedCase struct {
		name      string
		kind      ir.OpKind
		synth     SynthKind
		f         lang.Expr
		producers []ir.BlockID
		hoisting  bool
		in        func(s int) [][]val.Value // step s's bag per slot; nil: none at its position
		out       func(s int) []val.Value
		table     func(r *outputRun) interface{ Len() int }
		carved    int // Values a step carves from the host's slab
	}
	one, two := val.Int(1), val.Int(2)
	join := func(name string, hoisting bool) keyedCase {
		return keyedCase{
			name: name, kind: ir.OpJoin, producers: []ir.BlockID{1, 1}, hoisting: hoisting,
			in: func(s int) [][]val.Value {
				return [][]val.Value{ks(s, s, val.Int(int64(s))), ks(1, s, val.Int(-1))}
			},
			out:    func(s int) []val.Value { return ks(s, s, val.Int(int64(s)), val.Int(-1)) },
			table:  func(r *outputRun) interface{ Len() int } { return r.build },
			carved: keys + 3*keys, // a one-value group per key, a triple per match
		}
	}
	cases := []keyedCase{
		{
			name: "combiner", kind: ir.OpReduceByKey, synth: SynthCombineByKey, f: addUDF, producers: []ir.BlockID{1},
			in:    func(s int) [][]val.Value { return [][]val.Value{twice(ks(s, s, one))} },
			out:   func(s int) []val.Value { return ks(s, s, two) },
			table: hashTable, carved: 2 * keys,
		},
		{
			name: "reduceByKey", kind: ir.OpReduceByKey, f: addUDF, producers: []ir.BlockID{1},
			in:    func(s int) [][]val.Value { return [][]val.Value{twice(ks(s, s, one))} },
			out:   func(s int) []val.Value { return ks(s, s, two) },
			table: hashTable, carved: 2 * keys,
		},
		{
			name: "distinct", kind: ir.OpDistinct, producers: []ir.BlockID{1},
			in:    func(s int) [][]val.Value { return [][]val.Value{twice(ks(s, s))} },
			out:   func(s int) []val.Value { return ks(s, s) },
			table: func(r *outputRun) interface{ Len() int } { return r.distinct },
		},
		join("join/hoisting", true),
		join("join/no-hoisting", false),
		{
			// The seed (bag 1, before the loop) holds every step's keys at 0;
			// a step adds 1 to its own, which changes exactly those.
			name: "deltaMerge", kind: ir.OpDeltaMerge, f: addUDF, producers: []ir.BlockID{0, 1},
			in:    func(s int) [][]val.Value { return [][]val.Value{nil, ks(s, s, one)} },
			out:   func(s int) []val.Value { return ks(s, s, one) },
			table: hashTable, carved: 2 * keys,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sink := &collector{}
			var f *lang.UDF
			if c.f != nil {
				f = mustUDF(t, c.f)
			}
			h := handFedHost(t, c.kind, f, store.NewMemStore(), c.producers, sink)
			h.op.Synth, h.rt.opts.Hoisting = c.synth, c.hoisting
			reused := 0
			tableHook = func(string) { reused++ }
			t.Cleanup(func() { tableHook = nil })
			// Everything a step hands the host is built before it runs, and
			// the sink has room for every bag, so a step's allocations are
			// the host's own.
			visit(t, h, 0)
			if c.kind == ir.OpDeltaMerge {
				feed(t, h, 0, 1, ks(1, 3, val.Int(0))...)
				eob(t, h, 0, 1)
			}
			sink.eobs = make([]int, 0, 4)
			type step struct {
				seg     any
				batches [][]Element
			}
			steps := make([]step, 4)
			for s := 1; s <= 3; s++ {
				pos := s + 1
				sink.bags[pos] = make([]val.Value, 0, 2*keys)
				steps[s].seg = &PathSegment{Pos: pos, Head: 1}
				for _, vals := range c.in(s) {
					var batch []Element
					if vals != nil {
						batch = make([]Element, len(vals))
						for i, v := range vals {
							batch[i] = Element{Tag: dataflow.Tag(pos), Val: v}
						}
					}
					steps[s].batches = append(steps[s].batches, batch)
				}
			}
			var first interface{ Len() int }
			run := func(s int) {
				if err := h.OnControl(steps[s].seg); err != nil {
					t.Fatal(err)
				}
				if h.cur == nil || h.cur.pos != s+1 {
					t.Fatalf("step %d: the host is not running bag %d", s, s+1)
				}
				tbl := c.table(h.cur)
				if s == 1 {
					first = tbl
				} else if tbl != first {
					t.Errorf("step %d fills a table of its own, not step 1's", s)
				}
				if n := tbl.Len(); n != 0 {
					t.Errorf("step %d starts on a table holding %d keys", s, n)
				}
				for slot, batch := range steps[s].batches {
					if batch == nil {
						continue
					}
					if err := h.OnBatch(slot, 0, batch); err != nil {
						t.Fatal(err)
					}
					if err := h.OnEOB(slot, 0, dataflow.Tag(s+1)); err != nil {
						t.Fatal(err)
					}
				}
				if h.cur != nil {
					t.Fatalf("step %d: bag %d did not finish", s, s+1)
				}
			}
			run(1)
			// Step 2 is AllocsPerRun's warm-up call, which also settles the
			// host's input-bag bookkeeping; step 3 is counted.
			next := 2
			n := testing.AllocsPerRun(1, func() {
				run(next)
				next++
			})
			bound := (c.carved + slabChunkValues - 1) / slabChunkValues
			if c.kind == ir.OpDeltaMerge {
				bound++ // the step record
			}
			if n > float64(bound) {
				t.Errorf("step 3: %v allocs, want <= %d (%d carved Values)", n, bound, c.carved)
			}
			for s := 1; s <= 3; s++ {
				if got, want := sink.bags[s+1], c.out(s); !bag.Equal(got, want) {
					t.Errorf("step %d output = %v, want %v", s, bag.Sorted(got), bag.Sorted(want))
				}
			}
			if reused != 2 {
				t.Errorf("%d bags filled a table an earlier bag left, want 2", reused)
			}
		})
	}
}
