package core

import (
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/ir"
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
// and no changed slice regrown from nothing every step.
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
	cands := make([]*val.Map[val.Value], steps+2)
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
	apply() // seeds, and sizes the scratch
	if n := testing.AllocsPerRun(steps, apply); n > 8+4 {
		t.Errorf("a 1000-candidate step: %v allocs, want <= 12 (8 slab chunks and a constant)", n)
	}
	if got, want := s.idx.Len(), 10000+100*step; got != want {
		t.Errorf("solution set holds %d keys, want %d", got, want)
	}
}
