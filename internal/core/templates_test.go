package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
)

// TestSegmentFrom checks the jump-chain resolution templates are built
// from: every segment starts at the requested block, crosses only
// unconditional jumps, and stops at the first branch or the exit. The
// resolution is made once, when the plan is built — coordinator and workers
// resolve segments independently from the same shipped IR — so Plan.Segment
// hands out the same slice on every call, and its first block alone when
// untemplated.
func TestSegmentFrom(t *testing.T) {
	g := compile(t, stepLoopSrc(5))
	plan, err := BuildPlan(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Blocks {
		blocks := plan.Segment(b.ID, true)
		if len(blocks) == 0 || blocks[0] != b.ID {
			t.Fatalf("segment from b%d starts %v", b.ID, blocks)
		}
		for i, sb := range blocks[:len(blocks)-1] {
			if k := g.Blocks[sb].Term.Kind; k != ir.TermJump {
				t.Errorf("segment from b%d crosses b%d with terminator %v at %d", b.ID, sb, k, i)
			}
		}
		if last := g.Blocks[blocks[len(blocks)-1]].Term.Kind; last == ir.TermJump {
			t.Errorf("segment from b%d ends on a jump", b.ID)
		}
		if again := plan.Segment(b.ID, true); len(again) != len(blocks) || &again[0] != &blocks[0] {
			t.Errorf("second lookup of b%d did not return the same segment", b.ID)
		}
		if one := plan.Segment(b.ID, false); len(one) != 1 || cap(one) != 1 || &one[0] != &blocks[0] {
			t.Errorf("untemplated lookup of b%d: %v (cap %d), want the segment's head alone", b.ID, one, cap(one))
		}
	}
	rebuilt, err := BuildPlan(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Blocks {
		if !slices.Equal(rebuilt.Segment(b.ID, true), plan.Segment(b.ID, true)) {
			t.Errorf("segment from b%d not deterministic", b.ID)
		}
	}
}

// TestBuildPlanJumpCycle: a cycle of unconditional jumps has no decision to
// leave it by, so resolving a segment in it would never end. BuildPlan
// resolves every block's segment, reached or not, and names the cycle
// instead.
func TestBuildPlanJumpCycle(t *testing.T) {
	jump := func(to ir.BlockID) ir.Terminator {
		return ir.Terminator{Kind: ir.TermJump, Succs: []ir.BlockID{to}}
	}
	for _, c := range []struct {
		name  string
		terms []ir.Terminator
		want  string
	}{
		{"reached", []ir.Terminator{jump(1), jump(2), jump(1)}, "core: blocks b1, b2 form a cycle with no branch"},
		{"unreached", []ir.Terminator{{Kind: ir.TermExit}, jump(2), jump(3), jump(1)}, "core: blocks b1, b2, b3 form a cycle with no branch"},
		{"self", []ir.Terminator{jump(0)}, "core: blocks b0 form a cycle with no branch"},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := &ir.Graph{InSSA: true}
			for b, term := range c.terms {
				g.Blocks = append(g.Blocks, &ir.Block{ID: ir.BlockID(b), Term: term})
			}
			g.ComputePreds()
			done := make(chan error, 1)
			go func() {
				_, err := BuildPlan(g, 2)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || err.Error() != c.want {
					t.Errorf("BuildPlan: err = %v, want %q", err, c.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("BuildPlan did not return within 10s")
			}
		})
	}
}

// TestExecuteTemplateCounters pins the template cache's arithmetic on the
// step loop. A 100-step while loop visits 203 positions — entry+header,
// 100x body+header, exit — in 102 segments: the entry chain, the body
// chain (instantiated 100 times), and the exit block. Three distinct
// segment heads means exactly 3 installs; every further segment is an
// instantiation of a cached template.
func TestExecuteTemplateCounters(t *testing.T) {
	run := func(opts Options) *Result {
		cl, err := cluster.New(cluster.FastConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		g := compile(t, stepLoopSrc(100))
		res, err := Execute(g, store.NewMemStore(), cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := run(DefaultOptions())
	if res.Steps != 203 {
		t.Fatalf("steps = %d, want 203", res.Steps)
	}
	if res.TemplateInstalls != 3 || res.TemplateInstantiations != 99 {
		t.Errorf("installs/instantiations = %d/%d, want 3/99",
			res.TemplateInstalls, res.TemplateInstantiations)
	}

	off := DefaultOptions()
	off.Templates = false
	if r := run(off); r.TemplateInstalls != 0 || r.TemplateInstantiations != 0 {
		t.Errorf("templates off: installs/instantiations = %d/%d, want 0/0",
			r.TemplateInstalls, r.TemplateInstantiations)
	}

	// Non-pipelined execution gates every position on a barrier, so there
	// is no per-step broadcast to compress: templates must stay inert.
	noPipe := DefaultOptions()
	noPipe.Pipelining = false
	if r := run(noPipe); r.TemplateInstalls != 0 || r.TemplateInstantiations != 0 {
		t.Errorf("non-pipelined: installs/instantiations = %d/%d, want 0/0",
			r.TemplateInstalls, r.TemplateInstantiations)
	}
}

// TestSimCtrlMessageLaw pins the sim's control-message count exactly, as
// TestTCPTemplatesCounters pins the TCP one. A 50-step loop visits P = 103
// positions in S = 52 segments. The coordinator releases F = S frames when
// templated and F = P frames in the other three modes. Job.Broadcast hands
// each frame to every chain driver, and the sim's control plane models one
// message per machine. The loop's six operators are singletons, so the job
// has D = 6 drivers without chaining and D = 1 with it (one chain, the
// condition included), whatever the machine count M:
//
//	Job.CtrlMessages = D·F    cluster CtrlMessages = M·F
func TestSimCtrlMessageLaw(t *testing.T) {
	g := compile(t, stepLoopSrc(50))
	for _, machines := range []int{2, 4, 8} {
		for _, mode := range []struct{ pipelining, templates, chaining bool }{
			{true, true, true}, {true, false, true}, {false, true, true}, {false, false, true},
			{true, true, false}, {false, false, false},
		} {
			name := fmt.Sprintf("M%d/pipelining=%t,templates=%t,chaining=%t", machines, mode.pipelining, mode.templates, mode.chaining)
			t.Run(name, func(t *testing.T) {
				cl, err := cluster.New(cluster.FastConfig(machines))
				if err != nil {
					t.Fatal(err)
				}
				opts := DefaultOptions()
				opts.Pipelining, opts.Templates, opts.Chaining = mode.pipelining, mode.templates, mode.chaining
				res, err := Execute(g, store.NewMemStore(), cl, opts)
				cl.Close()
				if err != nil {
					t.Fatal(err)
				}
				frames, drivers := int64(103), int64(6)
				if opts.Templated() {
					frames = 52
				}
				if opts.Chaining {
					drivers = 1
				}
				if res.Steps != 103 {
					t.Fatalf("steps = %d, want 103", res.Steps)
				}
				if res.Job.CtrlMessages != drivers*frames {
					t.Errorf("Job.CtrlMessages = %d, want %d·%d", res.Job.CtrlMessages, drivers, frames)
				}
				if got := cl.Stats().CtrlMessages; got != int64(machines)*frames {
					t.Errorf("cluster CtrlMessages = %d, want %d·%d", got, machines, frames)
				}
			})
		}
	}
}

// TestTemplatesDivergentConditions drives a loop whose branch decision
// flips halfway: the first iterations take the then-arm, the rest the
// else-arm. Each arm's segment gets its own template keyed by its head
// block, so the flip must instantiate a different cached schedule — not
// replay the stale one — and the output must match the untemplated run.
func TestTemplatesDivergentConditions(t *testing.T) {
	src := `x = 0
total = 0
while (x < 8) {
  if (x < 4) {
    total = total + 1
  } else {
    total = total + 10
  }
  x = x + 1
}
newBag(total).writeFile("out")
`
	g := compile(t, src)
	run := func(templates bool) (*store.MemStore, *Result) {
		cl, err := cluster.New(cluster.FastConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st := store.NewMemStore()
		opts := DefaultOptions()
		opts.Templates = templates
		res, err := Execute(g, st, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		return st, res
	}
	offStore, offRes := run(false)
	onStore, onRes := run(true)
	if onRes.Steps != offRes.Steps {
		t.Errorf("steps differ: %d templated vs %d untemplated", onRes.Steps, offRes.Steps)
	}
	if onRes.TemplateInstalls < 4 {
		t.Errorf("installs = %d, want at least one per distinct segment head (entry, then, else, exit)", onRes.TemplateInstalls)
	}
	if onRes.TemplateInstantiations == 0 {
		t.Error("no instantiations — the loop never replayed a cached segment")
	}
	diffStores(t, offStore, onStore)
}
