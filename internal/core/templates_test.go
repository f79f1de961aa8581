package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
)

// TestSegmentFrom checks the jump-chain resolution templates are built
// from: every segment starts at the requested block, crosses only
// unconditional jumps, and stops at the first branch or the exit. The walk
// must be deterministic — coordinator and workers resolve segments
// independently from the same shipped IR — and a SegmentCache hands out the
// one resolution it made.
func TestSegmentFrom(t *testing.T) {
	g := compile(t, stepLoopSrc(5))
	cache := make(SegmentCache)
	for _, b := range g.Blocks {
		blocks := SegmentFrom(g, b.ID)
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
		if again := SegmentFrom(g, b.ID); !slices.Equal(again, blocks) {
			t.Errorf("segment from b%d not deterministic", b.ID)
		}
		first, hit := cache.Segment(g, b.ID)
		if hit || !slices.Equal(first, blocks) {
			t.Errorf("first cache lookup of b%d: %v, hit %v", b.ID, first, hit)
		}
		if again, hit := cache.Segment(g, b.ID); !hit || &again[0] != &first[0] {
			t.Errorf("second cache lookup of b%d did not return the cached segment", b.ID)
		}
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
// has D = 6 drivers without chaining and D = 2 with it (the condition and
// one chain of the rest), whatever the machine count M:
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
					drivers = 2
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
