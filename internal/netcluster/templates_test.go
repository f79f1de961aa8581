package netcluster

import (
	"strings"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// TestTCPTemplatesCounters pins the template cache arithmetic and the exact
// control-frame count over the real wire. A 50-step loop visits P = 103
// positions (entry, 51 loop tests, 50 bodies, exit) in S = 52 segments from 3
// distinct heads, with D = 51 decisions. Every operator has one instance, on
// worker 0; per position they report I = 155 completions (entry 1, loop test
// 2, body 1, exit 2). Over W workers the coordinator links carry:
//
//	templates on:  W·S path frames + W finish + D + P (one folded completion
//	               per position)                         = 53W + 154
//	templates off: W·P path frames + W finish + D + I   = 104W + 206
//
// A path frame is (position, head block) in both modes: nothing is installed.
func TestTCPTemplatesCounters(t *testing.T) {
	for _, w := range []int{2, 3} {
		c, cleanup, err := StartLocal(w, CoordConfig{})
		if err != nil {
			t.Fatal(err)
		}
		run := func(templates bool) *Result {
			opts := core.DefaultOptions()
			opts.Templates = templates
			// The session's counters accumulate over its jobs.
			msgs, bytes := c.sess.ctrlMsgs.Load(), c.sess.ctrlBytes.Load()
			res, err := c.Run(workload.StepLoopScript(50), store.NewMemStore(), opts)
			if err != nil {
				t.Fatal(err)
			}
			res.CtrlMessages -= msgs
			res.CtrlBytes -= bytes
			return res
		}
		on := run(true)
		off := run(false)
		cleanup()
		if on.Steps != 103 || off.Steps != on.Steps {
			t.Fatalf("%d workers: steps = %d/%d, want 103", w, on.Steps, off.Steps)
		}
		if on.TemplateInstalls != 3 || on.TemplateInstantiations != 49 {
			t.Errorf("%d workers: installs/instantiations = %d/%d, want 3/49", w, on.TemplateInstalls, on.TemplateInstantiations)
		}
		if off.TemplateInstalls != 0 || off.TemplateInstantiations != 0 {
			t.Errorf("%d workers: templates off: installs/instantiations = %d/%d, want 0/0", w, off.TemplateInstalls, off.TemplateInstantiations)
		}
		if want := int64(53*w + 154); on.CtrlMessages != want {
			t.Errorf("%d workers: templates on: ctrl_messages = %d, want %d", w, on.CtrlMessages, want)
		}
		if want := int64(104*w + 206); off.CtrlMessages != want {
			t.Errorf("%d workers: templates off: ctrl_messages = %d, want %d", w, off.CtrlMessages, want)
		}
		if on.CtrlBytes >= off.CtrlBytes {
			t.Errorf("%d workers: ctrl_bytes = %d templated vs %d untemplated, want a reduction", w, on.CtrlBytes, off.CtrlBytes)
		}
	}
}

// TestTCPTemplatesAggregatedEvents over-subscribes the workers
// (parallelism 6 on 2 workers, so each hosts 3 instances per data-parallel
// block): the templated run folds each position's local completions into
// one event frame per worker — O(workers) instead of O(instances) — which
// must show up as fewer control frames on the coordinator links.
func TestTCPTemplatesAggregatedEvents(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 5, VisitsPerDay: 150, Pages: 40, WithDiff: true, Seed: 21}
	c, cleanup, err := StartLocal(2, CoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	run := func(templates bool) *Result {
		st := store.NewMemStore()
		if err := spec.Generate(st); err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Parallelism = 6
		opts.Templates = templates
		res, err := c.Run(spec.Script(), st, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on := run(true)
	off := run(false)
	if on.Steps != off.Steps {
		t.Fatalf("steps differ: %d vs %d", on.Steps, off.Steps)
	}
	if on.CtrlMessages >= off.CtrlMessages {
		t.Errorf("ctrl_messages = %d templated vs %d untemplated, want a reduction from event aggregation",
			on.CtrlMessages, off.CtrlMessages)
	}
}

// TestTCPTemplatesDivergentMatchesSim runs a loop whose branch flips
// halfway — the first iterations take the then-arm, the rest the else-arm —
// over the wire. The workers speculate along the deciding worker's branch
// and receive coordinator segments for both arms; output must match the
// simulated backend exactly.
func TestTCPTemplatesDivergentMatchesSim(t *testing.T) {
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
	diffTCPvsSim(t, src, nil, 3, core.DefaultOptions(), 0)
}

// TestTCPTemplatesSequentialJobs proves templates die with their job: one
// session runs three structurally different programs back to back with
// templates on, and each must resolve its own schedule — cached segments
// leaking across jobs would misroute the later paths (different block
// graphs reuse the same small IDs).
func TestTCPTemplatesSequentialJobs(t *testing.T) {
	c, cleanup, err := StartLocal(2, CoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	jobs := []struct {
		source string
		seed   func(store.Store) error
		steps  int
	}{
		{workload.StepLoopScript(10), nil, 23},
		{`x = 0
total = 0
while (x < 6) {
  if (x < 3) {
    total = total + 1
  } else {
    total = total + 10
  }
  x = x + 1
}
newBag(total).writeFile("out")
`, nil, 0},
		{workload.StepLoopScript(4), nil, 11},
	}
	for i, job := range jobs {
		st := store.NewMemStore()
		if job.seed != nil {
			if err := job.seed(st); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Run(job.source, st, core.DefaultOptions())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if job.steps != 0 && res.Steps != job.steps {
			t.Errorf("job %d: steps = %d, want %d", i, res.Steps, job.steps)
		}
		if res.TemplateInstalls == 0 {
			t.Errorf("job %d: no template installs — a cached table leaked across jobs", i)
		}
	}
}

// BenchmarkCtrlFrameEncode measures the path frame of one loop step at both
// ends: the coordinator's encode into a reused buffer, as tcpControlPlane
// does, then the worker's decode and its expansion of the head block into the
// segment its plan resolved when it was built. None of it may allocate.
func BenchmarkCtrlFrameEncode(b *testing.B) {
	plan, err := new(core.PlanMemo).Compile(workload.StepLoopScript(10), 2, core.DefaultOptions(), frontEnd)
	if err != nil {
		b.Fatal(err)
	}
	g := plan.IR
	first := make([][]ir.BlockID, len(g.Blocks))
	for _, blk := range g.Blocks {
		first[blk.ID] = plan.Segment(blk.ID, true)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendPathSeg(buf[:0], PathSegMsg{Pos: i, Head: i % len(g.Blocks)})
		m, err := DecodePathSeg(buf)
		if err != nil {
			b.Fatal(err)
		}
		if blocks := plan.Segment(ir.BlockID(m.Head), true); blocks[0] != ir.BlockID(m.Head) || &blocks[0] != &first[m.Head][0] {
			b.Fatalf("head b%d expanded to %v, not the segment the plan resolved", m.Head, blocks)
		}
	}
}

// TestCtrlFrameEncodeAllocFree enforces BenchmarkCtrlFrameEncode's
// 0 allocs/op as a test, the same guard the dataflow emit path carries.
func TestCtrlFrameEncodeAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	res := testing.Benchmark(BenchmarkCtrlFrameEncode)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("path frame encode/decode/expand allocates %d allocs/op, want 0", a)
	}
}

// TestWorkerPathProtocolErrors plays the coordinator by hand against one
// worker, after shipping it the step loop (an entry chain ending in the loop
// test, the body on its true arm, the exit on its false one), and sends it a
// path frame it must refuse: the job fails with the worker's named error
// instead of running a path that is not the coordinator's.
func TestWorkerPathProtocolErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		// frames returns the path frames to send once the job is shipped; it
		// may send some itself and read the session's events.
		frames func(t *testing.T, s *session, plan *core.Plan) []PathSegMsg
		want   string
	}{
		{
			// A gap past the frontier: nothing has been broadcast yet.
			name: "gap",
			frames: func(t *testing.T, s *session, plan *core.Plan) []PathSegMsg {
				return []PathSegMsg{{Pos: 3, Head: int(plan.IR.Entry())}}
			},
			want: "netcluster: path segment at 3 out of order (have 0)",
		},
		{
			// The entry chain, then — once the worker has decided the loop
			// test at position 2 and speculated the body at 3 — a frame that
			// puts the exit block at 3 instead.
			name: "diverged",
			frames: func(t *testing.T, s *session, plan *core.Plan) []PathSegMsg {
				entry := plan.IR.Entry()
				chain := plan.Segment(entry, true)
				cond := plan.IR.Blocks[chain[len(chain)-1]]
				s.broadcast(MsgPathSeg, AppendPathSeg(nil, PathSegMsg{Pos: 1, Head: int(entry)}))
				for {
					select {
					case ev := <-s.events:
						if ev.Kind == core.EvDecision {
							if ev.Pos != len(chain) || !ev.Branch {
								t.Fatalf("first decision %+v, want the loop test at %d taken", ev, len(chain))
							}
							return []PathSegMsg{{Pos: ev.Pos + 1, Head: int(cond.Term.Succs[1])}}
						}
					case <-time.After(10 * time.Second):
						t.Fatal("no decision within 10s of the entry frame")
					}
				}
			},
			want: "netcluster: path diverged at 3",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, cleanup, err := StartLocal(1, CoordConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			c.mu.Lock()
			s := c.sess
			c.mu.Unlock()
			job, err := c.prepare(workload.StepLoopScript(5), store.NewMemStore(), core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			s.ship(job.specs)
			for _, m := range tc.frames(t, s, job.plan) {
				s.broadcast(MsgPathSeg, AppendPathSeg(nil, m))
			}
			select {
			case <-s.failed:
			case <-time.After(10 * time.Second):
				t.Fatal("the worker accepted the bad frame: no session failure within 10s")
			}
			if err := s.Err(); !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("session error = %v, want the worker's %q", err, tc.want)
			}
		})
	}
}
