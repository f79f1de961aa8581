package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/testprog"
)

// recordingPlane is a ControlPlane that executes nothing: it records the
// frames, barriers and stops the coordinator issues, so a test can drive a
// Coordinator with synthetic events and check the control protocol alone.
// Each frame is recorded with the blocks a receiver resolves it to.
type recordingPlane struct {
	plan      *Plan
	templated bool
	frames    []PathSegment
	blocks    [][]ir.BlockID // parallel to frames
	barriers  int
	stops     []error
	// onBarrier, when set, runs inside every Barrier call — the moment the
	// coordinator claims all fenced work has drained.
	onBarrier func()
}

func (r *recordingPlane) Broadcast(seg PathSegment) {
	r.frames = append(r.frames, seg)
	r.blocks = append(r.blocks, r.plan.Segment(seg.Head, r.templated))
}
func (r *recordingPlane) Stop(err error) { r.stops = append(r.stops, err) }
func (r *recordingPlane) Barrier() {
	r.barriers++
	if r.onBarrier != nil {
		r.onBarrier()
	}
}

// released flattens the recorded frames into the released path, checking
// that frames are contiguous.
func (r *recordingPlane) released(t *testing.T) []ir.BlockID {
	t.Helper()
	var path []ir.BlockID
	for i, f := range r.frames {
		if f.Pos != len(path)+1 {
			t.Fatalf("frame %d starts at position %d, want %d", i, f.Pos, len(path)+1)
		}
		path = append(path, r.blocks[i]...)
	}
	return path
}

// nestedLoopWithIf is the corpus program the coordinator tests run: two
// nested loops with a data-independent break inside the inner one, so its
// path mixes jump chains of several lengths, revisits the same segment
// heads many times, and takes both arms of a branch.
func nestedLoopWithIf(t *testing.T) (*ir.Graph, []ir.BlockID) {
	t.Helper()
	for _, c := range testprog.Cases() {
		if c.Name != "break-in-nested-loop" {
			continue
		}
		g := compile(t, c.Src)
		st := store.NewMemStore()
		if err := c.Setup(st); err != nil {
			t.Fatal(err)
		}
		var trace []ir.BlockID
		if err := (&ir.Interp{Store: st, Trace: &trace}).Run(g); err != nil {
			t.Fatal(err)
		}
		return g, trace
	}
	t.Fatal("corpus has no break-in-nested-loop case")
	return nil, nil
}

// driveCoordinator plays the operator hosts of every released position, in
// path order: the branch decision the oracle path took (reported before the
// position's completions, as a host does), then one completion per
// instance. It returns once nothing released is left to report.
func driveCoordinator(t *testing.T, co *Coordinator, rec *recordingPlane, plan *Plan, oracle []ir.BlockID, sent map[int]int) {
	t.Helper()
	for fed := 0; ; fed++ {
		path := rec.released(t)
		if fed == len(path) {
			return
		}
		pos, blk := fed+1, plan.IR.Blocks[path[fed]]
		if blk.Term.Kind == ir.TermBranch {
			if pos >= len(oracle) {
				t.Fatalf("position %d is a branch but the oracle path ends there", pos)
			}
			co.OnEvent(CoordEvent{Kind: EvDecision, Pos: pos, Branch: oracle[pos] == blk.Term.Succs[0]})
		}
		for i := 0; i < plan.InstancesPerBlock[blk.ID]; i++ {
			sent[pos]++
			co.OnEvent(CoordEvent{Kind: EvCompletion, Pos: pos})
		}
	}
}

// TestCoordinatorModeMatrix drives one Coordinator per {pipelining} x
// {templates} mode against a recording control plane. The four modes are
// policies over one extend-then-release mechanism, so what they release
// must be the same path — the sequential interpreter's — cut into frames
// differently, and only the non-pipelined modes may raise barriers.
func TestCoordinatorModeMatrix(t *testing.T) {
	g, oracle := nestedLoopWithIf(t)
	for _, mode := range []struct{ pipelining, templates bool }{
		{true, true}, {true, false}, {false, true}, {false, false},
	} {
		t.Run(fmt.Sprintf("pipelining=%v,templates=%v", mode.pipelining, mode.templates), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Pipelining, opts.Templates = mode.pipelining, mode.templates
			plan, err := Compile(g, 3, opts)
			if err != nil {
				t.Fatal(err)
			}
			rec := &recordingPlane{plan: plan, templated: opts.Templated()}
			sent := make(map[int]int) // completions reported so far, per position
			rec.onBarrier = func() {
				// A barrier fences everything released before it: all of
				// those positions' completions must already be in.
				for i, b := range rec.released(t) {
					if want := plan.InstancesPerBlock[b]; sent[i+1] != want {
						t.Errorf("barrier %d raised with position %d at %d/%d completions", rec.barriers, i+1, sent[i+1], want)
					}
				}
			}
			co := NewCoordinator(plan, opts, 3, rec)
			co.Seed()
			driveCoordinator(t, co, rec, plan, oracle, sent)

			if got := rec.released(t); !slices.Equal(got, oracle) {
				t.Fatalf("released path %v\nwant (ir.Interp) %v", got, oracle)
			}
			if last := rec.blocks[len(rec.blocks)-1]; g.Blocks[last[len(last)-1]].Term.Kind != ir.TermExit {
				t.Error("last frame does not end in the exit block")
			}
			templated := mode.pipelining && mode.templates
			multi := 0
			for _, blocks := range rec.blocks {
				if len(blocks) > 1 {
					multi++
				}
			}
			if !templated && multi != 0 {
				t.Errorf("%d multi-block frames outside templated mode", multi)
			}
			if templated && multi == 0 {
				t.Error("templated mode batched nothing")
			}
			wantBarriers := 0
			if !mode.pipelining {
				wantBarriers = len(oracle) - 1
			}
			if rec.barriers != wantBarriers {
				t.Errorf("%d barriers, want %d", rec.barriers, wantBarriers)
			}
			if len(rec.stops) != 1 || rec.stops[0] != nil {
				t.Errorf("stops = %v, want exactly one clean stop", rec.stops)
			}
			res := co.Result()
			if res.Steps != len(oracle) {
				t.Errorf("Steps = %d, want %d", res.Steps, len(oracle))
			}
			// 6 installs and 16 instantiations are what the coordinator at
			// 7f79055 (separate per-position and per-segment routines)
			// counted on this program; one frame per template use.
			wantInstalls, wantInst := 0, 0
			if templated {
				wantInstalls, wantInst = 6, 16
				if len(rec.frames) != wantInstalls+wantInst {
					t.Errorf("%d frames, want one per template use (%d)", len(rec.frames), wantInstalls+wantInst)
				}
			}
			if res.TemplateInstalls != wantInstalls || res.TemplateInstantiations != wantInst {
				t.Errorf("installs/instantiations = %d/%d, want %d/%d",
					res.TemplateInstalls, res.TemplateInstantiations, wantInstalls, wantInst)
			}

			// Inert after the stop: a late event changes nothing.
			co.OnEvent(CoordEvent{Kind: EvCompletion, Pos: 1})
			if len(rec.stops) != 1 {
				t.Errorf("event after the clean stop caused another Stop: %v", rec.stops)
			}
		})
	}
}

// TestCoordinatorStopsOnceOnProtocolError injects a decision for a position
// the path has not reached. The coordinator must stop the job with the
// error exactly once and then absorb whatever else arrives — on the TCP
// backend events keep trailing in after a failure.
func TestCoordinatorStopsOnceOnProtocolError(t *testing.T) {
	g, _ := nestedLoopWithIf(t)
	opts := DefaultOptions()
	plan, err := Compile(g, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingPlane{plan: plan, templated: opts.Templated()}
	co := NewCoordinator(plan, opts, 3, rec)
	co.Seed()
	frames := len(rec.frames)
	frontier := len(rec.released(t))

	co.OnEvent(CoordEvent{Kind: EvDecision, Pos: frontier + 5, Branch: true})
	if len(rec.stops) != 1 || rec.stops[0] == nil {
		t.Fatalf("stops after an out-of-order decision = %v, want one error", rec.stops)
	}
	co.OnEvent(CoordEvent{Kind: EvDecision, Pos: frontier, Branch: true})
	co.OnEvent(CoordEvent{Kind: EvCompletion, Pos: 1})
	co.OnEvent(CoordEvent{Kind: EvDecision, Pos: frontier + 9})
	if len(rec.stops) != 1 {
		t.Errorf("later events reached Stop again: %v", rec.stops)
	}
	if len(rec.frames) != frames {
		t.Errorf("inert coordinator broadcast %d more frames", len(rec.frames)-frames)
	}
}
