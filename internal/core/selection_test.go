package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
)

// These tests pin down the bag-identifier selection rules of paper
// Sec. 5.2.2–5.2.3 at the host level, using a hand-fed execution path.

// newSelectionHost builds a host for an operator in block opBlock with
// inputs from producers in the given blocks (phi inputs carry PredBlock).
func newSelectionHost(opBlock ir.BlockID, kind ir.OpKind, producers []ir.BlockID, preds []ir.BlockID) *host {
	op := &PlanOp{
		Instr: &ir.Instr{Var: "x", Kind: kind, Args: make([]string, len(producers))},
		Block: opBlock,
		Par:   1,
	}
	for i, pb := range producers {
		op.Instr.Args[i] = fmt.Sprintf("in%d", i)
		in := PlanInput{Producer: &PlanOp{Instr: &ir.Instr{Var: fmt.Sprintf("in%d", i)}, Block: pb}}
		if preds != nil {
			in.PredBlock = preds[i]
		}
		op.Inputs = append(op.Inputs, in)
	}
	rt := &runtime{store: store.NewMemStore()}
	return newHost(rt, op, 0)
}

// feedPath extends the host's path by the step OnControl takes per block,
// without starting any output.
func feedPath(h *host, blocks ...ir.BlockID) {
	for _, b := range blocks {
		h.step(b)
	}
}

// startAt starts the scheduled output at path position pos the way progress
// does, skipping the scheduled outputs before it. Positions are monotone per
// host, so a test starts its outputs in path order.
func startAt(h *host, pos int) error {
	h.cur = nil
	for h.pendingHead < len(h.pendingOut) {
		out := h.pendingOut[h.pendingHead]
		h.pendingHead++
		if out.pos == pos {
			return h.startOutput(out.pos, out.from)
		}
	}
	return fmt.Errorf("no output scheduled at position %d", pos)
}

// TestInputSelectionLongestPrefix reproduces the paper's Fig. 4a example:
// with path ABBABBB, an operator in B reading from a producer in A must
// select A's bag from position 4 (the prefix ABBA) for its output at
// position 7. Outputs start in path order: positions are monotone per host,
// which is what lets it forget the occurrences behind the one it selected.
func TestInputSelectionLongestPrefix(t *testing.T) {
	const A, B = 1, 2
	h := newSelectionHost(B, ir.OpMap, []ir.BlockID{A}, nil)
	h.op.Instr.Kind = ir.OpCopy // no UDF needed
	feedPath(h, A, B, B, A, B, B, B)
	// Output at position 2 (before the second A) selects position 1.
	if err := startAt(h, 2); err != nil {
		t.Fatal(err)
	}
	if got := h.cur.inPos[0]; got != 1 {
		t.Errorf("input position = %d, want 1", got)
	}
	// Output at position 5 selects the second occurrence of A.
	if err := startAt(h, 5); err != nil {
		t.Fatal(err)
	}
	if got := h.cur.inPos[0]; got != 4 {
		t.Errorf("input position = %d, want 4", got)
	}
	// Output at position 7 selects the same occurrence.
	if err := startAt(h, 7); err != nil {
		t.Fatal(err)
	}
	if got := h.cur.inPos[0]; got != 4 {
		t.Errorf("input position = %d, want 4 (prefix ABBA)", got)
	}
}

// TestInputSelectionSameBlock: a producer in the operator's own block is
// read at the output's own position (the same step).
func TestInputSelectionSameBlock(t *testing.T) {
	const B = 2
	h := newSelectionHost(B, ir.OpCopy, []ir.BlockID{B}, nil)
	feedPath(h, 1, B, B)
	if err := startAt(h, 3); err != nil {
		t.Fatal(err)
	}
	if got := h.cur.inPos[0]; got != 3 {
		t.Errorf("input position = %d, want 3", got)
	}
}

// TestPhiSelectionByPredecessor reproduces the paper's Fig. 4b hazard: the
// phi must select the slot matching the block the path arrived from, never
// first-come-first-served. Path ABDACD: the phi in D selects the B-slot at
// position 3 and the C-slot at position 6.
func TestPhiSelectionByPredecessor(t *testing.T) {
	const A, B, C, D = 1, 2, 3, 4
	h := newSelectionHost(D, ir.OpPhi,
		[]ir.BlockID{B, C}, // x1 defined in B, x2 in C
		[]ir.BlockID{B, C}) // slot 0 taken when arriving from B, slot 1 from C
	feedPath(h, A, B, D, A, C, D)

	if err := startAt(h, 3); err != nil {
		t.Fatal(err)
	}
	if h.cur.inPos[0] != 2 || h.cur.inPos[1] != -1 {
		t.Errorf("pos 3: inPos = %v, want [2 -1] (B-slot)", h.cur.inPos)
	}
	if err := startAt(h, 6); err != nil {
		t.Fatal(err)
	}
	if h.cur.inPos[0] != -1 || h.cur.inPos[1] != 5 {
		t.Errorf("pos 6: inPos = %v, want [-1 5] (C-slot)", h.cur.inPos)
	}
}

// TestPhiNeverSelectsOwnVisit: a phi selecting a producer in its own block
// (the loop-carried case) must take the *previous* visit's bag, not the one
// being produced in the current visit.
func TestPhiSelectsPreviousVisit(t *testing.T) {
	const Entry, Body = 0, 1
	h := newSelectionHost(Body, ir.OpPhi,
		[]ir.BlockID{Entry, Body},
		[]ir.BlockID{Entry, Body})
	feedPath(h, Entry, Body, Body, Body)

	// First visit (position 2): arrived from Entry.
	if err := startAt(h, 2); err != nil {
		t.Fatal(err)
	}
	if h.cur.inPos[0] != 1 || h.cur.inPos[1] != -1 {
		t.Errorf("pos 2: inPos = %v, want [1 -1]", h.cur.inPos)
	}
	// Third visit (position 4): arrived from Body; must read position 3,
	// not 4 (its own, not-yet-produced bag).
	if err := startAt(h, 4); err != nil {
		t.Fatal(err)
	}
	if h.cur.inPos[0] != -1 || h.cur.inPos[1] != 3 {
		t.Errorf("pos 4: inPos = %v, want [-1 3]", h.cur.inPos)
	}
}

// TestSelectionErrors: outputs scheduled before their producers' blocks
// ever ran are coordination bugs and must fail loudly.
func TestSelectionErrors(t *testing.T) {
	h := newSelectionHost(2, ir.OpCopy, []ir.BlockID{5}, nil)
	feedPath(h, 1, 2)
	if err := startAt(h, 2); err == nil {
		t.Error("missing producer occurrence not detected")
	}
	// Phi with no slot for the incoming predecessor.
	h2 := newSelectionHost(2, ir.OpPhi, []ir.BlockID{3}, []ir.BlockID{3})
	feedPath(h2, 1, 2)
	if err := startAt(h2, 2); err == nil {
		t.Error("phi without a matching predecessor slot not detected")
	}
}

// TestConditionCaptureValidation: condition operators must produce a
// boolean; scalar typing is dynamic, so this is a runtime error surfaced
// through the coordinator.
func TestConditionCaptureValidation(t *testing.T) {
	g := compile(t, `i = 1
while (i) {
  i = 0
}`)
	cl, err := cluster.New(cluster.FastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = Execute(g, store.NewMemStore(), cl, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "want bool") {
		t.Errorf("Execute error = %v, want non-bool condition error", err)
	}
}
