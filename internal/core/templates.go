package core

import (
	"github.com/mitos-project/mitos/internal/ir"
)

// Execution templates (after Mashayekhi et al., "Execution Templates:
// Caching Control Plane Decisions for Strong Scaling of Data Analytics"):
// the control-flow manager's work per path extension is fully determined by
// the basic block the extension starts from — the jump chain it pulls in,
// the instances that must complete each position, and the broadcast
// fan-out. The first time a block starts an extension, the coordinator
// records that resolved schedule as an immutable template keyed by the
// block; every later visit instantiates the template by patching only the
// path position, and the whole segment ships as one batched control frame
// per worker instead of one frame per position. Untemplated execution is
// the degenerate case of the same mechanism: every released frame is a
// one-block segment and nothing is cached (Coordinator.release).
//
// A template is a pure function of its head block and the immutable IR
// (SegmentFrom), so nothing about it is ever shipped: the head block names
// it, and every holder of the plan resolves the same segment from it.

// PathSegment is the control event the control-flow manager broadcasts to
// every operator instance when the execution path grows: the path grew by
// Blocks, occupying (1-based) positions Pos..Pos+len(Blocks)-1. Blocks
// aliases either the array behind the coordinator's path window, where a
// position is written once and never moved (Coordinator.retire copies what it
// keeps to a fresh array), or a SegmentCache entry, which is never modified —
// so a frame reads the same blocks for as long as a receiver holds it, and
// receivers must not modify it.
type PathSegment struct {
	Pos    int
	Blocks []ir.BlockID
}

// SegmentFrom derives the unconditional block sequence starting at b: b
// itself, then every successor reached through TermJump terminators, up to
// and including the first block that ends in a branch (the next extension
// needs a runtime decision) or the exit block. The walk is a pure function
// of the IR, which is what lets the coordinator and every worker resolve
// identical templates independently.
func SegmentFrom(g *ir.Graph, b ir.BlockID) []ir.BlockID {
	var blocks []ir.BlockID
	for {
		blocks = append(blocks, b)
		t := g.Blocks[b].Term
		if t.Kind != ir.TermJump {
			return blocks
		}
		b = t.Succs[0]
	}
}

// SegmentCache holds one template per head block: the segment SegmentFrom
// resolves from it, computed on first use and shared, read-only, by every
// later one. The coordinator keeps one per execution (nil, caching nothing,
// when templates are off), a TCP worker one per job run.
type SegmentCache map[ir.BlockID][]ir.BlockID

// Segment returns the segment headed by b and whether it was already cached.
func (c SegmentCache) Segment(g *ir.Graph, b ir.BlockID) (blocks []ir.BlockID, hit bool) {
	if blocks, hit = c[b]; !hit {
		blocks = SegmentFrom(g, b)
		if c != nil {
			c[b] = blocks
		}
	}
	return blocks, hit
}

// ctrlFrameOverhead is the framing cost of one control message, matching
// the TCP wire format (4-byte length prefix + 1 type byte). The simulated
// cluster charges the same shape so ctrl_bytes is comparable across
// backends.
const ctrlFrameOverhead = 5

// CtrlSize reports the encoded control-frame size of one PathSegment, for
// ctrl_bytes accounting (dataflow.ControlSizer): the frame carries the
// position and the head block, from which every receiver resolves the rest.
func (s PathSegment) CtrlSize() int {
	return ctrlFrameOverhead + varintLen(s.Pos) + varintLen(int(s.Blocks[0]))
}

// varintLen is the zigzag varint size of v, matching binary.AppendVarint.
func varintLen(v int) int {
	u := uint64(v) << 1
	if v < 0 {
		u = ^u
	}
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}
