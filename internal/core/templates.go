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
// Template validity rests on two facts: BuildPlan is deterministic over
// the shipped program source (so coordinator and workers resolve identical
// templates from identical plans), and a template never outlives the
// execution attempt that installed it — the coordinator's cache lives in
// one Coordinator, built per attempt, the TCP control plane's install table
// lives in one session attempt, and each worker's table lives in one job
// run, so retries and re-admitted workers always start clean.

// PathSegment is the control event the control-flow manager broadcasts to
// every operator instance when the execution path grows: the path grew by
// Blocks, occupying (1-based) positions Pos..Pos+len(Blocks)-1. Final marks
// a segment ending in the exit block. The Blocks slice aliases the array
// behind the coordinator's path window, where a position is written once and
// never moved (Coordinator.retire copies what it keeps to a fresh array), so
// a frame reads the same blocks for as long as a receiver holds it —
// receivers must not modify it.
//
// A template — one cached control-plane decision — is a PathSegment with no
// position yet: the jump-chain segment starting at a block, resolved once
// and instantiated by patching Pos.
type PathSegment struct {
	Pos    int
	Blocks []ir.BlockID
	Final  bool
}

// SegmentFrom derives the unconditional block sequence starting at b: b
// itself, then every successor reached through TermJump terminators, up to
// and including the first block that ends in a branch (final=false, the
// next extension needs a runtime decision) or the exit block (final=true).
// The walk is a pure function of the IR, which is what lets the
// coordinator and every worker resolve identical templates independently.
func SegmentFrom(g *ir.Graph, b ir.BlockID) (blocks []ir.BlockID, final bool) {
	for {
		blocks = append(blocks, b)
		switch t := g.Blocks[b].Term; t.Kind {
		case ir.TermJump:
			b = t.Succs[0]
		case ir.TermExit:
			return blocks, true
		default:
			return blocks, false
		}
	}
}

// ctrlFrameOverhead is the framing cost of one control message, matching
// the TCP wire format (4-byte length prefix + 1 type byte). The simulated
// cluster charges the same shape so ctrl_bytes is comparable across
// backends.
const ctrlFrameOverhead = 5

// CtrlSize reports the encoded control-frame size of one PathSegment, for
// ctrl_bytes accounting (dataflow.ControlSizer).
func (s PathSegment) CtrlSize() int {
	n := ctrlFrameOverhead + varintLen(s.Pos) + varintLen(len(s.Blocks)) + 1
	for _, b := range s.Blocks {
		n += varintLen(int(b))
	}
	return n
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
