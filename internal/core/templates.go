package core

import (
	"fmt"
	"slices"
	"strings"

	"github.com/mitos-project/mitos/internal/ir"
)

// Execution templates (after Mashayekhi et al., "Execution Templates:
// Caching Control Plane Decisions for Strong Scaling of Data Analytics"):
// the control-flow manager's work per path extension is fully determined by
// the basic block the extension starts from — the jump chain it pulls in,
// the instances that must complete each position, and the broadcast
// fan-out. Every block's schedule is resolved once, when the plan is built,
// into an immutable template keyed by the block (Plan.Segment). The first
// time a block starts an extension the coordinator installs its template;
// every later visit instantiates it by patching only the path position, and
// the whole segment ships as one batched control frame per worker instead of
// one frame per position. Untemplated execution is the degenerate case of
// the same mechanism: every released frame is a one-block segment and
// nothing is counted (Coordinator.release).
//
// A template is a pure function of its head block and the immutable IR
// (Plan.resolveSegments), so nothing about it is ever shipped: the head
// block names it, and every holder of the plan resolves the same segment
// from it (Plan.Segment).

// PathSegment is the control event the control-flow manager broadcasts to
// every operator instance when the execution path grows: the path grew by
// the segment headed by Head, occupying (1-based) positions from Pos on. It
// is the TCP MsgPathSeg frame in memory: every receiver resolves the blocks
// from its own plan (Plan.Segment, the whole template when templated, Head
// alone otherwise), so a frame aliases nothing of the coordinator's.
// Job.Broadcast receives it as a *PathSegment carved from the sender's
// FrameSlab, which boxes without allocating.
type PathSegment struct {
	Pos  int
	Head ir.BlockID
}

// frameChunk is the number of frames in one FrameSlab chunk: 512 frames of
// 16 bytes fill the 8 KB size class exactly.
const frameChunk = 512

// FrameSlab carves the frames a control-plane sender hands Job.Broadcast —
// one per path extension — out of shared chunks, so a frame costs no
// allocation of its own.
//
// Ownership is val.Slab's: chunks are append-only and belong to the garbage
// collector. A FrameSlab never resets, recycles or pools a chunk, and has no
// method that could; it only forgets a chunk once it is full, so a chunk
// lives exactly as long as some mailbox still holds a frame carved from it.
// A FrameSlab has one owner — the simulated control plane, under the
// coordinator's lock, or a TCP worker's job run, under its path lock — and is
// not safe for concurrent use. The zero FrameSlab is ready.
type FrameSlab struct {
	free []PathSegment // unused tail of the newest chunk
}

// New returns a frame holding seg, carved from the slab.
func (s *FrameSlab) New(seg PathSegment) *PathSegment {
	if len(s.free) == 0 {
		s.free = make([]PathSegment, frameChunk)
	}
	f := &s.free[0]
	*f = seg
	s.free = s.free[1:]
	return f
}

// resolveSegments fills p.segments. The segment a block b heads is b itself,
// then every successor reached through TermJump terminators, up to and
// including the first block that ends in a branch (the next extension needs
// a runtime decision) or the exit block. The walk is a pure function of the
// IR, which is what lets the coordinator and every worker resolve identical
// templates independently. It runs from every block, reached or not, and a
// jump chain that comes back to a block it already crossed — one that never
// reaches a decision — fails planning, naming the cycle's blocks.
func (p *Plan) resolveSegments() error {
	p.segments = make([][]ir.BlockID, len(p.IR.Blocks))
	for i := range p.segments {
		var seg []ir.BlockID
		for b := ir.BlockID(i); ; b = p.IR.Blocks[b].Term.Succs[0] {
			if j := slices.Index(seg, b); j >= 0 {
				names := make([]string, 0, len(seg)-j)
				for _, c := range seg[j:] {
					names = append(names, fmt.Sprintf("b%d", c))
				}
				return fmt.Errorf("core: blocks %s form a cycle with no branch", strings.Join(names, ", "))
			}
			seg = append(seg, b)
			if p.IR.Blocks[b].Term.Kind != ir.TermJump {
				break
			}
		}
		p.segments[i] = slices.Clip(seg)
	}
	return nil
}

// Segment returns the blocks a path frame headed by head covers: the whole
// jump-chain segment when templated, head alone otherwise. Every call for
// the same head returns the same slice, resolved once when the plan was
// built; it is shared read-only by the coordinator, every host and every TCP
// worker, and must not be modified.
func (p *Plan) Segment(head ir.BlockID, templated bool) []ir.BlockID {
	seg := p.segments[head]
	if !templated {
		return seg[:1:1]
	}
	return seg
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
	return ctrlFrameOverhead + varintLen(s.Pos) + varintLen(int(s.Head))
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
