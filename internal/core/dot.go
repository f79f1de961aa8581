package core

import (
	"fmt"
	"strings"

	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/obs"
)

// Dot renders the plan as a Graphviz digraph in the style of the paper's
// Fig. 3b: basic blocks are dashed clusters, singleton-producing (wrapped
// scalar) operators have thin borders, phi operators are filled black,
// condition operators are filled blue, synthetic map-side combiners are
// filled orange, and cross-block (conditional) edges are dashed. Operator
// chains are rendered as groups: members share a purple border and a
// "chain N" label, and the fused edges between them are bold purple —
// chains may span blocks, so the block clusters stay the primary grouping.
// An operator's fused stages are listed in its label, one "+ var kind" line
// each, "(scratch)" marking the ones that read the scratch tuple and
// "(lends)" the map, stage or operator, that lends its output. An edge
// whose key shuffle the planner dropped is labeled forward(keyed).
func (p *Plan) Dot() string { return p.dot(nil) }

// DotLive renders the same digraph with each operator annotated with its
// live counters from snap (elements in/out, bags produced) — the
// introspection server's /jobs/{id}/dot payload. A nil or empty snapshot
// degrades to the plain rendering.
func (p *Plan) DotLive(snap *obs.Snapshot) string { return p.dot(snap) }

func (p *Plan) dot(snap *obs.Snapshot) string {
	var b strings.Builder
	b.WriteString("digraph mitos {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
	byBlock := make(map[ir.BlockID][]*PlanOp)
	for _, op := range p.Ops {
		byBlock[op.Block] = append(byBlock[op.Block], op)
	}
	for _, blk := range p.IR.Blocks {
		ops := byBlock[blk.ID]
		if len(ops) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  subgraph cluster_b%d {\n    label=\"b%d\";\n    style=dashed;\n", blk.ID, blk.ID)
		for _, op := range ops {
			kind := op.Instr.Kind.String()
			if op.Synth != SynthNone {
				kind = op.Synth.String()
			}
			label := fmt.Sprintf("%s\\n%s par=%d", op.Instr.Var, kind, op.Par)
			if op.Lends && len(op.Stages) == 0 {
				label += " (lends)"
			}
			if op.Chain != 0 {
				label += fmt.Sprintf("\\nchain %d", op.Chain)
			}
			for i, st := range op.Stages {
				label += fmt.Sprintf("\\n+ %s %s", st.Instr.Var, st.Instr.Kind)
				if st.Scratch {
					label += " (scratch)"
				}
				if op.Lends && i == len(op.Stages)-1 {
					label += " (lends)"
				}
			}
			if snap != nil {
				name := op.Instr.Var
				label += fmt.Sprintf("\\nin=%d out=%d bags=%d",
					snap.TotalFor(name, "elements_in"),
					snap.TotalFor(name, "elements_out"),
					snap.TotalFor(name, "bags_out"))
			}
			attrs := []string{fmt.Sprintf("label=%q", label)}
			switch {
			case op.Synth != SynthNone:
				attrs = append(attrs, "style=filled", "fillcolor=orange")
			case op.Instr.Kind == ir.OpPhi:
				attrs = append(attrs, "style=filled", "fillcolor=black", "fontcolor=white")
			case op.IsCondition:
				attrs = append(attrs, "style=filled", "fillcolor=lightblue")
			case op.Par == 1:
				attrs = append(attrs, "penwidth=0.5")
			default:
				attrs = append(attrs, "penwidth=2")
			}
			if op.Chain != 0 {
				attrs = append(attrs, "color=purple")
			}
			fmt.Fprintf(&b, "    n%d [%s];\n", op.ID, strings.Join(attrs, ", "))
		}
		b.WriteString("  }\n")
	}
	// Mark loop-invariant join-build edges (where hoisting applies).
	loops := ir.AnalyzeLoops(p.IR)
	hoistable := make(map[[2]*PlanOp]bool)
	for _, e := range ir.FindInvariantEdges(p.IR, loops) {
		if e.HoistableJoinBuild {
			// ByVar resolves a fused stage's variable to its operator.
			hoistable[[2]*PlanOp{p.ByVar[e.Producer.Var], p.ByVar[e.Consumer.Var]}] = true
		}
	}
	for _, op := range p.Ops {
		for slot, in := range op.Inputs {
			lbl := fmt.Sprintf("%d:%s", slot, partName(&in, op))
			if in.Chained {
				lbl += " chained"
			}
			attrs := []string{fmt.Sprintf("label=%q", lbl)}
			if in.Producer.Block != op.Block {
				attrs = append(attrs, "style=dashed") // conditional edge
			}
			if in.Chained {
				attrs = append(attrs, "color=purple", "penwidth=2") // fused hop
			}
			if hoistable[[2]*PlanOp{in.Producer, op}] {
				attrs = append(attrs, "color=darkgreen", "penwidth=2") // hoisted build side
			}
			fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", in.Producer.ID, op.ID, strings.Join(attrs, ", "))
		}
	}
	b.WriteString("}\n")
	return b.String()
}
