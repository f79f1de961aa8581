package experiments

import (
	"fmt"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// Delta is an extension beyond the paper (DESIGN.md Sec. 15): the
// delta-iteration ablation on connected components. Both columns run the
// identical deltaMerge program; with Delta off every solution store
// re-derive its full label index on every loop step before merging the
// step's delta, while the default maintains the index incrementally and
// touches only the workset's keys. The graph (a sea of two-node components
// plus a few long paths) makes the workset collapse after two steps while
// the solution set stays large, so the off column pays the full index
// rebuild on ~Len near-empty steps. The "total" row is end-to-end wall
// time; the per-step rows report the inter-step interval of the last rep
// with the workset size (delta_in), changed pairs, and index entries
// touched — the frontier shrinking step by step.
func Delta(o Options) (*Table, error) {
	spec := workload.ConnectedSpec{PairChains: 40000, LongChains: 12, LongLen: 96}
	if o.Quick {
		spec = workload.ConnectedSpec{PairChains: 2500, LongChains: 8, LongLen: 12}
	}
	const machines = 8
	t := &Table{
		Key: "delta",
		Title: fmt.Sprintf("Delta iterations: connected components, %d nodes, %d-step tail",
			spec.Nodes(), spec.LongLen),
		XAxis:   "step",
		Columns: []string{"Mitos -delta=off", "Mitos"},
	}
	var cols [][]Cell // [column][row]: "total" first, then one row per loop step
	for _, delta := range []bool{false, true} {
		opts := o.mitosOpts()
		opts.Delta = delta
		cell, last, err := measure(o, machines, spec.Generate, func(cl *cluster.Cluster, st store.Store) (*core.Result, error) {
			return workload.RunConnected(spec, st, cl, opts)
		})
		if err != nil {
			return nil, err
		}
		cell.Counters["delta_in"] = last.DeltaIn
		cell.Counters["delta_changed"] = last.DeltaChanged
		cell.Counters["delta_touched"] = last.DeltaTouched
		cell.Counters["solution_elements"] = last.DeltaElements
		cell.Counters["solution_bytes"] = last.DeltaBytes
		cell.Counters["loop_steps"] = int64(len(last.DeltaSteps))
		col := []Cell{cell}
		for _, s := range last.DeltaSteps {
			secs := float64(s.DurNS) / 1e9
			col = append(col, Cell{
				Seconds: secs,
				Median:  secs,
				Counters: map[string]int64{
					"pos":         int64(s.Pos),
					"delta_in":    s.In,
					"changed":     s.Changed,
					"touched":     s.Touched,
					"interval_ns": s.DurNS,
					"elements":    s.Elements,
					"bytes":       s.Bytes,
				},
			})
		}
		cols = append(cols, col)
	}
	// Both modes run the same decision sequence (identical outputs), so the
	// step series align; guard with min anyway.
	rows := min(len(cols[0]), len(cols[1]))
	for r := 0; r < rows; r++ {
		if r == 0 {
			t.XLabels = append(t.XLabels, "total (s)")
		} else {
			t.XLabels = append(t.XLabels, fmt.Sprint(r))
		}
		t.Cells = append(t.Cells, []Cell{cols[0][r], cols[1][r]})
	}
	return t, nil
}
