package experiments

import (
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// Templates is an extension beyond the paper (DESIGN.md Sec. 13): the
// execution-template ablation. With templates on, the control plane
// resolves each basic block's jump chain once, caches it, and later
// replays it as a single parameterized segment frame — instead of one
// path-update broadcast per basic-block visit — while workers speculate
// past their own condition decisions and fold per-instance completions
// into one aggregated event per position. Row one is the Fig. 7 step loop
// on a zero-delay cluster (engine CPU per step, the headline per-step
// overhead number); row two is the same loop on the real TCP backend, per
// step as Fig. 7's TCP column takes it (tcpStepSlope), where the counters
// carry the wire-level evidence: ctrl_messages and ctrl_bytes collapse,
// template_installs stays at the handful of distinct blocks while
// template_instantiations tracks the iteration count. Row three is the
// parallel-body Visit Count job on TCP, checking the control-plane savings
// also hold under a real data plane.
func Templates(o Options) (*Table, error) {
	// The engine-only row uses a longer loop than the TCP rows so the fixed
	// job cost (parse, SSA compile, plan build, one dfs open) amortizes and
	// the per-step figure isolates steady-state control-plane work.
	engineSteps := 500
	const machines = 8
	tcpWorkers := 4
	spec := workload.VisitCountSpec{Days: 15, VisitsPerDay: 2000, Pages: 200, WithDiff: true, Seed: 14}
	if o.Quick {
		engineSteps = 100
		tcpWorkers = 2
		spec.Days, spec.VisitsPerDay = 5, 400
	}
	t := &Table{
		Key:     "templates",
		Title:   "Execution templates: cached control-plane schedules on the step loop (per step) and Visit Count (wall)",
		XAxis:   "workload",
		Columns: []string{"Mitos (no templates)", "Mitos"},
	}
	type rowSpec struct {
		label string
		scale float64
		cell  func(opts core.Options) (Cell, error)
	}
	rows := []rowSpec{
		{
			// Engine CPU only: zero-delay cluster, so the per-step control
			// work templates remove is the signal, not noise under the
			// simulated coordination delays.
			label: "step loop, engine only (s/step)",
			scale: 1 / float64(engineSteps),
			cell: func(opts core.Options) (Cell, error) {
				mo := o
				mo.fastCluster = true
				s, last, err := measure(mo, machines, nil, func(cl *cluster.Cluster, st store.Store) (*core.Result, error) {
					return workload.StepMitos(cl, st, engineSteps, opts)
				})
				if err != nil {
					return Cell{}, err
				}
				s.Counters["template_installs"] = int64(last.TemplateInstalls)
				s.Counters["template_instantiations"] = int64(last.TemplateInstantiations)
				return s, nil
			},
		},
		{
			label: "step loop, TCP (s/step)",
			scale: 1,
			cell: func(opts core.Options) (Cell, error) {
				return tcpStepSlope(o, tcpWorkers, opts)
			},
		},
		{
			label: "visit count, TCP (s)",
			scale: 1,
			cell: func(opts core.Options) (Cell, error) {
				return measureTCP(o, spec.Script(), spec.Generate, tcpWorkers, opts)
			},
		},
	}
	for _, w := range rows {
		var row []Cell
		for _, templates := range []bool{false, true} {
			opts := o.mitosOpts()
			opts.Templates = templates
			s, err := w.cell(opts)
			if err != nil {
				return nil, err
			}
			row = append(row, s.Scaled(w.scale))
		}
		t.XLabels = append(t.XLabels, w.label)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}
