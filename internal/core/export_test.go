package core

import "github.com/mitos-project/mitos/internal/val"

// SetBatchHook installs fn to observe every host OnBatch (operator variable,
// whether the edge it arrived on is chained, elements streamed, elements
// buffered) for external tests that need the workload package; nil removes
// it. Not safe while a job runs.
func SetBatchHook(fn func(op string, chained bool, streamed, buffered int)) {
	if fn == nil {
		batchHook = nil
		return
	}
	batchHook = func(op *PlanOp, input, streamed, buffered int) {
		fn(op.Instr.Var, op.Inputs[input].Chained, streamed, buffered)
	}
}

// SetScratchHook installs fn to see, and overwrite, a host's scratch tuple
// every time an element leaves it; nil removes it. Not safe while a job
// runs.
func SetScratchHook(fn func(scratch []val.Value)) { scratchHook = fn }
