package core

import "github.com/mitos-project/mitos/internal/val"

// SetBatchHook installs fn to observe every host OnBatch (operator variable,
// whether the edge it arrived on is chained, whether it is a chained edge
// from a lending producer — a buffered element is then copied — elements
// streamed, elements buffered) for external tests that need the workload
// package; nil removes it. Not safe while a job runs.
func SetBatchHook(fn func(op string, chained, lent bool, streamed, buffered int)) {
	if fn == nil {
		batchHook = nil
		return
	}
	batchHook = func(op *PlanOp, input, streamed, buffered int) {
		in := op.Inputs[input]
		fn(op.Instr.Var, in.Chained, in.Chained && in.Producer.Lends, streamed, buffered)
	}
}

// SetScratchHook installs fn to see, and overwrite, a host's scratch tuple
// every time an element leaves it, and its lent tuple (lent) every time an
// element it holds has been handed over; nil removes it. Not safe while a job
// runs.
func SetScratchHook(fn func(tuple []val.Value, lent bool)) { scratchHook = fn }
