package core

import (
	"sync"
	"time"

	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/obs/httpserve"
)

// jobView adapts one execution to the introspection server's JobView
// interface. ExecutePlan registers it after the job starts (so handler
// goroutines observe fully-initialized job state through the server's
// registration mutex) and finishes it when the job ends.
type jobView struct {
	rt      *runtime
	job     *dataflow.Job
	started time.Time

	mu       sync.Mutex
	done     bool
	err      error
	finished time.Time
}

func (v *jobView) finish(err error) {
	v.mu.Lock()
	v.done, v.err, v.finished = true, err, time.Now()
	v.mu.Unlock()
}

func (v *jobView) Name() string { return "mitos" }

func (v *jobView) Dot() string { return v.rt.plan.DotLive(v.rt.obs.Snapshot()) }

func (v *jobView) Status() *httpserve.JobStatus {
	st := &httpserve.JobStatus{State: "running"}
	v.mu.Lock()
	elapsed := time.Since(v.started)
	if v.done {
		elapsed = v.finished.Sub(v.started)
		st.State = "done"
		if v.err != nil {
			st.State = "failed"
			st.Error = v.err.Error()
		}
	}
	v.mu.Unlock()
	st.Elapsed = elapsed.Seconds()
	if v.rt.obs != nil {
		st.Steps = v.rt.obs.Snapshot().Gauge(obs.MachineDriver, "cfm", "path_len")
	}

	intro := v.job.Introspect()
	st.Totals = httpserve.Totals{
		ElementsSent:    intro.Totals.ElementsSent,
		ElementsChained: intro.Totals.ElementsChained,
		RemoteBatches:   intro.Totals.RemoteBatches,
		BytesSent:       intro.Totals.BytesSent,
		BytesReceived:   intro.Totals.BytesReceived,
	}
	// Producer-side edge depths keyed by (consumer, slot) so the plan's
	// input edges below can look up their live queue depth.
	type edgeKey struct {
		to   string
		slot int
	}
	depths := make(map[edgeKey]int64)
	for _, op := range intro.Ops {
		for _, e := range op.Edges {
			depths[edgeKey{e.To, e.Input}] += e.Depth
		}
	}
	for i, pop := range v.rt.plan.Ops {
		kind := pop.Instr.Kind.String()
		if pop.Synth != SynthNone {
			kind = pop.Synth.String()
		}
		os := httpserve.OpStatus{
			Name:        pop.Instr.Var,
			Kind:        kind,
			Block:       int(pop.Block),
			Parallelism: pop.Par,
			Condition:   pop.IsCondition,
			Synthetic:   pop.Synth != SynthNone,
			Chain:       pop.Chain,
		}
		for slot, in := range pop.Inputs {
			os.Inputs = append(os.Inputs, httpserve.EdgeStatus{
				From:       in.Producer.Instr.Var,
				Slot:       slot,
				Part:       partName(&in, pop),
				Combined:   in.Combined,
				Chained:    in.Chained,
				QueueDepth: depths[edgeKey{pop.Instr.Var, slot}],
			})
		}
		if i < len(intro.Ops) {
			for _, inst := range intro.Ops[i].Instances {
				os.Instances = append(os.Instances, httpserve.InstanceStatus{
					Machine:       inst.Machine,
					MailboxDepth:  inst.MailboxDepth,
					MailboxHWM:    inst.MailboxHWM,
					CurBag:        inst.CurBag,
					BagsDone:      inst.BagsDone,
					BatchesParked: inst.BatchesParked,
				})
			}
		}
		st.Ops = append(st.Ops, os)
	}
	for _, e := range intro.Egress {
		st.Egress = append(st.Egress, httpserve.EgressStatus{From: e.From, To: e.To, Backlog: e.Backlog})
	}
	return st
}
