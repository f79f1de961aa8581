package dataflow

import "sync/atomic"

// Live-job introspection: a point-in-time structural sample of a running
// (or finished) job — per-instance mailbox depths, per-edge buffered
// element counts, transport egress backlogs, and per-instance bag progress.
// The introspection HTTP server renders it as /jobs/{id}.

// Progresser is an optional Vertex extension: a vertex implementing it
// reports live bag progress to Job.Introspect. Implementations must be
// safe to call from any goroutine (use atomics) — introspection runs
// concurrently with the vertex's event loop.
type Progresser interface {
	// BagProgress returns the bag position the vertex is currently
	// producing and how many output bags it has finished.
	BagProgress() (cur, done int64)
}

// InstanceStatus is one physical operator instance's live state.
type InstanceStatus struct {
	Machine      int   `json:"machine"`
	MailboxDepth int   `json:"mailbox_depth"`
	MailboxHWM   int   `json:"mailbox_hwm"`
	CurBag       int64 `json:"cur_bag"`
	BagsDone     int64 `json:"bags_done"`
}

// EdgeDepth is the producer-side buffered element count of one logical
// edge, summed over the producer's instances. Chained edges never buffer
// (direct delivery), so their depth is always zero.
type EdgeDepth struct {
	To      string `json:"to"`
	Input   int    `json:"input"`
	Part    string `json:"part"`
	Chained bool   `json:"chained,omitempty"`
	Depth   int64  `json:"queue_depth"`
}

// OpIntro is one logical operator's live state.
type OpIntro struct {
	Name        string           `json:"name"`
	Parallelism int              `json:"parallelism"`
	Instances   []InstanceStatus `json:"instances"`
	Edges       []EdgeDepth      `json:"edges,omitempty"`
}

// EgressIntro is one machine pair's transport backlog.
type EgressIntro struct {
	From    int `json:"from"`
	To      int `json:"to"`
	Backlog int `json:"backlog"`
}

// Introspection is a point-in-time sample of a job's live state.
type Introspection struct {
	Ops    []OpIntro     `json:"ops"`
	Egress []EgressIntro `json:"egress,omitempty"`
	Totals JobStats      `json:"totals"`
}

// EnableIntrospection attaches per-edge depth counters so Introspect can
// report buffered element counts. Must be called before Start; without it
// the emit path skips depth accounting entirely (one nil check per
// element).
func (j *Job) EnableIntrospection() {
	for _, insts := range j.insts {
		for _, in := range insts {
			for _, oe := range in.outs {
				oe.depth = new(atomic.Int64)
			}
		}
	}
}

// MailboxDepth sums the mailbox depths of every instance the job hosts: the
// total of Introspect's per-instance MailboxDepth, sampled without building
// the rest. Same concurrency rule as Introspect.
func (j *Job) MailboxDepth() int {
	depth := 0
	for _, insts := range j.insts {
		for _, in := range insts {
			if in.mbox != nil {
				depth += in.mbox.Depth()
			}
		}
	}
	return depth
}

// Introspect samples the job's live state. Safe to call concurrently with
// the run from any goroutine, provided the caller observed Start (the
// introspection server registers jobs after Start, which provides that
// ordering).
func (j *Job) Introspect() *Introspection {
	out := &Introspection{Totals: j.Stats()}
	for _, insts := range j.insts {
		if len(insts) == 0 {
			continue
		}
		op := OpIntro{Name: insts[0].op.Name, Parallelism: insts[0].op.Parallelism}
		for _, in := range insts {
			st := InstanceStatus{Machine: in.machine, CurBag: -1}
			// Chain members have no mailbox of their own; their external
			// traffic shows up on the chain driver's depths.
			if in.mbox != nil {
				st.MailboxDepth = in.mbox.Depth()
				st.MailboxHWM = in.mbox.HighWater()
			}
			if p, ok := in.vertex.(Progresser); ok && p != nil {
				st.CurBag, st.BagsDone = p.BagProgress()
			}
			op.Instances = append(op.Instances, st)
		}
		// Edge depths summed over producer instances; the edge list is the
		// same for every instance of the op.
		for ei, oe := range insts[0].outs {
			d := EdgeDepth{To: oe.targets[0].op.Name, Input: oe.input, Part: oe.part.String(), Chained: oe.direct}
			for _, in := range insts {
				if ei < len(in.outs) && in.outs[ei].depth != nil {
					d.Depth += in.outs[ei].depth.Load()
				}
			}
			op.Edges = append(op.Edges, d)
		}
		out.Ops = append(out.Ops, op)
	}
	if j.tr != nil {
		for s, row := range j.tr.pairs {
			for r, eg := range row {
				if eg == nil {
					continue
				}
				if b := eg.Depth(); b > 0 {
					out.Egress = append(out.Egress, EgressIntro{From: s, To: r, Backlog: b})
				}
			}
		}
	}
	return out
}
