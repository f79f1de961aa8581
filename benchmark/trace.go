package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dfs"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/netcluster"
	"github.com/mitos-project/mitos/internal/obs"
)

// span is one interval at a layer boundary, recorded from the benchmark's
// own files around the call into the layer.
type span struct {
	name       string
	job        int
	parent     int // index into tracer.spans, -1 for a job's root
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. It is used from the one
// goroutine that drives jobs. A nil tracer records nothing, which is how
// the unobserved comparison jobs run.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, job: job, parent: parent, start: time.Since(t.origin)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].end = time.Since(t.origin)
	}
}

// selfMs is each span name's self time — its duration minus the part its
// children cover — as the median over jobs, in milliseconds.
func (t *tracer) selfMs() map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	byName := map[string][]float64{}
	for i, s := range t.spans {
		byName[s.name] = append(byName[s.name], float64(self[i])/1e6)
	}
	out := make(map[string]float64, len(byName))
	for name, v := range byName {
		out[name] = median(v)
	}
	return out
}

// write stores the spans as Chrome trace_event JSON: one complete event per
// span, the job's identifier as the thread so jobs stack as lanes, parent
// and job in args.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		events[i] = event{
			Name: s.name, Cat: "benchmark", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Tid:  s.job,
			Args: map[string]any{"job": s.job, "span": i, "parent_span": s.parent, "parent": parent},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// sessionTotals are the counters a TCP session accumulates across jobs.
type sessionTotals struct {
	socketBytes, creditStalls, ctrlMessages, ctrlBytes int64
	stallTime                                          time.Duration
}

// internalJob is what one job through the internal path measured.
type internalJob struct {
	// run is the wall time of the region the public Run/RunTCP covers:
	// plan passes, cluster start, execution, teardown.
	run time.Duration
	// exec is the engine's own Result.Duration.
	exec time.Duration
	// cpu is the process CPU time spent over run, in seconds.
	cpu float64
	// counts holds the per-layer counts read at the layer boundaries; only
	// an observed job fills the ones that come from the metrics snapshot.
	counts map[string]float64
	// snaps are the job's metrics snapshots: the coordinator's and, under
	// TCP, each worker's. The layer budget reads per-operator counts there.
	snaps []*obs.Snapshot
}

// runInternal runs one job through the internal path — the calls the
// public Run/RunTCP make, spelled out so that each layer boundary gets a
// span and its counts are read where the work happens. With observe, a
// metrics-only observer is attached for this job. The lineage observer is
// never attached: its cost is quadratic in steps.
func (in *instance) runInternal(tr *tracer, job int, observe bool) (*internalJob, error) {
	root := tr.begin("job", job, -1)
	defer tr.end(root)
	step := func(name string, f func() error) error {
		id := tr.begin(name, job, root)
		defer tr.end(id)
		return f()
	}

	var st netcluster.NamedStore
	if err := step("store.load", func() (err error) {
		st, err = in.newStore()
		return err
	}); err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	if observe {
		opts.Obs = obs.New()
	}
	out := &internalJob{counts: map[string]float64{}}
	var res *core.Result
	var err error
	c0 := cpuSeconds()
	if in.w.tcp {
		res, err = in.runTCP(step, st, opts, out)
	} else {
		res, err = in.runSim(step, st.(*dfs.Store), opts, out)
	}
	out.cpu = cpuSeconds() - c0
	if err != nil {
		return nil, err
	}
	if err := step("verify", func() error { return in.verify(st) }); err != nil {
		return nil, err
	}
	out.exec = res.Duration
	out.snaps = append(out.snaps, opts.Obs.Snapshot())
	out.readCounts(res)
	return out, nil
}

type stepFunc func(name string, f func() error) error

func (in *instance) runSim(step stepFunc, st *dfs.Store, opts core.Options, out *internalJob) (*core.Result, error) {
	var (
		ast  *lang.Program
		g    *ir.Graph
		cl   *cluster.Cluster
		plan *core.Plan
		res  *core.Result
	)
	err := step("lang.parse", func() (err error) { ast, err = lang.Parse(in.src); return })
	if err == nil {
		err = step("lang.check", func() error { _, err := lang.Check(ast); return err })
	}
	if err == nil {
		err = step("ir.ssa", func() (err error) { g, err = ir.CompileToSSA(ast); return })
	}
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := step("core.plan", func() (err error) {
		if plan, err = core.BuildPlan(g, simMachines); err != nil {
			return err
		}
		plan.InsertCombiners()
		plan.BuildChains()
		return nil
	}); err != nil {
		return nil, err
	}
	if err := step("cluster.new", func() (err error) { cl, err = cluster.New(cluster.FastConfig(simMachines)); return }); err != nil {
		return nil, err
	}
	before := st.Stats()
	err = step("core.execute", func() (err error) { res, err = core.ExecutePlan(plan, st, cl, opts); return })
	cs, ds := cl.Stats(), st.Stats()
	_ = step("cluster.close", func() error { cl.Close(); return nil })
	out.run = time.Since(t0)
	if err != nil {
		return nil, err
	}
	c := out.counts
	c["cluster.ctrl_messages"] = float64(cs.CtrlMessages)
	c["cluster.net_batches"] = float64(cs.NetBatches)
	c["cluster.net_bytes"] = float64(cs.NetBytes)
	c["dfs.opens"] = float64(ds.Opens - before.Opens)
	c["dfs.blocks_read"] = float64(ds.BlocksRead - before.BlocksRead)
	c["dfs.bytes_read"] = float64(ds.BytesRead - before.BytesRead)
	return res, nil
}

func (in *instance) runTCP(step stepFunc, st netcluster.NamedStore, opts core.Options, out *internalJob) (*core.Result, error) {
	var nres *netcluster.Result
	t0 := time.Now()
	err := step("netcluster.run", func() (err error) { nres, err = in.coord.Run(in.src, st, opts); return })
	out.run = time.Since(t0)
	if err != nil {
		return nil, err
	}
	now := sessionTotals{nres.SocketBytes, nres.CreditStalls, nres.CtrlMessages, nres.CtrlBytes, nres.CreditStallTime}
	prev := in.prev
	in.prev = now
	c := out.counts
	c["netcluster.ship_merge_ms"] = float64(out.run-nres.Duration) / 1e6
	c["netcluster.socket_bytes"] = float64(now.socketBytes - prev.socketBytes)
	c["netcluster.payload_bytes"] = float64(nres.Job.BytesSent)
	if nres.Job.BytesSent > 0 {
		c["netcluster.framing_ratio"] = c["netcluster.socket_bytes"] / float64(nres.Job.BytesSent)
	}
	c["netcluster.credit_stalls"] = float64(now.creditStalls - prev.creditStalls)
	c["netcluster.credit_stall_ms"] = float64(now.stallTime-prev.stallTime) / 1e6
	c["netcluster.ctrl_messages"] = float64(now.ctrlMessages - prev.ctrlMessages)
	c["netcluster.ctrl_bytes"] = float64(now.ctrlBytes - prev.ctrlBytes)
	c["netcluster.attempts"] = float64(nres.Attempts)
	for _, ws := range nres.WorkerStats {
		if ws != nil {
			out.snaps = append(out.snaps, ws)
		}
	}
	return &core.Result{
		Steps: nres.Steps, Duration: nres.Duration,
		JoinBuilds: nres.JoinBuilds, MaxBufferedBags: nres.MaxBufferedBags,
		CombineIn: nres.CombineIn, CombineOut: nres.CombineOut,
		TemplateInstalls: nres.TemplateInstalls, TemplateInstantiations: nres.TemplateInstantiations,
		DeltaIn: nres.DeltaIn, DeltaChanged: nres.DeltaChanged, DeltaTouched: nres.DeltaTouched,
		DeltaElements: nres.DeltaElements, DeltaBytes: nres.DeltaBytes,
		Job: nres.Job,
	}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// readCounts fills the core, dataflow and obs counts from the engine's
// result and, on an observed job, from the metrics snapshots (the
// coordinator's plus, under TCP, each worker's).
func (j *internalJob) readCounts(res *core.Result) {
	c := j.counts
	c["core.steps"] = float64(res.Steps)
	c["core.ctrl_messages"] = float64(res.Job.CtrlMessages)
	c["core.ctrl_bytes"] = float64(res.Job.CtrlBytes)
	c["core.template_installs"] = float64(res.TemplateInstalls)
	c["core.template_instantiations"] = float64(res.TemplateInstantiations)
	c["core.template_hit_ratio"] = ratio(float64(res.TemplateInstantiations), float64(res.TemplateInstalls+res.TemplateInstantiations))
	c["core.join_builds"] = float64(res.JoinBuilds)
	c["core.combine_in"] = float64(res.CombineIn)
	c["core.combine_out"] = float64(res.CombineOut)
	c["core.combine_ratio"] = ratio(float64(res.CombineIn), float64(res.CombineOut))
	c["core.delta_in"] = float64(res.DeltaIn)
	c["core.delta_changed"] = float64(res.DeltaChanged)
	c["core.delta_touched"] = float64(res.DeltaTouched)
	c["core.solution_elements"] = float64(res.DeltaElements)
	c["core.solution_bytes"] = float64(res.DeltaBytes)
	c["core.max_buffered_bags"] = float64(res.MaxBufferedBags)

	c["dataflow.elements_sent"] = float64(res.Job.ElementsSent)
	c["dataflow.elements_chained"] = float64(res.Job.ElementsChained)
	c["dataflow.chained_frac"] = ratio(float64(res.Job.ElementsChained), float64(res.Job.ElementsSent))
	c["dataflow.batches_sent"] = float64(res.Job.BatchesSent)
	c["dataflow.remote_batches"] = float64(res.Job.RemoteBatches)
	c["dataflow.bytes_sent"] = float64(res.Job.BytesSent)
	c["dataflow.bytes_received"] = float64(res.Job.BytesReceived)
	c["dataflow.mailbox_dropped"] = float64(res.Job.MailboxDropped)

	var series int
	var hwm int64
	perMachine := map[int]int64{}
	for _, s := range j.snaps {
		series += len(s.Counters) + len(s.Gauges) + len(s.Histograms)
		c["core.cfm_broadcasts"] += float64(s.TotalFor("cfm", "broadcasts"))
		c["core.decisions"] += float64(s.Total("decisions"))
		c["core.bags_out"] += float64(s.Total("bags_out"))
		c["core.join_build_reuses"] += float64(s.Total("join_build_reuses"))
		for _, g := range s.Gauges {
			if g.Name == "mailbox_hwm" {
				hwm = max(hwm, g.Value)
			}
		}
		for m, n := range s.PerMachine("elements_in") {
			perMachine[m] += n
		}
	}
	c["obs.series"] = float64(series)
	c["dataflow.mailbox_hwm"] = float64(hwm)
	var most, sum int64
	for _, n := range perMachine {
		most, sum = max(most, n), sum+n
	}
	if sum > 0 {
		c["dataflow.partition_skew"] = float64(most) * float64(len(perMachine)) / float64(sum)
	}
}

func traceFile(out, workload string) string {
	ext := filepath.Ext(out)
	return fmt.Sprintf("%s.trace.%s.json", out[:len(out)-len(ext)], workload)
}
