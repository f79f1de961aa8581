package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/obs/httpserve"
	"github.com/mitos-project/mitos/internal/store"
)

// Options configure one Mitos execution.
type Options struct {
	// Parallelism is the instance count of data-parallel operators;
	// 0 selects one instance per cluster machine.
	Parallelism int
	// Pipelining overlaps iteration steps (paper Sec. 5, Fig. 9 ablates it).
	Pipelining bool
	// Hoisting reuses loop-invariant join build state across iteration
	// steps (paper Sec. 5.3, Fig. 8 ablates it).
	Hoisting bool
	// Combiners inserts map-side partial aggregation ahead of shuffle and
	// gather edges (plan rewrite; see InsertCombiners). Savings multiply by
	// the iteration count, since Mitos re-runs these shuffles every step.
	Combiners bool
	// Chaining fuses forward edges into chained physical vertices
	// (BuildChains): elements cross fused edges by direct call instead of a
	// mailbox batch, removing the engine's per-hop overhead on the
	// per-step-critical forward paths.
	Chaining bool
	// Templates caches control-plane decisions as execution templates:
	// jump-chain path segments are resolved once per starting block and
	// re-instantiated by position patching, shipping one batched control
	// frame per worker per extension instead of one one-block frame per
	// position. Effective only with Pipelining (non-pipelined execution
	// gates positions one at a time by construction).
	Templates bool
	// Delta keeps deltaMerge solution sets as incremental indexed state,
	// so each loop step costs O(|delta|) index work. False is the
	// -delta=off ablation: the same plan runs, but every step rebuilds its
	// solution set from scratch (O(|solution|) per step), modeling full
	// re-derivation. Outputs are identical either way.
	Delta bool
	// BatchSize overrides the engine's transfer batch size (0 = default).
	BatchSize int
	// Obs attaches an observability collector (metrics and optionally
	// tracing or bag lineage) to every layer of the execution. Nil
	// disables instrumentation; the disabled path costs one pointer check
	// per site.
	Obs *obs.Observer
	// HTTP registers the execution with a live introspection server
	// (/jobs, /jobs/{id}, /jobs/{id}/dot) and enables the per-edge queue
	// depth sampling those endpoints report. Nil disables registration.
	HTTP *httpserve.Server
}

// Templated reports whether the control plane caches and batches path
// segments as execution templates. Non-pipelined execution gates each
// position on the previous one completing, so extensions are inherently
// per-position; templates only batch pipelined broadcasts.
func (o Options) Templated() bool { return o.Templates && o.Pipelining }

// DefaultOptions enables every optimization: pipelining and hoisting as
// Mitos runs in the paper, plus map-side combiners, operator chaining, and
// execution templates.
func DefaultOptions() Options {
	return Options{Pipelining: true, Hoisting: true, Combiners: true, Chaining: true, Templates: true, Delta: true}
}

// Result reports what one execution did.
type Result struct {
	// Steps is the execution path length (number of basic-block visits).
	Steps int
	// Duration is the wall-clock execution time (excluding planning).
	Duration time.Duration
	// JoinBuilds counts hash-table build phases executed by join operator
	// instances. With hoisting, a loop-invariant build side is built once
	// per instance instead of once per iteration step.
	JoinBuilds int64
	// MaxBufferedBags is the largest number of input bags any operator
	// instance held at once — the garbage-collection rule of Sec. 5.2.4
	// keeps it bounded regardless of the iteration count.
	MaxBufferedBags int64
	// CombineIn and CombineOut count elements entering and leaving map-side
	// combiners; their ratio is the local aggregation factor, and the
	// difference is the element traffic the shuffles were spared.
	CombineIn  int64
	CombineOut int64
	// ChainedEdges counts plan edges fused by operator chaining;
	// Job.ElementsChained counts the elements that crossed them by direct
	// call.
	ChainedEdges int
	// TemplateInstalls and TemplateInstantiations count execution-template
	// cache misses (segment resolved and recorded) and hits (segment
	// re-broadcast by patching only the position). In a steady-state loop
	// every iteration is an instantiation.
	TemplateInstalls       int
	TemplateInstantiations int
	// Delta-iteration totals across all deltaMerge operators: delta
	// elements received, changed pairs emitted, index operations, and the
	// final solution-set size. DeltaSteps is the per-step series
	// (aggregated across instances), showing the frontier shrinking.
	DeltaIn       int64
	DeltaChanged  int64
	DeltaTouched  int64
	DeltaElements int64
	DeltaBytes    int64
	DeltaSteps    []DeltaStep
	// Job reports engine transfer counters.
	Job dataflow.JobStats
}

// Counters lists r's int64 counters, every host and engine counter a share
// of the execution carries, in one fixed order. It is core's one list of
// them: Merge folds a share through it, and netcluster ships a worker's
// share as these counters in this order, so a counter appended here ships
// too (and changes the wire, whose version must then move).
func (r *Result) Counters() [18]*int64 {
	return [...]*int64{
		&r.Job.ElementsSent,
		&r.Job.ElementsChained,
		&r.Job.BatchesSent,
		&r.Job.RemoteBatches,
		&r.Job.BytesSent,
		&r.Job.BytesReceived,
		&r.Job.MailboxDropped,
		&r.Job.CtrlMessages,
		&r.Job.CtrlBytes,
		&r.JoinBuilds,
		&r.MaxBufferedBags,
		&r.CombineIn,
		&r.CombineOut,
		&r.DeltaIn,
		&r.DeltaChanged,
		&r.DeltaTouched,
		&r.DeltaElements,
		&r.DeltaBytes,
	}
}

// Merge folds another share of the same execution into r: the
// coordinator's share into the hosts', or one worker's into the cluster's.
// Counters sum; MaxBufferedBags, a per-instance high-water mark, takes the
// maximum. The four ints summed first are the coordinator's, which no
// worker ships. Duration and DeltaSteps stay r's own — the caller measures the
// one, and the per-step series is only meaningful from a single runtime (a
// cluster of workers ships totals).
func (r *Result) Merge(o *Result) {
	r.Steps += o.Steps
	r.ChainedEdges += o.ChainedEdges
	r.TemplateInstalls += o.TemplateInstalls
	r.TemplateInstantiations += o.TemplateInstantiations
	src := o.Counters()
	for i, n := range r.Counters() {
		if n == &r.MaxBufferedBags {
			*n = max(*n, *src[i])
		} else {
			*n += *src[i]
		}
	}
}

// runtime is the state shared by all operator hosts and the coordinator of
// one execution.
type runtime struct {
	plan  *Plan
	store store.Store
	opts  Options
	obs   *obs.Observer
	// emit delivers one control-plane event from an operator host. The
	// single-process backend points it straight at Coordinator.OnEvent —
	// the path extension and broadcast run inline on the deciding host's
	// goroutine, cutting a goroutine wake-up from every step. Worker
	// processes point it at the events channel their forwarder drains.
	emit func(CoordEvent)

	joinBuilds  atomic.Int64
	maxBuffered atomic.Int64
	combineIn   atomic.Int64
	combineOut  atomic.Int64

	// stateStores holds the per-(deltaMerge, instance) solution-set
	// partitions, created lazily at host Open (see delta.go).
	stateMu     sync.Mutex
	stateStores map[stateKey]*solutionStore
}

// noteBuffered records a high-water mark of buffered input bags.
func (rt *runtime) noteBuffered(n int64) {
	for {
		cur := rt.maxBuffered.Load()
		if n <= cur || rt.maxBuffered.CompareAndSwap(cur, n) {
			return
		}
	}
}

// result snapshots the share of the execution's Result this runtime's
// operator hosts produced: join builds, the buffered-bag high-water mark,
// combiner traffic and the delta-iteration state, plus job's transfer
// counters. It is the one place host counters become Result fields — the
// simulated run, a TCP worker's report and the coordinator's merge all
// start here.
func (rt *runtime) result(job *dataflow.Job) *Result {
	r := &Result{
		JoinBuilds:      rt.joinBuilds.Load(),
		MaxBufferedBags: rt.maxBuffered.Load(),
		CombineIn:       rt.combineIn.Load(),
		CombineOut:      rt.combineOut.Load(),
		Job:             job.Stats(),
	}
	r.DeltaIn, r.DeltaChanged, r.DeltaTouched, r.DeltaElements, r.DeltaBytes, r.DeltaSteps = rt.deltaSummary()
	return r
}

// PlanKey is all Compile reads of its options: the parallelism, resolved
// against the machine count, and the plan rewrites. The other options shape
// the execution, not the plan.
type PlanKey struct {
	Parallelism int
	Combiners   bool
	Chaining    bool
}

// PlanKey returns the key Compile plans under for a cluster of machines.
func (o Options) PlanKey(machines int) PlanKey {
	par := o.Parallelism
	if par == 0 {
		par = machines
	}
	return PlanKey{Parallelism: par, Combiners: o.Combiners, Chaining: o.Chaining}
}

// Compile plans the dataflow job for an SSA graph under opts: BuildPlan at
// opts.Parallelism (0 selects one instance per machine), then the plan
// rewrites opts enables, in their required order; it reads opts only through
// PlanKey. Every backend compiles through here — the simulated run, the TCP
// coordinator and each TCP worker — which is what keeps the plans they derive
// from one shipped source identical, operator IDs and placement included.
func Compile(g *ir.Graph, machines int, opts Options) (*Plan, error) {
	k := opts.PlanKey(machines)
	plan, err := BuildPlan(g, k.Parallelism)
	if err != nil {
		return nil, err
	}
	if k.Combiners {
		plan.InsertCombiners()
	}
	if k.Chaining {
		plan.BuildChains()
	}
	return plan, nil
}

// PlanMemo keeps the last plan compiled from a program source, so a caller
// running one program job after job plans it once. A plan is read-only once
// Compile returns it, so concurrent jobs may share it.
type PlanMemo struct {
	mu     sync.Mutex
	source string
	key    PlanKey
	plan   *Plan
}

// Compile returns the kept plan when source and opts.PlanKey(machines) match
// the kept one's; otherwise it plans the graph frontEnd derives from source
// and keeps that plan. Racing misses each plan; errors are not kept.
func (m *PlanMemo) Compile(source string, machines int, opts Options, frontEnd func(string) (*ir.Graph, error)) (*Plan, error) {
	key := opts.PlanKey(machines)
	m.mu.Lock()
	plan, hit := m.plan, m.plan != nil && m.key == key && m.source == source
	m.mu.Unlock()
	if hit {
		return plan, nil
	}
	g, err := frontEnd(source)
	if err == nil {
		plan, err = Compile(g, machines, opts)
	}
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.source, m.key, m.plan = source, key, plan
	m.mu.Unlock()
	return plan, nil
}

// Execute compiles the SSA graph into a single cyclic dataflow job, runs it
// on the cluster against the dataset store, and coordinates the distributed
// control flow.
func Execute(g *ir.Graph, st store.Store, cl *cluster.Cluster, opts Options) (*Result, error) {
	plan, err := Compile(g, cl.Machines(), opts)
	if err != nil {
		return nil, err
	}
	return ExecutePlan(plan, st, cl, opts)
}

// ExecutePlan runs an already-built plan (Execute builds one from an SSA
// graph). The plan's parallelism must match opts; plan rewrites
// (InsertCombiners, BuildChains) are the caller's responsibility — Compile
// applies them per opts.
func ExecutePlan(plan *Plan, st store.Store, cl *cluster.Cluster, opts Options) (*Result, error) {
	rt := &runtime{
		plan:  plan,
		store: st,
		opts:  opts,
		obs:   opts.Obs,
	}
	if opts.Obs != nil {
		cl.SetObserver(opts.Obs)
		// Stores that can account their own I/O (internal/dfs) join in.
		if so, ok := st.(interface{ SetObserver(*obs.Observer) }); ok {
			so.SetObserver(opts.Obs)
		}
	}

	job, err := dataflow.NewJob(buildDataflowGraph(rt, plan), cl, opts.BatchSize)
	if err != nil {
		return nil, err
	}
	job.Observe(opts.Obs)
	if opts.HTTP != nil {
		job.EnableIntrospection()
	}
	opts.Obs.Lin().Begin()
	start := time.Now()
	if err := job.Start(); err != nil {
		return nil, err
	}
	var jv *jobView
	if opts.HTTP != nil {
		jv = &jobView{rt: rt, job: job, started: start}
		opts.HTTP.Register(jv)
	}

	co := NewCoordinator(plan, opts, cl.Machines(), &simControlPlane{cl: cl, job: job})
	rt.emit = co.OnEvent
	co.Seed()

	err = job.Wait()
	if jv != nil {
		jv.finish(err)
	}
	if err != nil {
		return nil, fmt.Errorf("core: execution failed: %w", err)
	}
	res := rt.result(job)
	res.Merge(co.Result())
	res.Duration = time.Since(start)
	return res, nil
}

// buildDataflowGraph translates the plan into a dataflow graph: one vertex
// per SSA instruction, one edge per variable reference (paper Sec. 4.3). A
// batching edge into an operator that reads in place (readsInPlace) is in
// place: its batches lend their pairs' tuples from an arena, which the host
// retains when it buffers one (host.OnBatch).
func buildDataflowGraph(rt *runtime, plan *Plan) *dataflow.Graph {
	var g dataflow.Graph
	dfOps := make([]*dataflow.Op, len(plan.Ops))
	for _, pop := range plan.Ops {
		pop := pop
		dfOps[pop.ID] = g.AddOp(pop.Instr.Var, pop.Par, func(inst int) dataflow.Vertex {
			return newHost(rt, pop, inst)
		})
	}
	for _, pop := range plan.Ops {
		for slot, in := range pop.Inputs {
			if in.Chained {
				g.ConnectChained(dfOps[in.Producer.ID], dfOps[pop.ID], slot)
			} else {
				g.Connect(dfOps[in.Producer.ID], dfOps[pop.ID], slot, in.Part).InPlace = readsInPlace(pop)
			}
		}
	}
	return &g
}

// simControlPlane runs the control-flow manager against the simulated
// cluster: a broadcast pays the modeled control-message latency once per
// machine — one control message each, as the per-machine control-flow
// managers relay the decision (paper: TCP connections independent of the
// dataflow edges) — and lands directly in the job's mailboxes, where
// Job.Broadcast fans it out to the instances.
// Broadcast runs under the coordinator's lock, which is what lets it carve
// every frame from one FrameSlab.
type simControlPlane struct {
	cl     *cluster.Cluster
	job    *dataflow.Job
	frames FrameSlab
}

func (s *simControlPlane) Broadcast(seg PathSegment) {
	n := seg.CtrlSize()
	for m := 0; m < s.cl.Machines(); m++ {
		s.cl.CtrlSleepBytes(n)
	}
	s.job.Broadcast(s.frames.New(seg))
}

func (s *simControlPlane) Barrier() { s.cl.Barrier() }

func (s *simControlPlane) Stop(err error) { s.job.Stop(err) }

// WorkerJob is one machine's share of a plan, hosted by a worker process of
// the TCP cluster backend: the partitioned dataflow job plus the stream of
// control-plane events (decisions, completions) the local operator hosts
// produce. The worker forwards Events to the coordinator, closes them once
// Job.Wait returns, and injects the coordinator's PathSegments via
// Job.Broadcast.
type WorkerJob struct {
	Job    *dataflow.Job
	Events *dataflow.Queue[CoordEvent]

	rt *runtime
}

// NewWorkerJob builds machine self's partition of the plan as a dataflow
// job. Only instances placed on self (instance index mod machines) are
// hosted; cross-machine edges route through remote. The plan must be built
// identically on every worker (same source, same options) so operator IDs
// and placement agree — Compile is deterministic, which is what makes
// shipping program source instead of serialized plans sound.
func NewWorkerJob(plan *Plan, st store.Store, machines, self int, opts Options, remote dataflow.Remote) (*WorkerJob, error) {
	rt := &runtime{
		plan:  plan,
		store: st,
		opts:  opts,
		obs:   opts.Obs,
	}
	// The forwarder draining this queue writes every event to a socket; a
	// host never waits for it, even through a burst of completions (one per
	// hosted instance per position).
	events := dataflow.NewQueue[CoordEvent]()
	rt.emit = func(ev CoordEvent) { events.Put(ev) }
	job, err := dataflow.NewPartitionedJob(buildDataflowGraph(rt, plan), machines, self, opts.BatchSize, remote)
	if err != nil {
		return nil, err
	}
	job.Observe(opts.Obs)
	return &WorkerJob{Job: job, Events: events, rt: rt}, nil
}

// Result reports this worker's share of the execution's Result; call after
// the job has finished. Per-step delta series stay local to the worker —
// the coordinator merges only the totals it receives over the wire.
func (w *WorkerJob) Result() *Result { return w.rt.result(w.Job) }
