// Package mitos is a Go implementation of Mitos (Gévay et al., ICDE 2021:
// "Efficient Control Flow in Dataflow Systems: When Ease-of-Use Meets High
// Performance"): a dataflow system in which control flow is written with
// ordinary imperative constructs (while, do..while, for, if) and still
// executes as a single cyclic distributed dataflow job.
//
// A program is written either in Mitos script —
//
//	yesterdayCounts = empty()
//	day = 1
//	do {
//	  visits = readFile("pageVisitLog" + day)
//	  counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b)
//	  if (day != 1) {
//	    diffs = counts.join(yesterdayCounts).map(t => abs(t.1 - t.2))
//	    diffs.sum().writeFile("diff" + day)
//	  }
//	  yesterdayCounts = counts
//	  day = day + 1
//	} while (day <= 365)
//
// — or with the programmatic Builder API. Compile turns it into an
// SSA-based intermediate representation and plans a single dataflow job;
// Run executes that job on a simulated multi-machine cluster with
// distributed control-flow coordination, loop pipelining, and
// loop-invariant hoisting.
package mitos

import (
	"fmt"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dfs"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/netcluster"
	"github.com/mitos-project/mitos/internal/obs/lineage"
	"github.com/mitos-project/mitos/internal/store"
)

// Store is the dataset storage interface programs read from and write to.
type Store = store.Store

// NewMemStore returns a simple in-memory store.
func NewMemStore() *store.MemStore { return store.NewMemStore() }

// DFSConfig tunes the block-based partitioned store.
type DFSConfig = dfs.Config

// NewDFS returns the HDFS-like block-based partitioned store. It is the
// recommended store for benchmarks: reads are partitioned across worker
// instances and dataset opens pay a metadata latency.
func NewDFS(cfg DFSConfig) *dfs.Store { return dfs.New(cfg) }

// ClusterConfig tunes the simulated cluster (machine count, scheduling,
// barrier, control-message and network delays).
type ClusterConfig = cluster.Config

// DeltaStep is one loop step of a delta iteration as seen by the solution
// stores (merged across instances, ordered by bag position).
type DeltaStep = core.DeltaStep

// Config configures an execution.
type Config struct {
	// Machines is the simulated cluster size (default 4). Ignored when
	// Cluster is set.
	Machines int
	// Cluster overrides the full cluster configuration. Leave nil for
	// zero-delay coordination (functional testing); use
	// DefaultClusterConfig for calibrated benchmark delays.
	Cluster *ClusterConfig
	// Parallelism is the data-parallel operator instance count
	// (default: one per machine).
	Parallelism int
	// DisablePipelining turns off loop pipelining (steps stop overlapping).
	DisablePipelining bool
	// DisableHoisting turns off loop-invariant hoisting (join build sides
	// are rebuilt every iteration step).
	DisableHoisting bool
	// DisableCombiners turns off the map-side combiner plan rewrite
	// (shuffles and gathers carry raw elements instead of per-instance
	// partial aggregates).
	DisableCombiners bool
	// DisableChaining turns off operator chaining (forward edges at equal
	// parallelism fused into single physical vertices); every element then
	// crosses every edge through a mailbox batch again.
	DisableChaining bool
	// DisableTemplates turns off execution templates (the control plane then
	// broadcasts one path update per basic-block visit and receives one
	// completion event per operator instance, instead of cached per-block
	// segment schedules with worker-side fan-out and aggregation). Only
	// meaningful with pipelining on.
	DisableTemplates bool
	// DisableDelta turns off incremental maintenance of deltaMerge solution
	// sets: every loop step then re-derives the full index from the
	// retained entries before merging the step's delta, instead of touching
	// only the delta's keys. Outputs are identical; per-step work becomes
	// O(|solution set|) instead of O(|delta|). Programs without deltaMerge
	// are unaffected.
	DisableDelta bool
	// BatchSize overrides the engine transfer batch size.
	BatchSize int
	// Observer, when non-nil, collects engine-wide metrics (and a
	// timeline trace if created with NewTracingObserver, or bag lineage if
	// created with NewLineageObserver) during Run. The metrics snapshot is
	// returned in Result.Report.
	Observer *Observer
	// HTTP registers the execution with a caller-owned introspection
	// server (ServeIntrospection), which outlives the run and can
	// accumulate several executions under /jobs. When Observer is nil the
	// server's observer is used.
	HTTP *IntrospectionServer
}

// DefaultClusterConfig returns the calibrated cluster delays used by the
// benchmark harness.
func DefaultClusterConfig(machines int) ClusterConfig {
	return cluster.DefaultConfig(machines)
}

// Result reports what an execution did. Its counters are the engine's own,
// declared once in the embedded engine result and promoted: Steps,
// Duration, the host counters (JoinBuilds, MaxBufferedBags, CombineIn and
// CombineOut, ChainedEdges, the template counters, the Delta* totals and,
// for Run only, the per-step DeltaSteps series), and under Job the dataflow
// transfer counters (Job.ElementsSent, Job.BytesSent, ...), whose
// Job.CtrlMessages and Job.CtrlBytes count the control envelopes through the
// dataflow on either backend.
//
// The rest is set only by RunTCP: Attempts and AttemptErrors (the executions
// the job took, and why each failed one failed), SocketBytes and the
// CreditStall counters (the data-plane sockets), CtrlMessages and CtrlBytes
// (the control frames on the coordinator links; 0 for Run), PeerLinks, and
// WorkerStats (each worker's final metrics snapshot, indexed by machine ID;
// summed with Report they reproduce the federated /metrics view). The
// socket, credit and coordinator-link counters live as long as the worker
// session: over sequential RunTCP calls on one TCPCoordinator they
// accumulate, and one job's share is the difference between consecutive
// results (a retry starts a fresh session and fresh counters).
type Result struct {
	netcluster.Result
	// Report is the metrics snapshot taken at the end of the run; nil
	// unless Config.Observer was set.
	Report *RunReport
	// CriticalPath is the lineage-derived critical-path analysis of the
	// run: wall-clock time attributed to compute, shuffle, barrier, and
	// pipeline stall, per-step spans and pipelining overlap. Nil unless
	// the run's observer tracked lineage (NewLineageObserver).
	CriticalPath *CriticalPath
}

// Program is a compiled Mitos program; runs under unchanged plan options share one plan.
type Program struct {
	ast   *lang.Program
	ssa   *ir.Graph
	src   string // canonical source, formatted once
	plans core.PlanMemo
}

// Compile parses, checks, lowers, and SSA-converts a Mitos script.
func Compile(src string) (*Program, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileAST(ast)
}

// CompileAST compiles a program built with the Builder API.
func CompileAST(ast *lang.Program) (*Program, error) {
	if _, err := lang.Check(ast); err != nil {
		return nil, err
	}
	g, err := ir.CompileToSSA(ast)
	if err != nil {
		return nil, err
	}
	return &Program{ast: ast, ssa: g, src: lang.Format(ast)}, nil
}

// Source returns the program's canonical script source.
func (p *Program) Source() string { return p.src }

// SSA returns the program's SSA form as text (one basic block per
// paragraph, as in the paper's Fig. 3a).
func (p *Program) SSA() string { return p.ssa.String() }

// Dot returns the planned dataflow job as a Graphviz digraph in the style
// of the paper's Fig. 3b. parallelism follows the same default as Run.
func (p *Program) Dot(parallelism int) (string, error) {
	if parallelism <= 0 {
		parallelism = 4
	}
	plan, err := p.plan(parallelism, core.DefaultOptions())
	if err != nil {
		return "", err
	}
	return plan.Dot(), nil
}

// plan returns the program's plan for a cluster of machines under opts.
func (p *Program) plan(machines int, opts core.Options) (*core.Plan, error) {
	return p.plans.Compile(p.src, machines, opts, func(string) (*ir.Graph, error) { return p.ssa, nil })
}

// options resolves the execution options cfg selects.
func (cfg Config) options() core.Options {
	o, srv := cfg.Observer, cfg.HTTP
	if srv != nil && o == nil {
		o = srv.Observer()
	}
	return core.Options{
		Parallelism: cfg.Parallelism,
		Pipelining:  !cfg.DisablePipelining,
		Hoisting:    !cfg.DisableHoisting,
		Combiners:   !cfg.DisableCombiners,
		Chaining:    !cfg.DisableChaining,
		Templates:   !cfg.DisableTemplates,
		Delta:       !cfg.DisableDelta,
		BatchSize:   cfg.BatchSize,
		Obs:         o,
		HTTP:        srv,
	}
}

// result wraps the engine's result into the public one and attaches what
// the run's observer o collected.
func (cfg Config) result(res *netcluster.Result, o *Observer) *Result {
	out := &Result{Result: *res}
	if cfg.Observer != nil {
		out.Report = cfg.Observer.Snapshot()
	}
	if lin := o.Lin(); lin != nil {
		out.CriticalPath = lineage.Analyze(lin.Snapshot())
	}
	return out
}

// Run executes the program as a single distributed dataflow job against st.
func (p *Program) Run(st Store, cfg Config) (*Result, error) {
	clCfg := cluster.FastConfig(max(cfg.Machines, 1))
	if cfg.Machines == 0 && cfg.Cluster == nil {
		clCfg = cluster.FastConfig(4)
	}
	if cfg.Cluster != nil {
		clCfg = *cfg.Cluster
	}
	cl, err := cluster.New(clCfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	opts := cfg.options()
	plan, err := p.plan(cl.Machines(), opts)
	if err != nil {
		return nil, err
	}
	res, err := core.ExecutePlan(plan, st, cl, opts)
	if err != nil {
		return nil, err
	}
	return cfg.result(&netcluster.Result{Result: *res}, opts.Obs), nil
}

// RunSequential executes the program with the sequential reference
// interpreter — no cluster, no parallelism. Useful for debugging programs
// and as ground truth in tests.
func (p *Program) RunSequential(st Store) error {
	return ir.RunAST(p.ast, st)
}

// The real TCP cluster backend (internal/netcluster): multi-process
// execution over sockets instead of the simulated cluster. A coordinator
// accepts worker registrations (ListenTCP), each worker hosts one
// machine's partition of the dataflow job (ServeTCPWorker, or the
// cmd/mitos-worker binary), and RunTCP drives jobs over the session.

// TCPCoordConfig configures a TCP cluster coordinator.
type TCPCoordConfig = netcluster.CoordConfig

// TCPWorkerConfig configures a TCP cluster worker.
type TCPWorkerConfig = netcluster.WorkerConfig

// TCPCoordinator is an established TCP cluster session.
type TCPCoordinator = netcluster.Coordinator

// NamedStore is a store that can enumerate its datasets; the TCP backend
// needs it to ship job inputs. MemStore and the DFS store both satisfy it.
type NamedStore = netcluster.NamedStore

// ListenTCP starts a TCP cluster coordinator and blocks until
// cfg.Workers workers have registered and meshed.
func ListenTCP(cfg TCPCoordConfig) (*TCPCoordinator, error) { return netcluster.Listen(cfg) }

// ServeTCPWorker runs one worker session against a coordinator; it
// returns when the coordinator closes the session (nil), stop closes
// (nil), or the session fails.
func ServeTCPWorker(cfg TCPWorkerConfig, stop <-chan struct{}) error {
	return netcluster.Serve(cfg, stop)
}

// TCPRedialConfig shapes ServeTCPWorkerLoop's reconnect backoff.
type TCPRedialConfig = netcluster.RedialConfig

// ServeTCPWorkerLoop serves sessions until stop closes, reconnecting with
// capped exponential backoff + jitter after every session end — clean
// close, mid-job failure (the worker comes back to be re-admitted for the
// coordinator's retry), coordinator crash, or dial error. It keeps a
// stable worker identity across redials so the worker regains its machine
// ID. This is what `mitos-worker -redial` runs.
func ServeTCPWorkerLoop(cfg TCPWorkerConfig, rd TCPRedialConfig, stop <-chan struct{}) error {
	return netcluster.ServeLoop(cfg, rd, stop)
}

// StartLocalTCP starts a coordinator plus n in-process workers over
// loopback TCP — the full wire path without separate processes.
func StartLocalTCP(n int, cfg TCPCoordConfig) (*TCPCoordinator, func(), error) {
	return netcluster.StartLocal(n, cfg)
}

// RunTCP executes the program on an established TCP cluster session:
// each worker is shipped the partitions of st's datasets that its readFile
// instances read, and outputs are merged back into st. Config fields that concern the simulated cluster (Machines, Cluster)
// are ignored; parallelism defaults to one operator instance per worker.
// Config.HTTP serves the cluster-wide federated view: /metrics merges
// every worker's shipped registry (machine-labeled series), /jobs/{id}
// shows per-worker queue depths and link counters, and — when the
// observer traces or tracks lineage — /trace and /criticalpath span all
// worker processes, re-based onto the coordinator's clock.
func (p *Program) RunTCP(c *TCPCoordinator, st NamedStore, cfg Config) (*Result, error) {
	opts := cfg.options()
	res, err := c.Run(p.Source(), st, opts)
	if err != nil {
		return nil, err
	}
	return cfg.result(res, opts.Obs), nil
}

// Validate re-checks the compiled program's structural invariants.
func (p *Program) Validate() error {
	if p.ssa == nil {
		return fmt.Errorf("mitos: program not compiled")
	}
	return p.ssa.Validate()
}
