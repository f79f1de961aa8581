// Package cluster simulates a multi-machine cluster inside one process.
//
// The paper's evaluation shapes hinge on coordination costs that differ
// between systems: Spark pays a centralized job launch for every iteration
// step (cost growing linearly with the machine count), Flink's native
// iterations pay a per-superstep barrier, and Mitos pays only asynchronous
// control-flow broadcasts that overlap with computation. This package makes
// those costs real, as slept delays measured by the benchmarks, not
// computed. Every machine is a lock: a job launch, stage wave or barrier
// sleeps its per-machine cost on the caller's goroutine while holding that
// machine's lock, so concurrent requests queue machine by machine. A
// control message is charged inline, on its sender's goroutine
// (CtrlSleepBytes), so it overlaps with data processing. Data crosses
// machines through the dataflow loopback (internal/dataflow/transport.go),
// whose per-link sender goroutines charge each frame through NetSleepBytes;
// the baselines charge their shuffle batches the same way, inline.
//
// Delays default to roughly 1/10 of the JVM-cluster magnitudes reported in
// the paper so that benchmark runs stay fast; EXPERIMENTS.md documents the
// scaling.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/simtime"
)

// Config describes the simulated cluster.
type Config struct {
	// Machines is the number of simulated worker machines (the paper
	// scales from 1 to 25).
	Machines int
	// SchedDelay is the cost of dispatching one task descriptor from the
	// driver to one machine. Job launches dispatch serially, so a launch
	// costs about Machines * SchedDelay — the linear growth of Fig. 7.
	SchedDelay time.Duration
	// JobBase is the fixed driver-side cost of planning one job
	// (DAG construction, serialization).
	JobBase time.Duration
	// BarrierDelay is the per-machine processing cost of one superstep
	// barrier message. Barrier messages are processed in parallel, so a
	// barrier costs about one round trip plus BarrierDelay.
	BarrierDelay time.Duration
	// CtrlDelay is the cost of one control-plane message (e.g. a Mitos
	// control-flow-manager broadcast to one machine). Control messages are
	// asynchronous and overlap with data processing.
	CtrlDelay time.Duration
	// NetDelay is the latency added to one cross-machine data batch.
	NetDelay time.Duration
	// Bandwidth is the cross-machine link bandwidth in bytes per second.
	// A remote batch of n encoded bytes costs NetDelay + n/Bandwidth;
	// zero means infinite bandwidth (latency only).
	Bandwidth int64
}

// DefaultConfig returns the calibrated defaults used by the benchmark
// harness (~1/10 of the paper's JVM-cluster magnitudes).
func DefaultConfig(machines int) Config {
	return Config{
		Machines:     machines,
		SchedDelay:   3 * time.Millisecond,
		JobBase:      8 * time.Millisecond,
		BarrierDelay: 200 * time.Microsecond,
		CtrlDelay:    20 * time.Microsecond,
		NetDelay:     50 * time.Microsecond,
		Bandwidth:    1 << 30, // Gigabit Ethernet scaled like the delays
	}
}

// FastConfig returns a configuration with all delays zeroed, for unit
// tests where only functional behaviour matters.
func FastConfig(machines int) Config {
	return Config{Machines: machines}
}

// machine is one simulated machine: the lock its scheduling requests queue
// on, and how many are queued or being served.
type machine struct {
	mu    sync.Mutex
	depth atomic.Int64
	gauge *obs.Gauge // schedq_depth; nil (no-op) until SetObserver
}

// Cluster is a simulated cluster. Create with New; after Close it charges
// no scheduler delay.
type Cluster struct {
	cfg      Config
	machines []machine
	closed   atomic.Bool

	jobsLaunched    atomic.Int64
	tasksDispatched atomic.Int64
	barriers        atomic.Int64
	ctrlMessages    atomic.Int64
	ctrlBytes       atomic.Int64
	netBatches      atomic.Int64
	netBytes        atomic.Int64

	// Observability handles; nil (no-op) until SetObserver.
	trc          *obs.Tracer
	obsLaunches  *obs.Counter
	obsTasks     *obs.Counter
	obsBarriers  *obs.Counter
	obsCtrl      *obs.Counter
	obsCtrlBytes *obs.Counter
	launchHist   *obs.Histogram
	barrierHist  *obs.Histogram
}

// Stats counts coordination events, exposed for tests and the benchmark
// harness.
type Stats struct {
	JobsLaunched    int64
	TasksDispatched int64
	Barriers        int64
	CtrlMessages    int64
	// CtrlBytes is the summed encoded size of the control messages, as
	// charged through CtrlSleepBytes.
	CtrlBytes int64
	// NetBatches and NetBytes count cross-machine data batches and their
	// encoded payload bytes, as charged through NetSleepBytes.
	NetBatches int64
	NetBytes   int64
}

// New returns a cluster of cfg.Machines idle machines. It starts no
// goroutine.
func New(cfg Config) (*Cluster, error) {
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("cluster: need at least one machine, got %d", cfg.Machines)
	}
	return &Cluster{cfg: cfg, machines: make([]machine, cfg.Machines)}, nil
}

// Close retires the cluster: coordination afterwards charges no scheduler
// delay. Idempotent.
func (c *Cluster) Close() { c.closed.Store(true) }

// SetObserver attaches an observer to the cluster's coordination paths
// (job launches, barriers, control messages). Call before running jobs; a
// nil observer keeps instrumentation disabled.
func (c *Cluster) SetObserver(o *obs.Observer) {
	reg := o.Reg()
	c.trc = o.Trc()
	c.obsLaunches = reg.Counter(obs.MachineDriver, "cluster", "jobs_launched")
	c.obsTasks = reg.Counter(obs.MachineDriver, "cluster", "tasks_dispatched")
	c.obsBarriers = reg.Counter(obs.MachineDriver, "cluster", "barriers")
	c.obsCtrl = reg.Counter(obs.MachineDriver, "cluster", "ctrl_messages")
	c.obsCtrlBytes = reg.Counter(obs.MachineDriver, "cluster", "ctrl_bytes")
	c.launchHist = reg.Histogram(obs.MachineDriver, "cluster", "job_launch")
	c.barrierHist = reg.Histogram(obs.MachineDriver, "cluster", "barrier")
	for m := range c.machines {
		c.machines[m].gauge = reg.Gauge(m, "cluster", "schedq_depth")
	}
	c.trc.NameProcess(c.DriverPID(), "driver")
}

// DriverPID is the trace process ID of the driver/coordinator timeline,
// one past the last machine.
func (c *Cluster) DriverPID() int { return c.cfg.Machines }

// Machines returns the number of simulated machines.
func (c *Cluster) Machines() int { return c.cfg.Machines }

// Stats returns a snapshot of the coordination counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		JobsLaunched:    c.jobsLaunched.Load(),
		TasksDispatched: c.tasksDispatched.Load(),
		Barriers:        c.barriers.Load(),
		CtrlMessages:    c.ctrlMessages.Load(),
		CtrlBytes:       c.ctrlBytes.Load(),
		NetBatches:      c.netBatches.Load(),
		NetBytes:        c.netBytes.Load(),
	}
}

// Place maps a physical operator instance index to a machine (round-robin).
func (c *Cluster) Place(instance int) int {
	return instance % c.cfg.Machines
}

// dispatch charges machine m one request of cost d: it queues on m's lock
// and sleeps d holding it, on the caller's goroutine. After Close it is a
// no-op.
func (c *Cluster) dispatch(m int, d time.Duration) {
	if c.closed.Load() {
		return
	}
	mc := &c.machines[m]
	mc.gauge.Set(mc.depth.Add(1))
	mc.mu.Lock()
	simtime.Sleep(d)
	mc.gauge.Set(mc.depth.Add(-1))
	mc.mu.Unlock()
}

// LaunchJob models driver-side job submission: the driver plans the job
// (JobBase), then dispatches one task set per machine serially — the
// centralized scheduling bottleneck that makes Spark-style per-step job
// launches degrade as machines are added.
func (c *Cluster) LaunchJob() {
	start := c.trc.Clock()
	t0 := nowIf(c.launchHist)
	simtime.Sleep(c.cfg.JobBase)
	for m := 0; m < c.cfg.Machines; m++ {
		c.dispatch(m, c.cfg.SchedDelay)
	}
	c.jobsLaunched.Add(1)
	c.tasksDispatched.Add(int64(c.cfg.Machines))
	c.obsLaunches.Inc()
	c.obsTasks.Add(int64(c.cfg.Machines))
	if c.launchHist != nil {
		c.launchHist.Observe(time.Since(t0))
	}
	c.trc.Span("sched", "job_launch", c.DriverPID(), 0, start, nil)
}

// ScheduleStage models dispatching one additional stage's task wave
// (without the driver-side job planning cost): Spark-style execution pays
// it once per shuffle boundary within a job.
func (c *Cluster) ScheduleStage() {
	start := c.trc.Clock()
	for m := 0; m < c.cfg.Machines; m++ {
		c.dispatch(m, c.cfg.SchedDelay)
	}
	c.tasksDispatched.Add(int64(c.cfg.Machines))
	c.obsTasks.Add(int64(c.cfg.Machines))
	c.trc.Span("sched", "stage", c.DriverPID(), 0, start, nil)
}

// Barrier models a superstep barrier coordinated by a central job
// manager: one round trip per machine, processed serially at the
// coordinator — so barrier cost grows with the machine count, as the
// paper's per-step overheads do.
func (c *Cluster) Barrier() {
	start := c.trc.Clock()
	t0 := nowIf(c.barrierHist)
	for m := 0; m < c.cfg.Machines; m++ {
		c.dispatch(m, c.cfg.BarrierDelay)
	}
	c.barriers.Add(1)
	c.obsBarriers.Inc()
	if c.barrierHist != nil {
		c.barrierHist.Observe(time.Since(t0))
	}
	c.trc.Span("sched", "barrier", c.DriverPID(), 0, start, nil)
}

// CtrlSleep models the cost of delivering one asynchronous control-plane
// message of unknown (or irrelevant) size. Callers invoke it from their
// own goroutines, so it overlaps with data processing.
func (c *Cluster) CtrlSleep() {
	c.CtrlSleepBytes(0)
}

// CtrlSleepBytes models the cost of delivering one asynchronous
// control-plane message of n encoded bytes. The latency model is the flat
// CtrlDelay (control frames are far below the bandwidth term's noise
// floor); n feeds the ctrl_bytes counter so control-plane traffic is
// measurable in bytes, not just messages.
func (c *Cluster) CtrlSleepBytes(n int) {
	simtime.Sleep(c.cfg.CtrlDelay)
	c.ctrlMessages.Add(1)
	c.ctrlBytes.Add(int64(n))
	c.obsCtrl.Inc()
	c.obsCtrlBytes.Add(int64(n))
}

// nowIf reads the clock only when a histogram is attached, keeping the
// disabled path free of time.Now calls.
func nowIf(h *obs.Histogram) time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// NetSleepBytes models the cost of one cross-machine data batch of n
// encoded bytes: NetDelay plus the bandwidth term n/Bandwidth. The
// dataflow transport's sender goroutines call it off the emit hot path;
// the baseline systems charge it inline, as their engines do.
func (c *Cluster) NetSleepBytes(n int) {
	d := c.cfg.NetDelay
	if c.cfg.Bandwidth > 0 && n > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / c.cfg.Bandwidth)
	}
	c.netBatches.Add(1)
	c.netBytes.Add(int64(n))
	simtime.Sleep(d)
}
