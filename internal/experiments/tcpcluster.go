package experiments

import (
	"maps"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/netcluster"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// tcpStepSlope is the step loop's per-step cost on the real TCP backend,
// workers in-process workers over loopback sockets: measureTCP at two loop
// lengths and the slope between them, rep by rep, so that what a TCP job
// pays once (shipping the program, compiling it on every worker, merging
// results) cancels instead of hiding in the per-step figure. The lengths
// stay at quick scale: 900 steps of a few tens of µs stand clear of the
// jitter in a job's fixed cost, 75 do not.
func tcpStepSlope(o Options, workers int, opts core.Options) (Cell, error) {
	const short, long = 100, 1000
	var c [2]Cell
	for i, n := range []int{short, long} {
		var err error
		if c[i], err = measureTCP(o, workload.StepLoopScript(n), nil, workers, opts); err != nil {
			return Cell{}, err
		}
	}
	return slope(c[0], c[1], long-short), nil
}

// slope returns the per-step cost between two cells of one system whose
// runs differ only by dn loop steps: rep i is (long.Reps[i] −
// short.Reps[i]) / dn. The counters are the longer run's, plus
// ctrl_messages_per_step, the control messages each step adds, when the
// two runs' counts differ by a whole number per step.
func slope(short, long Cell, dn int) Cell {
	reps := make([]float64, len(long.Reps))
	for i := range reps {
		reps[i] = (long.Reps[i] - short.Reps[i]) / float64(dn)
	}
	counters := long.Counters
	if n, ok := long.Counters["ctrl_messages"]; ok {
		if d := n - short.Counters["ctrl_messages"]; d%int64(dn) == 0 {
			counters = maps.Clone(long.Counters)
			counters["ctrl_messages_per_step"] = d / int64(dn)
		}
	}
	return newCell(reps, counters)
}

// measureTCP runs one cell on the TCP backend: a fresh in-process loopback
// cluster of the given size, timing only Run — session setup (registration,
// meshing) stays outside the timed region, matching measure, which creates
// the simulated cluster outside its timed region.
func measureTCP(o Options, source string, seed func(store.Store) error, workers int, opts core.Options) (Cell, error) {
	c, cleanup, err := netcluster.StartLocal(workers, netcluster.CoordConfig{})
	if err != nil {
		return Cell{}, err
	}
	defer cleanup()
	// opts.HTTP stays set: the coordinator registers a federated job view
	// (per-worker queue depths and link counters shipped over the wire),
	// so mitos-bench -http shows the TCP cells live too.
	var reps []float64
	var counters map[string]int64
	for i := 0; i < o.reps(); i++ {
		res, err := runTCPOnce(c, source, seed, opts)
		if err != nil {
			return Cell{}, err
		}
		reps = append(reps, res.Duration.Seconds())
		if i > 0 {
			continue
		}
		// The socket, credit and control counters of a Result are the
		// session's totals, so only the first rep's are one job's alone.
		counters = map[string]int64{
			"steps":                   int64(res.Steps),
			"remote_batches":          res.Job.RemoteBatches,
			"payload_bytes":           res.Job.BytesSent,
			"socket_bytes":            res.SocketBytes,
			"credit_stalls":           res.CreditStalls,
			"credit_stall_usec":       res.CreditStallTime.Microseconds(),
			"attempts":                int64(res.Attempts),
			"ctrl_messages":           res.CtrlMessages,
			"ctrl_bytes":              res.CtrlBytes,
			"template_installs":       int64(res.TemplateInstalls),
			"template_instantiations": int64(res.TemplateInstantiations),
		}
	}
	return newCell(reps, counters), nil
}

func runTCPOnce(c *netcluster.Coordinator, source string, seed func(store.Store) error, opts core.Options) (*netcluster.Result, error) {
	st := store.NewMemStore()
	if seed != nil {
		if err := seed(st); err != nil {
			return nil, err
		}
	}
	return c.Run(source, st, opts)
}
