package experiments

import (
	"fmt"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/netcluster"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// TCPCluster measures per-step control-flow overhead on the simulated
// cluster against the real TCP backend: the same step-loop program, one
// column paying modeled coordination delays (CtrlDelay, Barrier, NetDelay),
// the other paying real sockets — path-update broadcasts, event round
// trips, heartbeats, and credit-based flow control over loopback TCP. This
// is the honest version of the paper's per-step overhead claim (Fig. 7):
// on the tcp column the wall-clock is real, not modeled. The workers run
// in-process over loopback, so the delta isolates protocol cost;
// cmd/mitos-worker runs the same backend across real process boundaries.
//
// Every cell is a slope: the loop runs at two step counts and the cell is
// (D(long) − D(short)) / (long − short), rep by rep, so what a job pays
// once (shipping the program and inputs, compiling it on every worker,
// merging results) cancels instead of hiding inside the per-step figure.
func TCPCluster(o Options) (*Table, error) {
	short, long := 100, 1000
	workers := []int{1, 2, 4}
	if o.Quick {
		short, long = 25, 100
		workers = []int{1, 3}
	}
	t := &Table{
		Key:     "tcpcluster",
		Title:   "TCP cluster: per-step overhead (seconds per step, slope between two loop lengths), simulated delays vs real loopback sockets",
		XAxis:   "workers",
		Columns: []string{"sim", "tcp"},
	}
	for _, w := range workers {
		var sim, tcp [2]Cell
		for i, steps := range []int{short, long} {
			var err error
			if sim[i], _, err = measure(o, w, func(cl *cluster.Cluster, st store.Store) (*core.Result, error) {
				return workload.StepMitos(cl, st, steps, o.mitosOpts())
			}); err != nil {
				return nil, err
			}
			if tcp[i], err = measureTCP(o, workload.StepLoopScript(steps), nil, w, o.mitosOpts()); err != nil {
				return nil, err
			}
		}
		t.XLabels = append(t.XLabels, fmt.Sprint(w))
		t.Cells = append(t.Cells, []Cell{slope(sim[0], sim[1], long-short), slope(tcp[0], tcp[1], long-short)})
	}
	return t, nil
}

// slope returns the per-step cost between two cells of one system whose
// runs differ only by dn loop steps: rep i is (long.Reps[i] −
// short.Reps[i]) / dn. The counters are the longer run's.
func slope(short, long Cell, dn int) Cell {
	out := long
	out.Reps = make([]float64, len(long.Reps))
	var total float64
	for i := range out.Reps {
		out.Reps[i] = (long.Reps[i] - short.Reps[i]) / float64(dn)
		total += out.Reps[i]
	}
	out.Seconds = total / float64(len(out.Reps))
	out.Median = median(out.Reps)
	return out
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
	var cell Cell
	// The socket, credit and control counters of a Result are the session's
	// totals; a rep's share is the difference from the previous rep's.
	var prev netcluster.Result
	for i := 0; i < o.reps(); i++ {
		res, err := runTCPOnce(c, source, seed, opts)
		if err != nil {
			return Cell{}, err
		}
		cell.Reps = append(cell.Reps, res.Duration.Seconds())
		cell.Counters = map[string]int64{
			"steps":                   int64(res.Steps),
			"remote_batches":          res.Job.RemoteBatches,
			"payload_bytes":           res.Job.BytesSent,
			"socket_bytes":            res.SocketBytes - prev.SocketBytes,
			"credit_stalls":           res.CreditStalls - prev.CreditStalls,
			"credit_stall_usec":       (res.CreditStallTime - prev.CreditStallTime).Microseconds(),
			"attempts":                int64(res.Attempts),
			"ctrl_messages":           res.CtrlMessages - prev.CtrlMessages,
			"ctrl_bytes":              res.CtrlBytes - prev.CtrlBytes,
			"template_installs":       int64(res.TemplateInstalls),
			"template_instantiations": int64(res.TemplateInstantiations),
		}
		prev = *res
	}
	var total float64
	for _, r := range cell.Reps {
		total += r
	}
	cell.Seconds = total / float64(len(cell.Reps))
	cell.Median = median(cell.Reps)
	return cell, nil
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
