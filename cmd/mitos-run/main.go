// mitos-run compiles and executes a Mitos script against text datasets.
//
//	mitos-run [-machines N] [-seq] [-data DIR] [-out DIR] [-http ADDR] script.mitos
//	mitos-run -cluster=tcp -listen :7070 -workers 3 script.mitos
//
// Every "*.txt" file in -data becomes an input dataset named after the
// file (without extension); one element per line, comma-separated tuple
// fields (see mitos.ReadTextDataset). After the run, every dataset in the
// store is written to -out as "<name>.txt".
//
// With -cluster=tcp the script runs on the real multi-process TCP backend
// instead of the simulated cluster: this process becomes the coordinator,
// listening on -listen until -workers mitos-worker processes register,
// then ships the job to them and drives the control flow over sockets.
// With -retries N the coordinator survives worker loss: it re-admits
// redialing or replacement workers and re-executes the job up to N times
// (delay -retry-backoff, doubling per attempt) before giving up. -seq runs
// the sequential reference interpreter whatever -cluster says.
//
// With -http, a live introspection server runs on ADDR for the whole
// process lifetime: /metrics (Prometheus), /jobs/{id} (live dataflow
// graph), /lineage, /criticalpath, /debug/pprof. Lineage tracking is
// enabled, the critical-path summary is printed after the run, and the
// process keeps serving until interrupted so the finished run can be
// inspected post-mortem. Combined with -cluster=tcp the server serves the
// federated cluster view: every worker ships its metrics, trace events,
// and lineage to the coordinator over the control connection, so /metrics
// carries machine-labeled per-worker series, /trace is one merged timeline
// with a process lane per worker, and /criticalpath spans all processes.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/mitos-project/mitos"
)

// options are mitos-run's flags.
type options struct {
	cluster, listen, dataDir, outDir, traceFile, httpAddr string
	machines, workers, retries, parallelism               int
	retryBackoff                                          time.Duration
	noPipe, noHoist, seq, metrics                         bool
}

// defineFlags registers mitos-run's flags on fs and returns where they land.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.cluster, "cluster", "sim", "execution backend: sim (in-process simulated cluster) or tcp (real multi-process workers)")
	fs.IntVar(&o.machines, "machines", 4, "simulated cluster size (sim backend)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7070", "coordinator listen address (tcp backend)")
	fs.IntVar(&o.workers, "workers", 3, "worker processes to wait for (tcp backend)")
	fs.IntVar(&o.retries, "retries", 0, "re-execute the job up to N times after worker loss (tcp backend)")
	fs.DurationVar(&o.retryBackoff, "retry-backoff", 500*time.Millisecond, "initial delay between re-execution attempts, doubling per retry (tcp backend)")
	fs.IntVar(&o.parallelism, "parallelism", 0, "operator parallelism (default: one per machine)")
	fs.BoolVar(&o.noPipe, "no-pipelining", false, "disable loop pipelining")
	fs.BoolVar(&o.noHoist, "no-hoisting", false, "disable loop-invariant hoisting")
	fs.BoolVar(&o.seq, "seq", false, "run with the sequential reference interpreter")
	fs.StringVar(&o.dataDir, "data", "", "directory of input datasets (*.txt)")
	fs.StringVar(&o.outDir, "out", "", "directory to write result datasets to")
	fs.StringVar(&o.traceFile, "trace", "", "write a Chrome trace_event JSON timeline to this file")
	fs.BoolVar(&o.metrics, "metrics", false, "print the engine metrics snapshot after the run")
	fs.StringVar(&o.httpAddr, "http", "", "serve live introspection (/metrics, /jobs, /lineage, /criticalpath) on this address until interrupted")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mitos-run [flags] script.mitos")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if o.cluster != "sim" && o.cluster != "tcp" {
		fmt.Fprintf(os.Stderr, "mitos-run: -cluster must be sim or tcp, got %q\n", o.cluster)
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *o); err != nil {
		fmt.Fprintf(os.Stderr, "mitos-run: %v\n", err)
		os.Exit(1)
	}
}

// run executes the script on the backend o selects; the backends differ
// only in the call that runs the job. With -cluster=tcp and -http the
// introspection server federates the telemetry every worker ships.
func run(scriptPath string, o options) error {
	src, err := os.ReadFile(scriptPath)
	if err != nil {
		return err
	}
	prog, err := mitos.Compile(string(src))
	if err != nil {
		return err
	}
	// The coordinator's listener is bound before -data loads, so workers
	// started alongside this process wait in its backlog instead of
	// failing to dial.
	var ln net.Listener
	if o.cluster == "tcp" && !o.seq {
		if ln, err = net.Listen("tcp", o.listen); err != nil {
			return err
		}
		defer ln.Close()
	}
	st := mitos.NewDFS(mitos.DFSConfig{})
	if o.dataDir != "" {
		if err := loadDataDir(st, o.dataDir); err != nil {
			return err
		}
	}

	if o.seq && (o.traceFile != "" || o.metrics || o.httpAddr != "") {
		fmt.Fprintln(os.Stderr, "mitos-run: note: -trace, -metrics and -http observe the distributed engine; ignored with -seq")
		o.traceFile, o.metrics, o.httpAddr = "", false, ""
	}
	var observer *mitos.Observer
	if o.traceFile != "" {
		observer = mitos.NewTracingObserver()
	} else if o.metrics || o.httpAddr != "" {
		observer = mitos.NewObserver()
	}
	var srv *mitos.IntrospectionServer
	if o.httpAddr != "" {
		observer.EnableLineage()
		srv, err = mitos.ServeIntrospection(o.httpAddr, observer)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("introspection server listening on http://%s\n", srv.Addr())
	}
	cfg := mitos.Config{
		Machines:          o.machines,
		Parallelism:       o.parallelism,
		DisablePipelining: o.noPipe,
		DisableHoisting:   o.noHoist,
		Observer:          observer,
		HTTP:              srv,
	}

	var res *mitos.Result
	switch {
	case o.seq:
		err = prog.RunSequential(st)
	case o.cluster == "tcp":
		fmt.Printf("coordinator listening on %s, waiting for %d workers (mitos-worker -coord ADDR)\n", ln.Addr(), o.workers)
		var coord *mitos.TCPCoordinator
		if coord, err = mitos.ListenTCP(mitos.TCPCoordConfig{Listener: ln, Workers: o.workers, Retries: o.retries, RetryBackoff: o.retryBackoff}); err != nil {
			return err
		}
		defer coord.Close()
		fmt.Printf("%d workers registered and meshed\n", o.workers)
		res, err = prog.RunTCP(coord, st, cfg)
	default:
		res, err = prog.Run(st, cfg)
	}
	if err != nil {
		return err
	}

	// The summary. Only a TCP result carries attempts, and with them the
	// wire-level counters and each failed attempt's error.
	if res == nil {
		fmt.Println("sequential run complete")
	} else {
		fmt.Printf("run complete: %d basic-block visits, %v, %d elements transferred", res.Steps, res.Duration.Round(0), res.Job.ElementsSent)
		if res.Attempts > 0 {
			fmt.Printf(", %d bytes on the wire, %d credit stalls", res.SocketBytes, res.CreditStalls)
		}
		fmt.Println()
		if res.Attempts > 1 {
			fmt.Printf("recovered from worker loss: %d attempts\n", res.Attempts)
			for i, e := range res.AttemptErrors {
				fmt.Printf("  attempt %d failed: %s\n", i+1, e)
			}
		}
		if res.CriticalPath != nil {
			fmt.Print(res.CriticalPath.String())
		}
	}
	if o.traceFile != "" {
		if err := create(o.traceFile, func(w io.Writer) error { return mitos.WriteTrace(observer, w) }); err != nil {
			return err
		}
		fmt.Printf("wrote trace to %s (open in chrome://tracing or Perfetto)\n", o.traceFile)
	}
	if o.metrics {
		fmt.Print(res.Report.String())
	}
	if o.outDir != "" {
		if err := writeOutDir(st, o.outDir); err != nil {
			return err
		}
	}
	if srv != nil {
		fmt.Printf("serving introspection on http://%s until interrupted (Ctrl-C)\n", srv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	return nil
}

// loadDataDir reads every *.txt file in dir into st.
func loadDataDir(st mitos.Store, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".txt") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		elems, err := mitos.ReadTextDataset(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		name := strings.TrimSuffix(e.Name(), ".txt")
		if err := st.WriteDataset(name, elems); err != nil {
			return err
		}
		fmt.Printf("loaded %s: %d elements\n", name, len(elems))
	}
	return nil
}

// writeOutDir writes every dataset in st to dir as "<name>.txt".
func writeOutDir(st mitos.NamedStore, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range st.Names() {
		elems, err := st.ReadDataset(name)
		if err != nil {
			return err
		}
		if err := create(filepath.Join(dir, name+".txt"), func(w io.Writer) error { return mitos.WriteTextDataset(w, elems) }); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d datasets to %s\n", len(st.Names()), dir)
	return nil
}

// create writes path through write, reporting the first error of the two
// and of closing the file.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
