// Command benchmark is the repository's benchmark: four workloads run
// through the public mitos API with no observer attached and checked
// against the sequential oracle (the end-to-end metrics), and a separate
// traced pass through the internal path for the per-layer metrics. See
// README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// config is one invocation. trace selects the passes: 0 the untraced timed
// pass, 1 the traced pass, -1 both.
type config struct {
	workloads  []*workloadDef
	seed       int64
	seconds    float64
	rounds     int
	jobs       int
	trace      int
	out        string
	cpuprofile string
	sc         scale
}

// tracedPairs is how many unobserved/observed job pairs the traced pass
// runs when it is not bounded by -seconds.
const tracedPairs = 10

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Stability is exact or noisy for a count (did every job of the run
	// read the same value), timing otherwise. Only exact counts may back a
	// claim.
	Stability string `json:"stability,omitempty"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples is the number of verified untraced jobs behind the
	// end-to-end metrics.
	Samples  int                    `json:"samples"`
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	// RoundValues holds every end-to-end metric reduced per round (per
	// set-up for setup_s); -compare estimates noise from them.
	RoundValues map[string][]float64   `json:"round_values,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Budget      []product              `json:"budget,omitempty"`
	SpanSelfMs  map[string]float64     `json:"span_self_ms,omitempty"`
	Trace       string                 `json:"trace,omitempty"`
}

// env is what a result file records about where it was measured; -compare
// refuses two files that differ in anything but the commit.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GOGC       string  `json:"gogc"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Rounds     int     `json:"rounds"`
	Jobs       int     `json:"jobs_per_round"`
	Seconds    float64 `json:"seconds"`
}

type resultFile struct {
	Env       env               `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

func currentEnv(cfg config) env {
	e := env{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GOGC: os.Getenv("GOGC"), Kernel: "unknown",
		Seed: cfg.seed, Rounds: cfg.rounds, Jobs: cfg.jobs, Seconds: cfg.seconds,
	}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	// The go tool stamps the commit into the binary when it builds inside
	// a git checkout; elsewhere the commit stays unknown.
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
		e.Commit += modified
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		e.Kernel = string(b)
	}
	return e
}

func main() {
	var cfg config
	var one, many string
	flag.StringVar(&one, "workload", "", "run this one workload (the driver's flag)")
	flag.StringVar(&many, "workloads", "", "comma-separated workloads to run (default all)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measure each pass for this long instead of for -rounds x -jobs")
	flag.IntVar(&cfg.rounds, "rounds", 5, "timed rounds, interleaved round-robin over the workloads")
	flag.IntVar(&cfg.jobs, "jobs", 25, "jobs per round and workload when -seconds is 0")
	flag.IntVar(&cfg.trace, "trace", -1, "0: untraced end-to-end pass; 1: traced per-layer pass; -1: both")
	flag.StringVar(&cfg.out, "out", "benchmark/out/result.json", "result file; the span traces are written beside it")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the traced pass to this file")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()
	cfg.sc = fullScale

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	var err error
	if cfg.workloads, err = selectWorkloads(one, many); err != nil {
		fatal(err)
	}
	if cfg.rounds < 1 || cfg.jobs < 1 || cfg.seconds < 0 || cfg.trace < -1 || cfg.trace > 1 {
		fatal(errors.New("need -rounds >= 1, -jobs >= 1, -seconds >= 0 and -trace in -1, 0, 1"))
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	failed := 0
	for _, w := range res.Workloads {
		failed += w.Failed
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func selectWorkloads(one, many string) ([]*workloadDef, error) {
	if one != "" && many != "" {
		return nil, errors.New("give -workload or -workloads, not both")
	}
	if one+many == "" {
		return workloads, nil
	}
	var out []*workloadDef
next:
	for _, name := range strings.Split(one+many, ",") {
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return out, nil
}

// run sets every selected workload up, makes the selected passes, prints
// every metric by name and unit to w, and writes the result file and the
// span traces. When one workload and one pass are selected, the last line
// printed is the driver's JSON object.
func run(cfg config, w io.Writer) (*resultFile, error) {
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...) }
	setups := cfg.sc.setups
	if cfg.trace == 1 {
		setups = 1 // setup_s is an end-to-end metric; the traced pass does not report it
	}
	instances := make([]*instance, len(cfg.workloads))
	timed := make([]*timedRun, len(cfg.workloads))
	defer func() {
		for _, in := range instances {
			if in != nil {
				in.close()
			}
		}
	}()
	for i, wd := range cfg.workloads {
		timed[i] = &timedRun{}
		for k := 0; k < setups; k++ {
			if instances[i] != nil {
				instances[i].close()
				instances[i] = nil
			}
			t0 := time.Now()
			in, err := setUp(wd, cfg.seed, cfg.sc)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", wd.name, err)
			}
			timed[i].setupS = append(timed[i].setupS, time.Since(t0).Seconds())
			instances[i] = in
		}
	}

	res := &resultFile{Env: currentEnv(cfg)}
	for _, wd := range cfg.workloads {
		res.Workloads = append(res.Workloads, &workloadResult{Name: wd.name})
	}
	if cfg.trace != 1 {
		timedPass(cfg, instances, timed, res, logf)
	}
	if cfg.trace != 0 {
		if cfg.cpuprofile != "" {
			f, err := os.Create(cfg.cpuprofile)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return nil, err
			}
			defer pprof.StopCPUProfile()
		}
		limit := time.Duration(cfg.seconds / float64(len(instances)) * float64(time.Second))
		for i, in := range instances {
			if err := in.tracedPass(cfg, limit, res.Workloads[i], logf); err != nil {
				return nil, fmt.Errorf("%s: traced pass: %w", in.w.name, err)
			}
		}
	}

	report(w, cfg, res)
	if err := os.MkdirAll(filepath.Dir(cfg.out), 0o755); err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(cfg.out, append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	if len(res.Workloads) == 1 && cfg.trace >= 0 {
		wr := res.Workloads[0]
		metrics := wr.EndToEnd
		if cfg.trace == 1 {
			metrics = wr.PerLayer
		}
		bare := map[string]any{}
		for name, m := range metrics {
			bare[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
		line, err := json.Marshal(map[string]any{"correct": wr.Failed == 0, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": bare})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	return res, nil
}

// timedPass runs the untraced rounds, round-robin over the workloads so that
// a slow stretch of the shared box falls on all of them, and reduces each
// workload's samples to its end-to-end metrics.
func timedPass(cfg config, instances []*instance, timed []*timedRun, res *resultFile, logf func(string, ...any)) {
	jobs := cfg.jobs
	var dur time.Duration
	if cfg.seconds > 0 {
		jobs = 0
		dur = time.Duration(cfg.seconds / float64(cfg.rounds*len(instances)) * float64(time.Second))
	}
	for r := 0; r < cfg.rounds; r++ {
		for i, in := range instances {
			timed[i].round(in, jobs, dur, logf)
		}
	}
	for i, t := range timed {
		wr := res.Workloads[i]
		wr.Attempted, wr.Failed = t.attempted, t.failed
		wr.RoundValues = t.roundValues()
		wr.EndToEnd = map[string]metricValue{}
		values := t.endToEnd()
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
		}
		for _, r := range t.rounds {
			wr.Samples += len(r)
		}
	}
}

// report prints every metric by name with its unit, one line per workload
// and metric; lines starting with # are commentary.
func report(w io.Writer, cfg config, res *resultFile) {
	e := res.Env
	fmt.Fprintf(w, "# env: commit %s, %s, GOMAXPROCS %d, nproc %d, GOGC %s, kernel %s, seed %d\n",
		e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.GOGC, e.Kernel, e.Seed)
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "# %s: %d jobs attempted, %d failed\n", wr.Name, wr.Attempted, wr.Failed)
		if wr.EndToEnd != nil {
			fmt.Fprintf(w, "# %s: %d samples behind the end-to-end metrics; job_s_p50 per round %.4f\n", wr.Name, wr.Samples, wr.RoundValues["job_s_p50"])
			for _, d := range endToEnd {
				m := wr.EndToEnd[d.Name]
				fmt.Fprintf(w, "%-16s %-32s %14.6g %-6s bound %g%%\n", wr.Name, d.Name, m.Value, m.Unit, d.Bound*100)
			}
		}
		if wr.PerLayer != nil {
			for _, d := range perLayer {
				m := wr.PerLayer[d.Name]
				fmt.Fprintf(w, "%-16s %-32s %14.6g %-6s %s\n", wr.Name, d.Name, m.Value, m.Unit, m.Stability)
			}
			fmt.Fprintf(w, "# %s: layer budget, CPU seconds per job (unit cost x measured count)\n", wr.Name)
			for _, p := range wr.Budget {
				fmt.Fprintf(w, "#   %10.6f s  %s (%.6g x %.4g ns)\n", p.Seconds, p.Name, p.Count, p.UnitNs)
			}
			fmt.Fprintf(w, "# %s: span self time, median ms over traced jobs: %v\n", wr.Name, wr.SpanSelfMs)
			fmt.Fprintf(w, "# %s: span trace written to %s\n", wr.Name, wr.Trace)
		}
	}
	fmt.Fprintf(w, "# result file: %s\n", cfg.out)
}

// tracedPass measures the unit costs, then alternates unobserved and
// observed jobs through the internal path — the same calls either way, so
// the difference of their medians is what the metrics observer costs — and
// reduces every reading to the per-layer metrics. A positive limit bounds
// the whole pass; otherwise it runs tracedPairs pairs.
func (in *instance) tracedPass(cfg config, limit time.Duration, wr *workloadResult, logf func(string, ...any)) error {
	deadline := time.Now().Add(limit)
	ser := series{}
	plan, udfCalls, err := in.unitCosts(cfg.sc, ser)
	if err != nil {
		return err
	}
	// One discarded job takes the session's counters as they stand after
	// the warm-up jobs, so the first measured job's share is its own.
	if _, err := in.runInternal(nil, 0, false); err != nil {
		return err
	}
	tr := &tracer{origin: time.Now()}
	var plain, observed, cpu []float64
	var last *internalJob
	for n := 1; ; n++ {
		if limit > 0 && n > 3 && !time.Now().Before(deadline) || limit == 0 && n > tracedPairs {
			break
		}
		for _, observe := range []bool{false, true} {
			wr.Attempted++
			t := tr
			if !observe {
				t = nil
			}
			runtime.GC()
			job, err := in.runInternal(t, n, observe)
			if err != nil {
				wr.Failed++
				logf("%s: traced-pass job failed: %v", in.w.name, err)
				continue
			}
			if !observe {
				plain = append(plain, job.run.Seconds())
				cpu = append(cpu, job.cpu)
				ser.add("mitos.prelude_ms", float64(job.run-job.exec)/1e6)
				continue
			}
			observed = append(observed, job.run.Seconds())
			ser.add("core.exec_s", job.exec.Seconds())
			ser.addAll(job.counts)
			last = job
		}
	}
	if last == nil || len(plain) == 0 {
		return errors.New("no job of the traced pass succeeded")
	}

	ser.add("obs.metrics_overhead_frac", (median(observed)-median(plain))/median(plain))
	// The harness's own two numbers describe the timed pass when this run
	// made one, and this pass's unobserved jobs cut into rounds otherwise.
	samples, roundMedians := wr.Samples, wr.RoundValues["job_s_p50"]
	if samples == 0 {
		samples = len(plain)
		for i := 0; i < cfg.rounds; i++ {
			if chunk := plain[i*len(plain)/cfg.rounds : (i+1)*len(plain)/cfg.rounds]; len(chunk) > 0 {
				roundMedians = append(roundMedians, median(chunk))
			}
		}
	}
	ser.add("bench.samples", float64(samples))
	ser.add("bench.round_spread", spread(roundMedians))
	wr.Budget = budget(ser, plan, last.snaps, in.machines(), udfCalls)
	var accounted float64
	for _, p := range wr.Budget {
		if p.Summed {
			accounted += p.Seconds
		}
	}
	ser.add("layers.accounted_frac", ratio(accounted, median(cpu)))

	wr.PerLayer = map[string]metricValue{}
	for _, d := range perLayer {
		m := metricValue{Value: ser.med(d.Name), Unit: d.Unit, Stability: "timing"}
		if d.Kind == kindCount {
			m.Stability = "noisy"
			if allEqual(ser[d.Name]) {
				m.Stability = "exact"
			}
		}
		wr.PerLayer[d.Name] = m
	}
	wr.SpanSelfMs = tr.selfMs()
	wr.Trace = traceFile(cfg.out, in.w.name)
	return tr.write(wr.Trace)
}
