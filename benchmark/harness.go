package main

import (
	"fmt"
	"runtime"
	"time"

	mitos "github.com/mitos-project/mitos"
	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/store"
)

// scale sizes everything that is not a workload input: how often set-up is
// repeated and how much work each unit-cost measurement does.
type scale struct {
	tiny bool
	// setups is how many times a workload is set up; setup_s is the median.
	setups  int
	warmups int
	// frontEndReps is how often parse/check/SSA/plan are timed, udfCalls
	// how many calls time one lambda, emitElems how many elements one
	// dataflow unit-cost job moves, unitReps how often each unit cost is
	// measured (the median is kept), and valPasses how many passes over the
	// sample one val measurement makes.
	frontEndReps int
	udfCalls     int
	emitElems    int
	unitReps     int
	valPasses    int
}

var (
	fullScale = scale{setups: 3, warmups: 3, frontEndReps: 200, udfCalls: 20000, emitElems: 200000, unitReps: 5, valPasses: 50}
	tinyScale = scale{tiny: true, setups: 1, warmups: 1, frontEndReps: 3, udfCalls: 100, emitElems: 2000, unitReps: 1, valPasses: 1}
)

// instance is one workload set up and ready to run jobs.
type instance struct {
	w      *workloadDef
	src    string
	inputs []dataset
	prog   *mitos.Program
	// want holds the sequential oracle's outputs, each sorted.
	want []dataset
	// coord is the TCP session of a tcp workload; close ends it and waits
	// for its workers.
	coord *mitos.TCPCoordinator
	close func()
	// prev holds the session's counters as of the last job: the TCP
	// coordinator accumulates socket and control traffic per session, so a
	// job's share is the difference between consecutive results.
	prev sessionTotals
}

// setUp generates the inputs, runs the oracle, compiles, starts the TCP
// session where needed, and runs the warm-up jobs. The caller closes the
// instance.
func setUp(w *workloadDef, seed int64, sc scale) (*instance, error) {
	src, inputs, err := w.build(seed, sc.tiny)
	if err != nil {
		return nil, err
	}
	prog, err := mitos.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	in := &instance{w: w, src: src, inputs: inputs, prog: prog, close: func() {}}

	oracle := store.NewMemStore()
	if err := load(oracle, inputs); err != nil {
		return nil, err
	}
	if err := prog.RunSequential(oracle); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	isInput := make(map[string]bool, len(inputs))
	for _, d := range inputs {
		isInput[d.name] = true
	}
	if in.want, err = datasets(oracle, isInput); err != nil {
		return nil, err
	}
	if len(in.want) == 0 {
		return nil, fmt.Errorf("oracle wrote no output")
	}
	for i := range in.want {
		in.want[i].elems = bag.Sorted(in.want[i].elems)
	}

	if w.tcp {
		if in.coord, in.close, err = mitos.StartLocalTCP(tcpWorkers, mitos.TCPCoordConfig{}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sc.warmups; i++ {
		if _, err := in.runJob(); err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return in, nil
}

func load(st store.Store, sets []dataset) error {
	for _, d := range sets {
		if err := st.WriteDataset(d.name, d.elems); err != nil {
			return err
		}
	}
	return nil
}

// newStore returns a fresh store holding only the inputs, so that a job's
// missing output cannot hide behind the previous job's.
func (in *instance) newStore() (mitos.NamedStore, error) {
	var st mitos.NamedStore = mitos.NewDFS(mitos.DFSConfig{BlockSize: 2048})
	if in.w.tcp {
		st = mitos.NewMemStore()
	}
	return st, load(st, in.inputs)
}

// verify compares every output dataset with the oracle's as a sorted bag.
func (in *instance) verify(st mitos.NamedStore) error {
	if got, want := len(st.Names()), len(in.inputs)+len(in.want); got != want {
		return fmt.Errorf("store holds %d datasets after the job, want %d: %v", got, want, st.Names())
	}
	for _, w := range in.want {
		elems, err := st.ReadDataset(w.name)
		if err != nil {
			return fmt.Errorf("output %q: %w", w.name, err)
		}
		got := bag.Sorted(elems)
		for i := 0; i < max(len(got), len(w.elems)); i++ {
			switch {
			case i >= len(got):
				return fmt.Errorf("output %q: %d elements, want %d; first missing %v", w.name, len(got), len(w.elems), w.elems[i])
			case i >= len(w.elems):
				return fmt.Errorf("output %q: %d elements, want %d; first extra %v", w.name, len(got), len(w.elems), got[i])
			case !got[i].Equal(w.elems[i]):
				return fmt.Errorf("output %q: sorted element %d is %v, want %v", w.name, i, got[i], w.elems[i])
			}
		}
	}
	return nil
}

// sample is what one verified untraced job measured.
type sample struct {
	wall, cpu, allocMB, mallocsK float64
	steps                        int
}

// runJob runs one job through the public API with no observer attached and
// verifies its outputs. Store loading, the GC that levels the heap between
// jobs, and verification are outside the timed region.
func (in *instance) runJob() (sample, error) {
	st, err := in.newStore()
	if err != nil {
		return sample{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	var res *mitos.Result
	if in.w.tcp {
		res, err = in.prog.RunTCP(in.coord, st, mitos.Config{})
	} else {
		res, err = in.prog.Run(st, mitos.Config{Machines: simMachines})
	}
	wall, c1 := time.Since(t0), cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return sample{}, err
	}
	if err := in.verify(st); err != nil {
		return sample{}, err
	}
	return sample{
		wall:     wall.Seconds(),
		cpu:      c1 - c0,
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		mallocsK: float64(m1.Mallocs-m0.Mallocs) / 1e3,
		steps:    res.Steps,
	}, nil
}

// timedRun accumulates one workload's untraced measurements.
type timedRun struct {
	setupS    []float64
	rounds    [][]sample
	attempted int
	failed    int
}

// round runs jobs closed-loop, one in flight: exactly jobs of them, or,
// when jobs is 0, until dur has passed (at least one). A failed job counts
// as attempted and contributes no sample.
func (t *timedRun) round(in *instance, jobs int, dur time.Duration, logf func(string, ...any)) {
	var got []sample
	deadline := time.Now().Add(dur)
	for n := 0; n < jobs || jobs == 0 && (n == 0 || time.Now().Before(deadline)); n++ {
		t.attempted++
		s, err := in.runJob()
		if err != nil {
			t.failed++
			logf("%s: job failed: %v", in.w.name, err)
			continue
		}
		got = append(got, s)
	}
	t.rounds = append(t.rounds, got)
}

func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// reduce turns a set of verified jobs into the per-job end-to-end metrics.
// Each is the median over jobs (p90 aside), which a neighbour's burst on the
// shared box moves less than a mean.
func reduce(ss []sample) map[string]float64 {
	if len(ss) == 0 {
		return map[string]float64{}
	}
	wall := column(ss, func(s sample) float64 { return s.wall })
	p50 := median(wall)
	return map[string]float64{
		"job_s_p50":         p50,
		"job_s_p90":         quantile(wall, 0.9),
		"step_us":           p50 * 1e6 / float64(ss[0].steps),
		"cpu_s_per_job":     median(column(ss, func(s sample) float64 { return s.cpu })),
		"alloc_mb_per_job":  median(column(ss, func(s sample) float64 { return s.allocMB })),
		"mallocs_k_per_job": median(column(ss, func(s sample) float64 { return s.mallocsK })),
	}
}

// endToEnd reduces the pooled samples of all rounds, and the set-ups, to
// the end-to-end metrics.
func (t *timedRun) endToEnd() map[string]float64 {
	var pooled []sample
	for _, r := range t.rounds {
		pooled = append(pooled, r...)
	}
	out := reduce(pooled)
	out["setup_s"] = median(t.setupS)
	return out
}

// roundValues is every end-to-end metric reduced per round (per set-up for
// setup_s): what -compare estimates the noise of the pooled value from.
func (t *timedRun) roundValues() map[string][]float64 {
	out := map[string][]float64{"setup_s": t.setupS}
	for _, r := range t.rounds {
		for name, v := range reduce(r) {
			out[name] = append(out[name], v)
		}
	}
	return out
}
