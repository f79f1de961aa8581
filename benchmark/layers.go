package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	mitos "github.com/mitos-project/mitos"
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/dfs"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// series collects every reading of every per-layer metric; a metric's
// reported value is the median of its readings.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) addAll(m map[string]float64) {
	for name, v := range m {
		s.add(name, v)
	}
}

func (s series) med(name string) float64 { return median(s[name]) }

// The sinks keep measured calls from being optimised away; they are typed
// so that storing a result boxes nothing.
var (
	sinkValue val.Value
	sinkElems []val.Value
	sinkBytes []byte
	sinkHash  uint64
	sinkMap   *val.Map[int64]
)

func (in *instance) machines() int {
	if in.w.tcp {
		return tcpWorkers
	}
	return simMachines
}

// unitCosts measures, from the benchmark's own files, what one call into
// each layer costs on this workload's script and element shape, and reads
// the static counts of the front end. It returns the plan the layer budget
// walks and how many UDF calls a job makes.
func (in *instance) unitCosts(sc scale, ser series) (*core.Plan, float64, error) {
	plan, err := in.frontEnd(sc, ser)
	if err != nil {
		return nil, 0, err
	}
	udfCalls, err := in.udfCost(sc, ser)
	if err != nil {
		return nil, 0, err
	}
	vals := in.w.shape(in.inputs)
	if len(vals) == 0 {
		return nil, 0, errors.New("workload has no element sample")
	}
	if err := valCosts(vals, sc, ser); err != nil {
		return nil, 0, err
	}
	if err := emitCosts(vals, sc, ser); err != nil {
		return nil, 0, err
	}
	for i := 0; i < sc.unitReps; i++ {
		if err := in.storeAndSessionCosts(ser); err != nil {
			return nil, 0, err
		}
	}
	return plan, udfCalls, nil
}

// frontEnd times parse, check, SSA conversion and the plan passes on the
// workload's script.
func (in *instance) frontEnd(sc scale, ser series) (*core.Plan, error) {
	var plan *core.Plan
	for i := 0; i < sc.frontEndReps; i++ {
		t0 := time.Now()
		ast, err := lang.Parse(in.src)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := lang.Check(ast); err != nil {
			return nil, err
		}
		t2 := time.Now()
		g, err := ir.CompileToSSA(ast)
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		if plan, err = core.BuildPlan(g, in.machines()); err != nil {
			return nil, err
		}
		combiners := plan.InsertCombiners()
		chained := plan.BuildChains()
		t4 := time.Now()
		ser.add("lang.parse_us", float64(t1.Sub(t0))/1e3)
		ser.add("lang.check_us", float64(t2.Sub(t1))/1e3)
		ser.add("ir.ssa_us", float64(t3.Sub(t2))/1e3)
		ser.add("core.plan_us", float64(t4.Sub(t3))/1e3)
		instrs := 0
		for _, b := range g.Blocks {
			instrs += len(b.Instrs)
		}
		ser.add("ir.blocks", float64(len(g.Blocks)))
		ser.add("ir.instrs", float64(instrs))
		ser.add("core.plan_ops", float64(len(plan.Ops)))
		ser.add("core.combiners_inserted", float64(combiners))
		ser.add("core.chained_edges", float64(chained))
	}
	return plan, nil
}

// udfRecorder stands in for one lambda during a sequential run: it counts
// the calls and keeps the first argument lists, so that the lambda can be
// timed on elements of exactly the shape the workload feeds it.
type udfRecorder struct {
	orig  *lang.UDF
	calls int
	args  [][]val.Value
	err   error
}

func (r *udfRecorder) call(args []val.Value) val.Value {
	r.calls++
	if len(r.args) < 64 {
		r.args = append(r.args, append([]val.Value(nil), args...))
	}
	v, err := r.orig.Call(args...)
	if err != nil && r.err == nil {
		r.err = err
	}
	return v
}

// udfCost runs the script once on the sequential SSA interpreter with every
// lambda wrapped in a recorder, then times each lambda alone. It adds
// lang.udf_ns_per_call, the mean over lambdas weighted by their calls, and
// returns the number of calls the run made.
func (in *instance) udfCost(sc scale, ser series) (float64, error) {
	ast, err := lang.Parse(in.src)
	if err != nil {
		return 0, err
	}
	if _, err := lang.Check(ast); err != nil {
		return 0, err
	}
	g, err := ir.CompileToSSA(ast)
	if err != nil {
		return 0, err
	}
	var recs []*udfRecorder
	for _, b := range g.Blocks {
		for _, instr := range b.Instrs {
			if instr.F == nil {
				continue
			}
			r := &udfRecorder{orig: instr.F}
			if instr.F, err = lang.MakeUDF(&lang.GoFunc{Label: r.orig.String(), Arity: r.orig.Arity(), Fn: r.call}); err != nil {
				return 0, err
			}
			recs = append(recs, r)
		}
	}
	st := store.NewMemStore()
	if err := load(st, in.inputs); err != nil {
		return 0, err
	}
	if err := (&ir.Interp{Store: st}).Run(g); err != nil {
		return 0, fmt.Errorf("recording UDF arguments: %w", err)
	}
	var calls int
	var total float64
	for _, r := range recs {
		if r.err != nil {
			return 0, fmt.Errorf("UDF %s: %w", r.orig, r.err)
		}
		if r.calls == 0 {
			continue
		}
		t0 := time.Now()
		for i, j := 0, 0; i < sc.udfCalls; i++ {
			v, err := r.orig.Call(r.args[j]...)
			if err != nil {
				return 0, err
			}
			sinkValue = v
			if j++; j == len(r.args) {
				j = 0
			}
		}
		calls += r.calls
		total += float64(r.calls) * time.Since(t0).Seconds() / float64(sc.udfCalls)
	}
	ser.add("lang.udf_ns_per_call", ratio(total*1e9, float64(calls)))
	return float64(calls), nil
}

// valCosts measures the value layer per element over the sample: binary
// encode and decode, key hash, and a keyed aggregation into a fresh
// val.Map (inserts, growth and in-place updates in the sample's own mix).
// One goroutine, so wall time is CPU time.
func valCosts(vals []val.Value, sc scale, ser series) error {
	n := float64(len(vals) * sc.valPasses)
	var bytes int
	enc := make([][]byte, len(vals))
	for i, e := range vals {
		enc[i] = val.AppendBinary(nil, e)
		bytes += val.EncodedSize(e)
	}
	for rep := 0; rep < sc.unitReps; rep++ {
		buf := make([]byte, 0, 256)
		t0 := time.Now()
		for p := 0; p < sc.valPasses; p++ {
			for _, e := range vals {
				buf = val.AppendBinary(buf[:0], e)
			}
		}
		ser.add("val.encode_ns", float64(time.Since(t0))/n)
		sinkBytes = buf

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 = time.Now()
		for p := 0; p < sc.valPasses; p++ {
			for _, b := range enc {
				v, _, err := val.DecodeBinary(b)
				if err != nil {
					return err
				}
				sinkValue = v
			}
		}
		ser.add("val.decode_ns", float64(time.Since(t0))/n)
		runtime.ReadMemStats(&m1)
		ser.add("val.decode_allocs", float64(m1.Mallocs-m0.Mallocs)/n)

		var h uint64
		t0 = time.Now()
		for p := 0; p < sc.valPasses; p++ {
			for _, e := range vals {
				h += e.Key().Hash()
			}
		}
		ser.add("val.hash_ns", float64(time.Since(t0))/n)
		sinkHash = h

		t0 = time.Now()
		for p := 0; p < sc.valPasses; p++ {
			m := val.NewMap[int64](0)
			for _, e := range vals {
				m.Update(e.Key(), func(old int64, _ bool) int64 { return old + 1 })
			}
			sinkMap = m
		}
		ser.add("val.map_update_ns", float64(time.Since(t0))/n)
	}
	ser.add("val.encoded_bytes_per_elem", float64(bytes)/float64(len(vals)))
	ser.add("val.value_bytes", float64(unsafe.Sizeof(val.Value{})))
	return nil
}

// emitSource emits the broadcast count of elements, cycling through the
// sample, then closes the bag.
type emitSource struct {
	ctx  *dataflow.Context
	vals []val.Value
}

func (v *emitSource) Open(ctx *dataflow.Context) error           { v.ctx = ctx; return nil }
func (v *emitSource) OnBatch(int, int, []dataflow.Element) error { return nil }
func (v *emitSource) OnEOB(int, int, dataflow.Tag) error         { return nil }
func (v *emitSource) Close() error                               { return nil }
func (v *emitSource) OnControl(ev any) error {
	n, ok := ev.(int)
	if !ok {
		return nil
	}
	j := v.ctx.Instance() * len(v.vals) / v.ctx.Parallelism()
	for i := 0; i < n; i++ {
		v.ctx.Emit(dataflow.Element{Tag: 1, Val: v.vals[j]})
		if j++; j == len(v.vals) {
			j = 0
		}
	}
	v.ctx.EmitEOB(1)
	return nil
}

// emitSink discards data; the last instance to see every producer's end of
// bag closes done.
type emitSink struct {
	ctx  *dataflow.Context
	eobs int
	left *atomic.Int64
	done chan struct{}
}

func (v *emitSink) Open(ctx *dataflow.Context) error           { v.ctx = ctx; return nil }
func (v *emitSink) OnBatch(int, int, []dataflow.Element) error { return nil }
func (v *emitSink) OnControl(any) error                        { return nil }
func (v *emitSink) Close() error                               { return nil }
func (v *emitSink) OnEOB(int, int, dataflow.Tag) error {
	if v.eobs++; v.eobs == v.ctx.NumProducers(0) && v.left.Add(-1) == 0 {
		close(v.done)
	}
	return nil
}

// ctrlEvent stands in for the path segments the control plane fans out on
// every loop step; ctrlSink takes them and signals on the int sentinel that
// follows the last one.
type ctrlEvent struct{}

func (ctrlEvent) CtrlSize() int { return 12 }

type ctrlSink struct{ emitSink }

func (v *ctrlSink) OnControl(ev any) error {
	if _, last := ev.(int); last && v.left.Add(-1) == 0 {
		close(v.done)
	}
	return nil
}

const unitPar = 4

// unitJob runs drive against a started two-vertex (or, for control, one-
// vertex) job on a zero-delay cluster and returns the process CPU and
// mallocs it cost, plus the job's transfer counters. CPU rather than wall
// time, because source, sink and transport goroutines run side by side and
// the layer budget is reconciled against cpu_s_per_job.
func unitJob(machines int, build func(g *dataflow.Graph, left *atomic.Int64, done chan struct{}), drive func(*dataflow.Job)) (cpuS float64, mallocs uint64, st dataflow.JobStats, err error) {
	cl, err := cluster.New(cluster.FastConfig(machines))
	if err != nil {
		return 0, 0, st, err
	}
	defer cl.Close()
	var g dataflow.Graph
	var left atomic.Int64
	left.Store(unitPar)
	done := make(chan struct{})
	build(&g, &left, done)
	job, err := dataflow.NewJob(&g, cl, 0)
	if err != nil {
		return 0, 0, st, err
	}
	job.Observe(nil) // as the engine does: a nil observer is the instrumentation-off path
	if err := job.Start(); err != nil {
		return 0, 0, st, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	drive(job)
	select {
	case <-done:
	case <-time.After(time.Minute):
		err = errors.New("unit-cost job did not finish within a minute")
	}
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	job.Stop(err)
	if werr := job.Wait(); werr != nil {
		return 0, 0, st, werr
	}
	return c1 - c0, m1.Mallocs - m0.Mallocs, job.Stats(), nil
}

// emitCosts measures what moving one element from a source to a sink costs
// on each path the engine has — forward through a mailbox, chained by
// direct call, key-shuffled within a machine, key-shuffled across machines
// (codec and transport included) — and what one control broadcast costs.
func emitCosts(vals []val.Value, sc scale, ser series) error {
	emit := func(machines int, part dataflow.Partitioning, chained bool) (ns, allocs, remote float64, err error) {
		cpuS, mallocs, st, err := unitJob(machines,
			func(g *dataflow.Graph, left *atomic.Int64, done chan struct{}) {
				src := g.AddOp("src", unitPar, func(int) dataflow.Vertex { return &emitSource{vals: vals} })
				snk := g.AddOp("sink", unitPar, func(int) dataflow.Vertex { return &emitSink{left: left, done: done} })
				if chained {
					g.ConnectChained(src, snk, 0)
				} else {
					g.Connect(src, snk, 0, part)
				}
			},
			func(job *dataflow.Job) { job.Broadcast(sc.emitElems / unitPar) })
		n := float64(st.ElementsSent)
		return cpuS * 1e9 / n, float64(mallocs) / n, ratio(float64(st.RemoteBatches), float64(st.BatchesSent)), err
	}
	for rep := 0; rep < sc.unitReps; rep++ {
		forward, _, _, err := emit(1, dataflow.PartForward, false)
		if err != nil {
			return err
		}
		chainedNs, _, _, err := emit(1, dataflow.PartForward, true)
		if err != nil {
			return err
		}
		local, localAllocs, _, err := emit(1, dataflow.PartShuffleKey, false)
		if err != nil {
			return err
		}
		// On two machines a share f of the batches crosses; the pure
		// remote cost follows from the mix and the local cost. f is read
		// from the job's counters, not assumed from the hash.
		mixed, mixedAllocs, f, err := emit(2, dataflow.PartShuffleKey, false)
		if err != nil {
			return err
		}
		if f == 0 {
			return errors.New("two-machine shuffle sent no remote batch")
		}
		ser.add("dataflow.emit_forward_ns", forward)
		ser.add("dataflow.emit_chained_ns", chainedNs)
		ser.add("dataflow.emit_shuffle_local_ns", local)
		ser.add("dataflow.emit_shuffle_remote_ns", (mixed-(1-f)*local)/f)
		ser.add("dataflow.emit_remote_allocs", (mixedAllocs-(1-f)*localAllocs)/f)

		broadcasts := sc.emitElems / 2
		cpuS, _, _, err := unitJob(simMachines,
			func(g *dataflow.Graph, left *atomic.Int64, done chan struct{}) {
				g.AddOp("ctrl", unitPar, func(int) dataflow.Vertex { return &ctrlSink{emitSink: emitSink{left: left, done: done}} })
			},
			func(job *dataflow.Job) {
				ev := any(ctrlEvent{})
				for i := 0; i < broadcasts; i++ {
					job.Broadcast(ev)
				}
				job.Broadcast(0)
			})
		if err != nil {
			return err
		}
		ser.add("dataflow.broadcast_ns", cpuS*1e9/float64(broadcasts))
	}
	return nil
}

// storeAndSessionCosts takes one reading each of the costs of the layers
// under a job: reading every input partition from the DFS store and
// starting and closing a simulated cluster (sim), or establishing a TCP
// session (tcp).
func (in *instance) storeAndSessionCosts(ser series) error {
	if in.w.tcp {
		t0 := time.Now()
		_, cleanup, err := mitos.StartLocalTCP(tcpWorkers, mitos.TCPCoordConfig{})
		if err != nil {
			return err
		}
		ser.add("netcluster.session_setup_ms", float64(time.Since(t0))/1e6)
		cleanup()
		return nil
	}
	st, err := in.newStore()
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, d := range in.inputs {
		for part := 0; part < simMachines; part++ {
			elems, err := st.(*dfs.Store).ReadDatasetPartition(d.name, part, simMachines)
			if err != nil {
				return err
			}
			sinkElems = elems
		}
	}
	if len(in.inputs) > 0 {
		ser.add("dfs.read_ms", float64(time.Since(t0))/1e6)
	}
	t0 = time.Now()
	cl, err := cluster.New(cluster.FastConfig(simMachines))
	if err != nil {
		return err
	}
	cl.Close()
	ser.add("cluster.new_close_us", float64(time.Since(t0))/1e3)
	return nil
}

// product is one line of the layer budget: a unit cost times a measured
// count, in CPU seconds per job.
type product struct {
	Name    string  `json:"name"`
	Count   float64 `json:"count"`
	UnitNs  float64 `json:"unit_ns"`
	Seconds float64 `json:"seconds"`
	// Summed is false for a line that details part of another and is left
	// out of the total.
	Summed bool `json:"summed"`
}

// budget reconciles a job's CPU time against unit costs × measured counts.
// It reads the per-operator element counts of the last observed job;
// machines is the backend's size, because the control-flow manager counts
// each path broadcast once per machine.
func budget(ser series, plan *core.Plan, snaps []*obs.Snapshot, machines int, udfCalls float64) []product {
	line := func(name string, count, unitNs float64, summed bool) product {
		return product{name, count, unitNs, count * unitNs / 1e9, summed}
	}
	sent, chained := ser.med("dataflow.elements_sent"), ser.med("dataflow.elements_chained")
	remote := (sent - chained) * ratio(ser.med("dataflow.remote_batches"), ser.med("dataflow.batches_sent"))
	var keyed float64
	for _, op := range plan.Ops {
		switch op.Instr.Kind {
		case ir.OpReduceByKey, ir.OpJoin, ir.OpDeltaMerge, ir.OpDistinct:
			for _, s := range snaps {
				keyed += float64(s.TotalFor(op.Instr.Var, "elements_in"))
			}
		}
	}
	return []product{
		line("emit chained: dataflow.elements_chained x dataflow.emit_chained_ns", chained, ser.med("dataflow.emit_chained_ns"), true),
		line("emit local: mailbox elements x dataflow.emit_shuffle_local_ns", sent-chained-remote, ser.med("dataflow.emit_shuffle_local_ns"), true),
		line("emit remote: remote elements x dataflow.emit_shuffle_remote_ns", remote, ser.med("dataflow.emit_shuffle_remote_ns"), true),
		line("  of which codec: remote elements x (val.encode_ns + val.decode_ns)", remote, ser.med("val.encode_ns")+ser.med("val.decode_ns"), false),
		line("keyed state: keyed-operator elements_in x val.map_update_ns", keyed, ser.med("val.map_update_ns"), true),
		line("UDF calls: calls of the sequential run x lang.udf_ns_per_call", udfCalls, ser.med("lang.udf_ns_per_call"), true),
		line("control: path broadcasts x dataflow.broadcast_ns", ser.med("core.cfm_broadcasts")/float64(machines), ser.med("dataflow.broadcast_ns"), true),
		line("input read: one job x dfs.read_ms", 1, ser.med("dfs.read_ms")*1e6, true),
		line("prelude: one job x mitos.prelude_ms", 1, ser.med("mitos.prelude_ms")*1e6, true),
	}
}
