package mitos

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/netcluster"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/testprog"
	"github.com/mitos-project/mitos/internal/val"
)

// switches names the six optimization switches in the bit order of a
// setting's off mask.
var switches = [...]string{"pipelining", "hoisting", "combiners", "chaining", "templates", "delta"}

// exercises names what the harness must see happen at least once.
var exercises = [...]string{"chained an edge", "installed a template", "combined", "flowed a delta", "ran on tcp", "fused a stage", "ran a stage on scratch", "lent an output",
	"chained a condition on the sim", "chained a condition on tcp", "kept a condition unchained on the sim", "kept a condition unchained on tcp", "read a keyed input over a forward edge", "reused a keyed table", "encoded a lent element into a remote frame", "copied a lent element into a local batch",
	"had a keyed reader read a pair from a remote batch's arena", "had a keyed reader read a pair from a local batch's arena"}

// The exercises hooks report, from any run: core's table hook, dataflow's
// lent hook for a remote and for a local target, and dataflow's arena hook
// for a remote and for a local batch.
const (
	reusedTable = len(exercises) - 5 + iota
	lentRemote
	lentLocal
	arenaRemote
	arenaLocal
)

// arenaPoison is what every recycled batch-arena slot is overwritten with
// while the harness runs: a keyed reader that kept a lent pair past its
// batch would read it instead of the pair.
var arenaPoison = val.Str("arena poisoned")

// setting is one row of the differential table: a generated program, the
// switches that are off, the machine count and the backend. On TCP the
// machine count is the job's parallelism, over 2 workers up to 2 machines
// and 3 workers from 3.
type setting struct {
	seed     int64
	off      uint8
	machines int
	tcp      bool
}

func (s setting) on(k int) bool { return s.off>>k&1 == 0 }

// deltaClass groups the settings of a seed whose runs let the same number
// of delta elements in: neither delta nor the backend changes that count,
// and the other switches change it only through the combiners, which
// pre-aggregate the delta slot.
func (s setting) deltaClass() uint8 {
	if s.on(2) {
		return s.off &^ (1 << 5)
	}
	return 1 << 2
}

func (s setting) options() core.Options {
	return core.Options{Pipelining: s.on(0), Hoisting: s.on(1), Combiners: s.on(2), Chaining: s.on(3), Templates: s.on(4), Delta: s.on(5)}
}

func (s setting) String() string {
	backend, off := "sim", []string{}
	if s.tcp {
		backend = "tcp"
	}
	for k, name := range switches {
		if !s.on(k) {
			off = append(off, name)
		}
	}
	return fmt.Sprintf("seed=%d backend=%s machines=%d off=[%s]", s.seed, backend, s.machines, strings.Join(off, " "))
}

// tcpCluster is a loopback TCP cluster that runs one job at a time.
type tcpCluster struct {
	sync.Mutex
	*netcluster.Coordinator
}

// TestDifferential is the differential harness. Every seed generates a
// program and draws a setting of the six switches and the machine count
// (seed 0 is the all-on default). The setting runs on the sim and on
// loopback TCP workers, and on the sim once more per switch, flipped:
// pipelining and hoisting on every other seed, the other four on every seed
// where the flip can change the run. Every run must write the bags of the
// sequential AST interpreter, take as many steps as the SSA interpreter's
// path, leave the counters of a switched-off mechanism at zero, drop no
// envelope, receive every byte sent, and let a delta element in if the
// program has a deltaMerge. Across a seed's runs the changed delta pairs
// agree, and so do the delta elements in within a delta class. A failure is
// shrunk to the smallest setting that still fails and logged as one repro
// line. Once every seed has run, the harness fails if no run did one of the
// exercises; fusing a stage, running one on scratch, lending an output,
// chaining a condition or keeping one unchained with chaining on, and reading
// a keyed input over a forward edge are read from the plans (a TCP run's is its sim twin's), a host filling a keyed
// table an earlier bag left cleared from core's table hook, a lent
// element encoded into a remote frame or copied into a local batch from
// dataflow's lent hook, and a keyed reader reading the pairs of a remote or
// a local batch from its arena from dataflow's arena hook, which also
// poisons every arena slot it sees recycled, for every row.
//
// The 60 seeds (50 under -short) flip combiners and chaining 60 times (50),
// delta on the 50 programs with a delta loop (41) and templates on the 32
// pipelined settings (26).
func TestDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 50
	}
	var saw [len(exercises)]atomic.Bool
	// Set before any worker goroutine starts, removed after all have exited
	// (cleanups run last-registered first).
	core.SetTableHook(func(string) { saw[reusedTable].Store(true) })
	t.Cleanup(func() { core.SetTableHook(nil) })
	dataflow.SetLentHook(func(remote bool) {
		if remote {
			saw[lentRemote].Store(true)
		} else {
			saw[lentLocal].Store(true)
		}
	})
	t.Cleanup(func() { dataflow.SetLentHook(nil) })
	dataflow.SetArenaHook(func(_ string, remote, _ bool, slots []val.Value) {
		if len(slots) > 0 {
			if remote {
				saw[arenaRemote].Store(true)
			} else {
				saw[arenaLocal].Store(true)
			}
		}
		for i := range slots {
			slots[i] = arenaPoison
		}
	})
	t.Cleanup(func() { dataflow.SetArenaHook(nil) })
	var tcp [2]tcpCluster
	for i := range tcp {
		c, cleanup, err := netcluster.StartLocal(2+i, netcluster.CoordConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cleanup)
		tcp[i].Coordinator = c
	}
	var ran atomic.Int32
	t.Cleanup(func() {
		for i, what := range exercises {
			if !saw[i].Load() && int(ran.Load()) == seeds && !t.Failed() {
				t.Errorf("no run %s: the harness tested nothing there", what)
			}
		}
	})
	for seed := int64(0); seed < int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			differential(t, seed, &tcp, &saw)
			ran.Add(1)
		})
	}
}

// differential runs one seed's rows and marks what they exercised in saw.
func differential(t *testing.T, seed int64, tcp *[2]tcpCluster, saw *[len(exercises)]atomic.Bool) {
	truth, inputs := store.NewMemStore(), store.NewMemStore()
	src, err := testprog.GenProgram(truth, seed)
	if err == nil {
		_, err = testprog.GenProgram(inputs, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(src)
	if err == nil {
		_, err = lang.Check(prog)
	}
	if err != nil {
		t.Fatalf("generated program: %v\n%s", err, src)
	}
	if err := ir.RunAST(prog, truth); err != nil {
		t.Fatalf("AST interpreter: %v\n%s", err, src)
	}
	g, err := ir.CompileToSSA(prog)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	var path []ir.BlockID
	if err := (&ir.Interp{Store: inputs, Trace: &path}).Run(g); err != nil {
		t.Fatalf("SSA interpreter: %v\n%s", err, src)
	}

	run := func(s setting) (o outcome) {
		o.st = store.NewMemStore()
		opts := s.options()
		if _, o.err = testprog.GenProgram(o.st, seed); o.err != nil {
			return o
		}
		if s.tcp {
			c := &tcp[min(max(s.machines, 2), 3)-2]
			opts.Parallelism = s.machines
			c.Lock()
			defer c.Unlock()
			res, err := c.Run(src, o.st, opts)
			if err == nil {
				o.res = &res.Result
			}
			o.err = err
			return o
		}
		cl, err := cluster.New(cluster.FastConfig(s.machines))
		if err != nil {
			o.err = err
			return o
		}
		defer cl.Close()
		if o.plan, o.err = core.Compile(g, s.machines, opts); o.err == nil {
			o.res, o.err = core.ExecutePlan(o.plan, o.st, cl, opts)
		}
		return o
	}
	hasDelta := strings.Contains(src, "deltaMerge")
	changed, deltaIn := int64(-1), map[uint8]int64{} // the seed's first values
	verify := func(s setting, o outcome) error {
		if o.err != nil {
			return o.err
		}
		if err := diffBags(truth, o.st); err != nil {
			return err
		}
		res, opts := o.res, s.options()
		in, seen := deltaIn[s.deltaClass()]
		switch {
		case res.Steps != len(path):
			return fmt.Errorf("%d steps, the oracle's path has %d blocks", res.Steps, len(path))
		case !opts.Chaining && (res.ChainedEdges != 0 || res.Job.ElementsChained != 0):
			return fmt.Errorf("chaining off, but %d edges and %d elements chained", res.ChainedEdges, res.Job.ElementsChained)
		case !opts.Templated() && (res.TemplateInstalls != 0 || res.TemplateInstantiations != 0):
			return fmt.Errorf("templates off, but %d installs and %d instantiations", res.TemplateInstalls, res.TemplateInstantiations)
		case !opts.Combiners && (res.CombineIn != 0 || res.CombineOut != 0):
			return fmt.Errorf("combiners off, but %d elements in and %d out", res.CombineIn, res.CombineOut)
		case changed >= 0 && res.DeltaChanged != changed:
			return fmt.Errorf("%d changed delta pairs, the seed's first run %d", res.DeltaChanged, changed)
		case hasDelta && res.DeltaIn == 0:
			return fmt.Errorf("the program has a deltaMerge, but no delta element flowed")
		case seen && res.DeltaIn != in:
			return fmt.Errorf("%d delta elements in, %d in an earlier run of the seed's delta class", res.DeltaIn, in)
		case res.Job.MailboxDropped != 0:
			return fmt.Errorf("%d envelopes dropped", res.Job.MailboxDropped)
		case res.Job.BytesSent != res.Job.BytesReceived:
			return fmt.Errorf("%d bytes sent, %d received", res.Job.BytesSent, res.Job.BytesReceived)
		}
		return nil
	}

	r := rand.New(rand.NewSource(seed))
	base := setting{seed: seed, machines: 1 + r.Intn(4)}
	if seed > 0 {
		base.off = uint8(r.Intn(1 << len(switches)))
	}
	rows, names := []setting{base, {seed, base.off, base.machines, true}}, []string{"sim", "tcp"}
	skip := [len(switches)]bool{
		seed%2 == 1, seed%2 == 0, // pipelining and hoisting take turns
		false, false,
		!base.on(0),                          // templates act only when pipelined
		!strings.Contains(src, "deltaMerge"), // delta acts only on a deltaMerge
	}
	for k := range switches {
		if skip[k] {
			continue
		}
		flip := base
		flip.off ^= 1 << k
		rows, names = append(rows, flip), append(names, "flip_"+switches[k])
	}
	// The TCP run's socket round trips overlap the sim runs, which take
	// turns on g: planning rewrites its analyses in place.
	outs, tcpDone := make([]outcome, len(rows)), make(chan struct{})
	go func() {
		defer close(tcpDone)
		outs[1] = run(rows[1])
	}()
	for i, s := range rows {
		if !s.tcp {
			outs[i] = run(s)
		}
	}
	<-tcpDone
	// The TCP workers compile the plan the sim run of the same setting ran:
	// same program, options and parallelism.
	outs[1].plan = outs[0].plan
	// Each row reports as its own subtest; the first failing row ends the
	// seed, since the rows after it compare against its counters.
	for i, s := range rows {
		passed := t.Run(names[i], func(t *testing.T) {
			if err := verify(s, outs[i]); err != nil {
				t.Errorf("%s: %v\nprogram:\n%s", s, err, src)
				t.Errorf("repro: %s", shrink(s, func(c setting) bool { return verify(c, run(c)) != nil }))
				return
			}
			res := outs[i].res
			if changed < 0 {
				changed = res.DeltaChanged
			}
			if _, seen := deltaIn[s.deltaClass()]; !seen {
				deltaIn[s.deltaClass()] = res.DeltaIn
			}
			fused, scratch, lent := stagesOf(outs[i].plan)
			chainedCond, unchainedCond := conditionsOf(outs[i].plan, s.options())
			for j, ok := range [reusedTable]bool{res.ChainedEdges > 0, res.TemplateInstalls > 0, res.CombineIn > 0, res.DeltaIn > 0, s.tcp, fused, scratch, lent,
				chainedCond && !s.tcp, chainedCond && s.tcp, unchainedCond && !s.tcp, unchainedCond && s.tcp, keyedForwardOf(outs[i].plan)} {
				if ok {
					saw[j].Store(true)
				}
			}
		})
		if !passed {
			return
		}
	}
}

// outcome is what one run left behind: its result, its store, or its error,
// and the plan it ran.
type outcome struct {
	res  *core.Result
	st   *store.MemStore
	plan *core.Plan
	err  error
}

// stagesOf reports whether plan (nil if it failed to compile) fused a stage
// into an operator, whether one of those stages runs on the scratch tuple, and
// whether an operator lends its output.
func stagesOf(plan *core.Plan) (fused, scratch, lent bool) {
	if plan == nil {
		return false, false, false
	}
	for _, op := range plan.Ops {
		lent = lent || op.Lends
		for _, st := range op.Stages {
			fused, scratch = true, scratch || st.Scratch
		}
	}
	return fused, scratch, lent
}

// conditionsOf reports whether plan (nil if it failed to compile), built
// with chaining on, has a condition in a chain and one that BuildChains
// left unchained.
func conditionsOf(plan *core.Plan, opts core.Options) (chained, unchained bool) {
	if plan == nil || !opts.Chaining {
		return false, false
	}
	for _, op := range plan.Ops {
		if op.IsCondition {
			chained, unchained = chained || op.Chain != 0, unchained || op.Chain == 0
		}
	}
	return chained, unchained
}

// keyedForwardOf reports whether plan (nil if it failed to compile) reads a
// join's, reduceByKey's or deltaMerge's input over a forward edge: the
// producer's output already sits by key, and the key shuffle was dropped.
func keyedForwardOf(plan *core.Plan) bool {
	if plan == nil {
		return false
	}
	for _, op := range plan.Ops {
		switch op.Instr.Kind {
		case ir.OpJoin, ir.OpReduceByKey, ir.OpDeltaMerge:
			for _, in := range op.Inputs {
				if op.Synth == core.SynthNone && in.Part == dataflow.PartForward {
					return true
				}
			}
		}
	}
	return false
}

// shrink reduces a failing setting: it turns each off switch back on, then
// lowers the machine count, then moves a TCP run to the sim, and keeps every
// change under which the run still fails.
func shrink(s setting, fails func(setting) bool) setting {
	try := func(c setting) bool {
		if !fails(c) {
			return false
		}
		s = c
		return true
	}
	for k := range switches {
		if !s.on(k) {
			c := s
			c.off &^= 1 << k
			try(c)
		}
	}
	for s.machines > 1 {
		c := s
		c.machines--
		if !try(c) {
			break
		}
	}
	if s.tcp {
		c := s
		c.tcp = false
		try(c)
	}
	return s
}

// TestShrink pins the shrinker's order on a TCP run at 4 machines with
// combiners and delta off: switches come back on first, machines go down
// next, the sim comes last, and each step stays only while the run fails.
func TestShrink(t *testing.T) {
	from := setting{seed: 7, off: 1<<2 | 1<<5, machines: 4, tcp: true}
	for _, c := range []struct {
		name  string
		fails func(setting) bool
		want  setting
	}{
		{"always", func(setting) bool { return true }, setting{seed: 7, machines: 1}},
		{"on_tcp", func(s setting) bool { return s.tcp }, setting{seed: 7, machines: 1, tcp: true}},
		{"combiners_off_from_3", func(s setting) bool { return !s.on(2) && s.machines >= 3 }, setting{seed: 7, off: 1 << 2, machines: 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := shrink(from, c.fails); got != c.want {
				t.Errorf("shrink(%s) = %s, want %s", from, got, c.want)
			}
		})
	}
}

// diffBags reports the first dataset in which got differs from want as a bag.
func diffBags(want, got *store.MemStore) error {
	wn, gn := want.Names(), got.Names()
	if !slices.Equal(wn, gn) {
		return fmt.Errorf("datasets %v, want %v", gn, wn)
	}
	for _, name := range wn {
		we, _ := want.ReadDataset(name)
		ge, _ := got.ReadDataset(name)
		if !bag.Equal(we, ge) {
			return fmt.Errorf("dataset %q is %v, want %v", name, bag.Sorted(ge), bag.Sorted(we))
		}
	}
	return nil
}
