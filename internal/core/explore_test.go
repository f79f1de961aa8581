package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// The interleaving explorer, at its first site: the two join hosts of Visit
// Count. A host's correctness argument is local — it computes the output bag
// at path position p from the input bags the path selects for p, in whatever
// order its links deliver them — and both transports promise only per-link
// FIFO. So the explorer records every message each join host instance
// receives in one real run, per link (input slot, producer instance), plus
// its control frames, and replays them into a fresh host behind a real event
// loop, with its parking, in many seeded interleavings that keep each link's
// order. Every replay's output bags, over all instances, must equal what the
// sequential interpreter computes, and every output bag must close once.

// exploreSrc is a tiny Visit Count whose two joins write their output bags:
// the hoisted pageTypes join every day, and the day-diff join on even days
// only, so that the bags of the odd days between its outputs are skipped —
// a parked one among them.
const exploreSrc = `pageTypes = readFile("pageTypes")
yesterdayCounts = empty()
day = 1
do {
  tagged = pageTypes.join(readFile("pageVisitLog" + day).map(x => (x, 1)))
  tagged.writeFile("tagged" + day)
  counts = tagged.filter(t => t.1 == "article").map(t => t.0).map(x => (x, 1)).reduceByKey((a, b) => a + b)
  if (day % 2 == 0) {
    dayJoin = counts.join(yesterdayCounts)
    dayJoin.writeFile("dayJoin" + day)
  }
  yesterdayCounts = counts
  day = day + 1
} while (day <= 5)
`

// exploreData writes 5 days of 24 visits over 9 pages and their types.
func exploreData(st store.Store) {
	r := rand.New(rand.NewSource(15))
	for day := 1; day <= 5; day++ {
		vs := make([]val.Value, 24)
		for i := range vs {
			vs[i] = val.Str(fmt.Sprintf("page%d", r.Intn(9)))
		}
		st.WriteDataset(fmt.Sprintf("pageVisitLog%d", day), vs)
	}
	types := make([]val.Value, 9)
	for i := range types {
		t := "article"
		if i%3 == 0 {
			t = "index"
		}
		types[i] = val.Pair(val.Str(fmt.Sprintf("page%d", i)), val.Str(t))
	}
	st.WriteDataset("pageTypes", types)
}

// logItem is one data or end-of-bag message of a link, in link order.
type logItem struct {
	eob   bool
	tag   dataflow.Tag
	elems []Element
}

type linkKey struct{ input, from int }

// hostLog is what one host instance received in the recorded run.
type hostLog struct {
	op    *PlanOp
	inst  int
	ctrl  []PathSegment
	links map[linkKey][]logItem
	bags  int64 // output bags the host closed
}

// recorder stands in for a join host in the recorded run: it logs each
// message and hands it on. Everything else, its gate included, is the
// host's.
type recorder struct {
	*host
	log *hostLog
}

func (r *recorder) OnBatch(input, from int, batch []Element) error {
	elems := make([]Element, len(batch))
	for i, e := range batch {
		if e.Val.Kind() == val.KindTuple {
			e.Val = val.Tuple(slices.Clone(e.Val.Fields())...) // its arena is recycled
		}
		elems[i] = e
	}
	k := linkKey{input, from}
	r.log.links[k] = append(r.log.links[k], logItem{tag: batch[0].Tag, elems: elems})
	return r.host.OnBatch(input, from, batch)
}

func (r *recorder) OnEOB(input, from int, tag dataflow.Tag) error {
	k := linkKey{input, from}
	r.log.links[k] = append(r.log.links[k], logItem{eob: true, tag: tag})
	return r.host.OnEOB(input, from, tag)
}

func (r *recorder) OnControl(ev any) error {
	if seg, ok := ev.(*PathSegment); ok {
		r.log.ctrl = append(r.log.ctrl, *seg)
	}
	return r.host.OnControl(ev)
}

func (r *recorder) Close() error {
	r.log.bags = r.host.bagsDone.Load()
	return r.host.Close()
}

// recordJoins runs plan on a simulated cluster as ExecutePlan does, with
// every join host instance recorded.
func recordJoins(t *testing.T, plan *Plan, st store.Store, opts Options, machines int) []*hostLog {
	t.Helper()
	cl, err := cluster.New(cluster.FastConfig(machines))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rt := &runtime{plan: plan, store: st, opts: opts}
	g := buildDataflowGraph(rt, plan)
	var logs []*hostLog
	for _, pop := range plan.Ops {
		if pop.Instr.Kind != ir.OpJoin {
			continue
		}
		op := g.Op(dataflow.OpID(pop.ID))
		mk := op.NewVertex
		for inst := 0; inst < pop.Par; inst++ {
			logs = append(logs, &hostLog{op: pop, inst: inst, links: map[linkKey][]logItem{}})
		}
		first := len(logs) - pop.Par
		op.NewVertex = func(inst int) dataflow.Vertex {
			return &recorder{host: mk(inst).(*host), log: logs[first+inst]}
		}
	}
	job, err := dataflow.NewJob(g, cl, opts.BatchSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(plan, opts, machines, &simControlPlane{cl: cl, job: job})
	rt.emit = co.OnEvent
	co.Seed()
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	return logs
}

// replayHost is the fresh host a replay drives. It notes the batches its gate
// refused, and counts those that, delivered at last, belong to a bag before
// the one the current output selected: parked, then skipped.
type replayHost struct {
	*host
	refused map[linkKey]bool // (input, tag)
	parked  int
	skipped int
	probes  int // refused while its slot waited, as a join's probe during the build
}

func (r *replayHost) Accepts(input int, tag dataflow.Tag) bool {
	ok := r.host.Accepts(input, tag)
	if !ok {
		r.parked++
		if r.cur.inPos[input] == int(tag) {
			r.probes++
		}
		r.refused[linkKey{input, int(tag)}] = true
	}
	return ok
}

func (r *replayHost) OnBatch(input, from int, batch []Element) error {
	if tag := int(batch[0].Tag); r.refused[linkKey{input, tag}] && r.cur != nil && r.cur.inPos[input] > tag {
		r.skipped++
	}
	return r.host.OnBatch(input, from, batch)
}

// replaySink is the replayed host's chained consumer: it keeps a copy of
// each output element by bag and counts end-of-bags, and closes done once it
// has them all.
type replaySink struct {
	out  map[int][]val.Value
	eobs map[int]int
	want int64
	done chan struct{}
}

func (s *replaySink) Open(*dataflow.Context) error { return nil }
func (s *replaySink) OnBatch(_, _ int, batch []Element) error {
	for _, e := range batch {
		v := e.Val
		if v.Kind() == val.KindTuple {
			v = val.Tuple(slices.Clone(v.Fields())...) // the host may lend it
		}
		s.out[int(e.Tag)] = append(s.out[int(e.Tag)], v)
	}
	return nil
}
func (s *replaySink) OnEOB(_, _ int, tag dataflow.Tag) error {
	s.eobs[int(tag)]++
	if len(s.eobs) == int(s.want) && s.eobs[int(tag)] == 1 {
		close(s.done)
	}
	return nil
}
func (s *replaySink) OnControl(any) error { return nil }
func (s *replaySink) Close() error        { return nil }

// replay feeds l into a fresh host behind a real event loop — idle stand-in
// producers with the recorded run's edges, and a chained sink — in the
// interleaving r draws: each step takes the next message of one stream (the
// control frames, or one link) with a probability by a per-stream weight
// drawn for this replay, so runs of one link ahead of another come up as
// often as fine mixes. It returns the sink and the host's completions by
// position.
func replay(t *testing.T, cl *cluster.Cluster, plan *Plan, l *hostLog, opts Options, r *rand.Rand, stats *replayHost) (*replaySink, map[int]int) {
	t.Helper()
	closes := map[int]int{}
	rt := &runtime{plan: plan, opts: opts, emit: func(ev CoordEvent) {
		if ev.Kind == EvCompletion {
			closes[ev.Pos]++
		}
	}}
	sink := &replaySink{out: map[int][]val.Value{}, eobs: map[int]int{}, want: l.bags, done: make(chan struct{})}
	rh := &replayHost{refused: map[linkKey]bool{}}
	var g dataflow.Graph
	for i, in := range l.op.Inputs {
		g.AddOp(fmt.Sprintf("in%d", i), in.Producer.Par, func(int) dataflow.Vertex { return &collector{} })
	}
	hop := g.AddOp(l.op.Instr.Var, l.op.Par, func(inst int) dataflow.Vertex {
		if inst != l.inst {
			return &collector{}
		}
		rh.host = newHost(rt, l.op, inst)
		return rh
	})
	for i, in := range l.op.Inputs {
		g.Connect(g.Op(dataflow.OpID(i)), hop, i, in.Part).InPlace = readsInPlace(l.op)
	}
	g.ConnectChained(hop, g.AddOp("sink", l.op.Par, func(inst int) dataflow.Vertex {
		if inst != l.inst {
			return &collector{}
		}
		return sink
	}), 0)
	job, err := dataflow.NewJob(&g, cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}

	keys := make([]linkKey, 0, len(l.links))
	for k := range l.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].input < keys[j].input || keys[i].input == keys[j].input && keys[i].from < keys[j].from
	})
	next := make([]int, len(keys)+1) // stream 0 is the control frames
	weight := make([]float64, len(keys)+1)
	for i := range weight {
		weight[i] = r.ExpFloat64()
	}
	left := len(l.ctrl)
	for _, k := range keys {
		left += len(l.links[k])
	}
	var slab val.Slab
	var frame []byte
	for ; left > 0; left-- {
		var total float64
		for s, w := range weight {
			if s == 0 && next[0] < len(l.ctrl) || s > 0 && next[s] < len(l.links[keys[s-1]]) {
				total += w
			}
		}
		x, s := r.Float64()*total, 0
		for ; ; s++ {
			if s == 0 && next[0] < len(l.ctrl) || s > 0 && next[s] < len(l.links[keys[s-1]]) {
				if x -= weight[s]; x < 0 {
					break
				}
			}
		}
		if s == len(weight) {
			s-- // rounding: the last open stream
			for s > 0 && next[s] >= len(l.links[keys[s-1]]) {
				s--
			}
		}
		i := next[s]
		next[s]++
		if s == 0 {
			job.Broadcast(&l.ctrl[i])
			continue
		}
		k, it := keys[s-1], l.links[keys[s-1]][i]
		h := dataflow.RemoteHeader{Op: hop.ID, Inst: l.inst, Input: k.input, From: k.from}
		if it.eob {
			err = job.DeliverEOB(h, it.tag, nil)
		} else {
			frame = frame[:0]
			for _, e := range it.elems {
				frame = val.AppendBinary(binary.AppendVarint(frame, int64(e.Tag)), e.Val)
			}
			err = job.DeliverData(h, frame, len(it.elems), &slab, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-sink.done:
	case <-time.After(10 * time.Second):
		job.Stop(fmt.Errorf("replay stalled"))
		job.Wait()
		t.Fatalf("%s[%d]: replay stalled with %d of %d output bags closed: a parked batch was never offered again", l.op.Instr.Var, l.inst, len(sink.eobs), l.bags)
	}
	job.Stop(nil)
	if err := job.Wait(); err != nil {
		t.Fatalf("%s[%d]: %v", l.op.Instr.Var, l.inst, err)
	}
	stats.parked += rh.parked
	stats.skipped += rh.skipped
	stats.probes += rh.probes
	return sink, closes
}

// TestExploreJoinInterleavings is the explorer's gate on the parking loop at
// Visit Count's two joins: 1 000 seeds (200 under -short), each replaying
// every instance of both joins in its own interleaving, with every recycled
// arena slot poisoned. Each seed's output bags, over the instances, equal the
// sequential interpreter's per day; each bag closes once per instance; and
// over the seeds the replays park probes during a build, and park bags the
// next output then skips.
func TestExploreJoinInterleavings(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	poison := val.Str("arena poisoned")
	dataflow.SetArenaHook(func(_ string, _, _ bool, slots []val.Value) {
		for i := range slots {
			slots[i] = poison
		}
	})
	defer dataflow.SetArenaHook(nil)

	want := store.NewMemStore()
	exploreData(want)
	prog, err := lang.Parse(exploreSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.RunAST(prog, want); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Chaining = false // every join input then crosses a mailbox, where parking happens
	opts.BatchSize = 4    // several batches per link
	const machines = 2
	plan, err := Compile(compile(t, exploreSrc), machines, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMemStore()
	exploreData(st)
	logs := recordJoins(t, plan, st, opts, machines)
	diffStores(t, want, st)
	if len(logs) != 2*machines {
		t.Fatalf("recorded %d join host instances, want %d", len(logs), 2*machines)
	}

	cl, err := cluster.New(cluster.FastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var stats replayHost
	var replays atomic.Int64
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		outs := map[*PlanOp]map[int][]val.Value{}
		for _, l := range logs {
			sink, closes := replay(t, cl, plan, l, opts, r, &stats)
			replays.Add(1)
			for pos, n := range sink.eobs {
				if n != 1 || closes[pos] != 1 {
					t.Fatalf("seed %d: %s[%d]: bag %d closed %d times and completed %d times, want once", seed, l.op.Instr.Var, l.inst, pos, n, closes[pos])
				}
			}
			if outs[l.op] == nil {
				outs[l.op] = map[int][]val.Value{}
			}
			for pos := range sink.eobs {
				outs[l.op][pos] = append(outs[l.op][pos], sink.out[pos]...)
			}
		}
		for op, byPos := range outs {
			checkDays(t, seed, op, byPos, want)
		}
	}
	t.Logf("%d replays: %d batches parked, %d of them probes during a build, %d parked then skipped", replays.Load(), stats.parked, stats.probes, stats.skipped)
	if stats.probes == 0 {
		t.Error("no replay parked a probe during its build")
	}
	if stats.skipped == 0 {
		t.Error("no replay parked a bag the next output skipped")
	}
}

// checkDays compares a join's output bags, in path order, with the datasets
// the sequential run wrote for it: "tagged<day>" every day, "dayJoin<day>"
// on even days.
func checkDays(t *testing.T, seed int, op *PlanOp, byPos map[int][]val.Value, want *store.MemStore) {
	t.Helper()
	positions := make([]int, 0, len(byPos))
	for pos := range byPos {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	name, day, step := "tagged", 1, 1
	if len(positions) == 2 {
		name, day, step = "dayJoin", 2, 2
	}
	if len(positions) != 5/step {
		t.Fatalf("seed %d: %s produced %d bags at %v", seed, op.Instr.Var, len(positions), positions)
	}
	for _, pos := range positions {
		w, err := want.ReadDataset(fmt.Sprintf("%s%d", name, day))
		if err != nil {
			t.Fatal(err)
		}
		if got := byPos[pos]; !bag.Equal(got, w) {
			t.Fatalf("seed %d: %s bag at %d (day %d) = %v, want %v", seed, op.Instr.Var, pos, day, bag.Sorted(got), bag.Sorted(w))
		}
		day += step
	}
}
