package dataflow

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/obs/lineage"
	"github.com/mitos-project/mitos/internal/val"
)

// DefaultBatchSize is the number of elements buffered per (edge, receiver)
// before a batch is shipped. Small enough to keep transfers pipelined,
// large enough to amortize per-batch costs.
const DefaultBatchSize = 128

// Remote ships a job's frames to instances placed on other machines — the
// one seam every cross-machine edge goes through. The TCP cluster backend
// implements it on top of its peer mesh; the simulated cluster's is the
// in-process loopback (transport.go). Either way the far side injects the
// frame with Job.DeliverData / DeliverEOB. Implementations take ownership
// of payload, which comes from the val scratch pool — return it with
// val.PutScratch once the bytes are on the wire (or decoded).
type Remote interface {
	// SendData ships one serialized batch to machine dest.
	SendData(dest int, h RemoteHeader, payload []byte, count int)
	// SendEOB ships one end-of-bag marker to machine dest.
	SendEOB(dest int, h RemoteHeader, tag Tag)
}

// RemoteHeader addresses one frame of a partitioned job: the consuming
// operator and instance, the input slot, and the producing instance index.
type RemoteHeader struct {
	Op    OpID
	Inst  int
	Input int
	From  int
}

// Job is a running (or runnable) physical dataflow. Build the logical
// Graph, then NewJob, Start, optionally Broadcast control events, and Wait.
//
// A job is either whole (NewJob: every instance hosted in this process,
// cross-machine edges through the loopback Remote) or partitioned
// (NewPartitionedJob: only one machine's instances hosted, cross-machine
// edges through the caller's Remote).
type Job struct {
	graph     *Graph
	machines  int
	self      int    // hosted machine of a partitioned job; -1 when whole
	remote    Remote // may be nil when machines == 1: nothing is ever remote
	batchSize int
	obs       *obs.Observer

	insts [][]*instance // [op][instance]
	// tr is the remote of a whole job, which the job also owns: Start
	// launches it, a clean Stop drains it by closing it, Wait closes it
	// after a failure.
	tr *loopback

	// free holds the batch buffers and arenas the job draws and recycles:
	// own unless UseFreeLists lent it a caller's lists, which outlive the
	// job.
	free *FreeLists
	own  FreeLists

	wg      sync.WaitGroup
	stopped atomic.Bool
	// err holds the first failure. Atomic because a partition that hosts no
	// instance has no event loop for Wait to synchronize with: its Wait can
	// return while another goroutine is still in Stop(err).
	err        atomic.Pointer[error]
	finishOnce sync.Once

	// bcast caches the chain-driver instances Broadcast fans out to, so
	// the per-step control hot path walks a flat slice instead of the
	// nested instance table.
	bcast []*instance

	elementsSent    atomic.Int64
	elementsChained atomic.Int64
	batchesSent     atomic.Int64
	remoteBatches   atomic.Int64
	bytesSent       atomic.Int64
	bytesReceived   atomic.Int64
	mailboxDropped  atomic.Int64
	ctrlMessages    atomic.Int64
	ctrlBytes       atomic.Int64
}

// ControlSizer lets control events report their encoded control-frame
// size, feeding the job's ctrl_bytes counter. Events without it count
// messages only.
type ControlSizer interface {
	CtrlSize() int
}

// ControlWaker is an optional Vertex refinement: WantsControlWake reports
// whether a control event can make the vertex runnable right now. Events
// it declines are still enqueued in order but do not wake the instance's
// event loop — it ingests them at its next wake — which keeps a broadcast
// from context-switching through every instance that has nothing to do
// with it. A vertex without the interface is always woken.
type ControlWaker interface {
	WantsControlWake(ev any) bool
}

// JobStats reports transfer counters for the experiment harness.
type JobStats struct {
	ElementsSent int64
	// ElementsChained counts emitted elements that crossed a chained edge
	// by direct call instead of a mailbox batch (see chain.go), once each
	// however many chained edges they took. These are included in
	// ElementsSent but never in BatchesSent.
	ElementsChained int64
	BatchesSent     int64
	RemoteBatches   int64
	// BytesSent and BytesReceived are the encoded sizes of remote batches
	// as serialized through the val codec — measured on the wire format,
	// not estimated. They agree after a clean run.
	BytesSent     int64
	BytesReceived int64
	// MailboxDropped counts envelopes delivered to already-closed
	// mailboxes, and frames the loopback refused after it closed (finalized
	// by Wait). Zero on a clean run; nonzero values expose shutdown races
	// that used to be silent.
	MailboxDropped int64
	// CtrlMessages counts control envelopes enqueued (broadcast fan-out
	// plus targeted sends); CtrlBytes sums their encoded control-frame
	// sizes for events that implement ControlSizer.
	CtrlMessages int64
	CtrlBytes    int64
}

// NewJob plans the physical execution of g on cl. batchSize <= 0 selects
// DefaultBatchSize.
func NewJob(g *Graph, cl *cluster.Cluster, batchSize int) (*Job, error) {
	tr := newLoopback(cl)
	j, err := newJob(g, cl.Machines(), -1, batchSize, tr)
	if err == nil {
		j.tr = tr
	}
	return j, err
}

// NewPartitionedJob plans machine self's share of g for a multi-process
// cluster of the given size: only instances placed on self (instance index
// mod machines, the same placement NewJob uses through cluster.Place) get
// a vertex, a mailbox, and an event-loop goroutine. Edges to instances on
// other machines route outbound through remote; inbound frames are
// injected with DeliverData and DeliverEOB. The same graph built with the
// same parameters on every machine yields consistent routing everywhere.
func NewPartitionedJob(g *Graph, machines, self int, batchSize int, remote Remote) (*Job, error) {
	if machines < 1 || self < 0 || self >= machines {
		return nil, fmt.Errorf("dataflow: partitioned job machine %d of %d out of range", self, machines)
	}
	if remote == nil && machines > 1 {
		return nil, fmt.Errorf("dataflow: partitioned job over %d machines needs a Remote", machines)
	}
	return newJob(g, machines, self, batchSize, remote)
}

func newJob(g *Graph, machines, self int, batchSize int, remote Remote) (*Job, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	j := &Job{graph: g, machines: machines, self: self, remote: remote, batchSize: batchSize}
	j.free = &j.own
	// Create instances. Each gets a job-unique lane, the trace thread ID.
	j.insts = make([][]*instance, len(g.ops))
	lane := 0
	for _, op := range g.ops {
		insts := make([]*instance, op.Parallelism)
		for i := range insts {
			insts[i] = &instance{
				job:     j,
				op:      op,
				idx:     i,
				machine: i % machines,
				lane:    lane,
			}
			insts[i].driver = insts[i]
			lane++
		}
		j.insts[op.ID] = insts
	}
	// Group chained operators into chained physical vertices: instance i of
	// every member shares instance i of the chain head — the driver — which
	// alone owns a mailbox and an event-loop goroutine (see chain.go).
	for _, comp := range chainComponents(g) {
		for i := 0; i < g.ops[comp[0]].Parallelism; i++ {
			drv := j.insts[comp[0]][i]
			drv.members = make([]*instance, len(comp))
			for k, id := range comp {
				m := j.insts[id][i]
				m.driver = drv
				drv.members[k] = m
			}
		}
	}
	for _, insts := range j.insts {
		for _, in := range insts {
			if in.driver != in {
				continue
			}
			// Partitioned jobs host only their own machine's instances:
			// instances placed elsewhere get no mailbox (and later no vertex
			// or goroutine) — they exist only as routing targets. Chained
			// members always share their driver's machine, so a chain is
			// hosted or skipped whole.
			if !j.local(in) {
				continue
			}
			in.mbox = NewQueue[envelope]()
			if in.members == nil {
				in.members = []*instance{in}
			}
			j.bcast = append(j.bcast, in)
		}
	}
	// Wire physical out-edges.
	for _, op := range g.ops {
		for _, e := range op.ins {
			fromInsts := j.insts[e.From]
			toInsts := j.insts[e.To]
			for _, fi := range fromInsts {
				fi.outs = append(fi.outs, &outEdge{
					part:    e.Part,
					input:   e.Input,
					direct:  e.Chained,
					inPlace: e.InPlace,
					targets: toInsts,
					bufs:    make([]pending, len(toInsts)),
				})
				fi.chainsOut = fi.chainsOut || e.Chained
			}
			// Record producer count per input slot for the consumer side.
			for _, ti := range toInsts {
				ti.ensureInputs(e.Input + 1)
				slot := &ti.inputs[e.Input]
				slot.inPlace = e.InPlace
				if e.Part == PartForward {
					slot.producers = 1
				} else {
					slot.producers = len(fromInsts)
				}
			}
		}
	}
	return j, nil
}

// local reports whether in is hosted by this process: always on whole
// jobs, only for instances placed on self on partitioned jobs.
func (j *Job) local(in *instance) bool {
	return j.self < 0 || in.machine == j.self
}

// Observe attaches an observer to the job. Must be called before Start.
// A nil observer (the default) keeps all instrumentation disabled at the
// cost of one pointer check per recording site.
func (j *Job) Observe(o *obs.Observer) {
	j.obs = o
	if o == nil {
		return
	}
	reg, trc := o.Reg(), o.Trc()
	for m := 0; m < j.machines; m++ {
		trc.NameProcess(m, fmt.Sprintf("machine %d", m))
	}
	for _, insts := range j.insts {
		for _, in := range insts {
			if !j.local(in) {
				continue // a partitioned job reports only its own instances
			}
			name := in.op.Name
			in.trc = trc
			in.lin = o.Lin()
			in.elemsIn = reg.Counter(in.machine, name, "elements_in")
			in.elemsOut = reg.Counter(in.machine, name, "elements_out")
			in.elemsChained = reg.Counter(in.machine, name, "elements_chained")
			in.batchesIn = reg.Counter(in.machine, name, "batches_in")
			in.batchesOut = reg.Counter(in.machine, name, "batches_out")
			in.remoteOut = reg.Counter(in.machine, name, "remote_batches_out")
			in.bytesOut = reg.Counter(in.machine, name, "bytes_sent")
			in.bytesIn = reg.Counter(in.machine, name, "bytes_received")
			in.ctrlIn = reg.Counter(in.machine, name, "ctrl_events_in")
			in.mboxHWM = reg.Gauge(in.machine, name, "mailbox_hwm")
			in.mboxDropped = reg.Counter(in.machine, name, "mailbox_dropped")
			trc.NameThread(in.machine, in.lane, fmt.Sprintf("%s[%d]", name, in.idx))
		}
	}
}

// Observer returns the job's observer (nil when observability is off).
func (j *Job) Observer() *obs.Observer { return j.obs }

// Stats returns a snapshot of the job's transfer counters. The element
// counts are folded in per bag (instance.foldCounts): exact once the job is
// done, behind by at most each instance's current bag while it runs.
// MailboxDropped is finalized by Wait.
func (j *Job) Stats() JobStats {
	return JobStats{
		ElementsSent:    j.elementsSent.Load(),
		ElementsChained: j.elementsChained.Load(),
		BatchesSent:     j.batchesSent.Load(),
		RemoteBatches:   j.remoteBatches.Load(),
		BytesSent:       j.bytesSent.Load(),
		BytesReceived:   j.bytesReceived.Load(),
		MailboxDropped:  j.mailboxDropped.Load(),
		CtrlMessages:    j.ctrlMessages.Load(),
		CtrlBytes:       j.ctrlBytes.Load(),
	}
}

// Start opens every vertex and launches the instance event loops.
func (j *Job) Start() error {
	// Open all vertices synchronously so a Broadcast immediately after
	// Start reaches every instance.
	for _, insts := range j.insts {
		for _, in := range insts {
			if !j.local(in) {
				continue
			}
			in.vertex = in.op.NewVertex(in.idx)
			if in.vertex == nil {
				return fmt.Errorf("dataflow: op %s instance %d: nil vertex", in.op.Name, in.idx)
			}
			in.ctx = &Context{inst: in}
			if err := in.vertex.Open(in.ctx); err != nil {
				return fmt.Errorf("dataflow: open %s[%d]: %w", in.op.Name, in.idx, err)
			}
		}
	}
	for _, in := range j.bcast {
		wakers := make([]ControlWaker, 0, len(in.members))
		for _, m := range in.members {
			w, ok := m.vertex.(ControlWaker)
			if !ok {
				wakers = nil
				break
			}
			wakers = append(wakers, w)
		}
		in.wakers = wakers
	}
	if j.tr != nil {
		j.tr.start(j)
	}
	for _, insts := range j.insts {
		for _, in := range insts {
			if in.driver != in || in.mbox == nil {
				continue // chain members run on their driver's goroutine; non-local instances nowhere
			}
			j.wg.Add(1)
			go in.loop()
		}
	}
	return nil
}

// Broadcast delivers a control event to every vertex (in mailbox order
// relative to data). The Mitos control-flow managers use it for
// execution-path updates. Chained instances receive it through their chain
// driver — one envelope per chain, fanned out to the members in reverse
// chain order, consumers before their producers — so a chain costs one
// enqueue instead of one per member.
func (j *Job) Broadcast(ev any) {
	n := int64(len(j.bcast))
	j.ctrlMessages.Add(n)
	if sz, ok := ev.(ControlSizer); ok {
		j.ctrlBytes.Add(n * int64(sz.CtrlSize()))
	}
	for _, in := range j.bcast {
		wake := in.wakers == nil
		for _, w := range in.wakers {
			if w.WantsControlWake(ev) {
				wake = true
				break
			}
		}
		if wake {
			in.mbox.Put(envelope{kind: envControl, ctrl: ev})
		} else {
			in.mbox.PutQuiet(envelope{kind: envControl, ctrl: ev})
		}
	}
}

// DeliverData injects one remote data frame into the job: the
// payload (count elements, each an appendElement encoding) is decoded into a
// pooled batch and enqueued on the target's mailbox. The elements' strings,
// nested tuples and, on any input that is not in place, top-level tuples are
// carved from slab, which belongs to the calling goroutine — a link delivers
// from one goroutine and keeps one slab for its lifetime; nil allocates each
// on its own. On an in-place input (EdgeDecl.InPlace) the top-level tuples
// are lent from the batch's arena instead, which the job reuses once the
// vertex returns unless it retained the batch (Vertex.OnBatch). ack, if
// non-nil, runs after the batch has been fully processed by the receiving
// vertex (or immediately if the mailbox is already closed) — the TCP backend
// returns a flow-control credit from it. A decode or addressing error fails
// the job and is returned.
func (j *Job) DeliverData(h RemoteHeader, payload []byte, count int, slab *val.Slab, ack func()) error {
	tgt, err := j.remoteTarget(h)
	if err != nil {
		return j.reject(err, ack)
	}
	env := envelope{kind: envData, input: h.Input, from: h.From, dest: tgt, ack: ack, remote: true}
	var arena *[]val.Value
	if tgt.inPlace(h.Input) {
		env.arena = j.getArena()
		arena = &env.arena
	}
	env.batch, err = decodeBatch(j.getBatch(), payload, count, slab, arena)
	if err != nil {
		j.recycle(&env, false)
		return j.reject(fmt.Errorf("dataflow: remote frame for %s[%d]: %w", tgt.op.Name, tgt.idx, err), ack)
	}
	n := int64(len(payload))
	j.bytesReceived.Add(n)
	tgt.bytesIn.Add(n)
	if !tgt.driver.mbox.Put(env) && ack != nil {
		ack()
	}
	return nil
}

// DeliverEOB injects one remote end-of-bag marker into the job.
// ack follows the same contract as in DeliverData.
func (j *Job) DeliverEOB(h RemoteHeader, tag Tag, ack func()) error {
	tgt, err := j.remoteTarget(h)
	if err != nil {
		return j.reject(err, ack)
	}
	if !tgt.driver.mbox.Put(envelope{kind: envEOB, input: h.Input, from: h.From, tag: tag, dest: tgt, ack: ack}) && ack != nil {
		ack()
	}
	return nil
}

// reject fails the job over an undeliverable remote frame, releasing the
// frame's ack first so the sender's flow-control credit is not stranded.
func (j *Job) reject(err error, ack func()) error {
	if ack != nil {
		ack()
	}
	j.fail(err)
	return err
}

// remoteTarget resolves and validates the addressee of an inbound frame.
func (j *Job) remoteTarget(h RemoteHeader) (*instance, error) {
	if int(h.Op) < 0 || int(h.Op) >= len(j.insts) || h.Inst < 0 || h.Inst >= len(j.insts[h.Op]) {
		return nil, fmt.Errorf("dataflow: remote frame for unknown instance: op %d instance %d", h.Op, h.Inst)
	}
	tgt := j.insts[h.Op][h.Inst]
	if !j.local(tgt) || tgt.driver.mbox == nil {
		return nil, fmt.Errorf("dataflow: remote frame for %s[%d] on machine %d, not hosted by machine %d",
			tgt.op.Name, h.Inst, tgt.machine, j.self)
	}
	return tgt, nil
}

// Stop ends the job. Pending mailbox contents are still delivered before
// vertices close. err records the reason (nil for normal completion); a
// Stop after the job already stopped is a no-op, so a late non-nil err
// cannot turn a completed run into a failed one.
func (j *Job) Stop(err error) {
	j.stop(err, err == nil)
}

func (j *Job) stop(err error, drain bool) {
	if !j.stopped.CompareAndSwap(false, true) {
		return
	}
	if err != nil {
		j.err.CompareAndSwap(nil, &err)
	}
	// On a clean stop, close the loopback first: its sender goroutines
	// deliver every frame still crossing the simulated network before the
	// mailboxes close, since those frames carry data/EOBs consumers may
	// still buffer (e.g. trailing EOBs broadcast past a consumer's last
	// output). On failure, close the mailboxes at once — drops are then
	// counted, not silent.
	if drain && j.tr != nil {
		j.tr.close()
	}
	for _, insts := range j.insts {
		for _, in := range insts {
			if in.mbox != nil {
				in.mbox.Close()
			}
		}
	}
}

// fail records the first error and stops the job without draining the
// transport.
func (j *Job) fail(err error) {
	j.err.CompareAndSwap(nil, &err)
	j.stop(nil, false)
}

// Wait blocks until all instance loops have exited, shuts down the
// transport, finalizes the drop counters, and returns the first error (nil
// for clean completion).
func (j *Job) Wait() error {
	j.wg.Wait()
	j.finishOnce.Do(func() {
		if j.tr != nil {
			j.tr.close()
			j.mailboxDropped.Add(j.tr.refused())
		}
		for _, insts := range j.insts {
			for _, in := range insts {
				if in.mbox == nil {
					continue // chain member: drops land on the driver's mailbox
				}
				if d := in.mbox.Dropped(); d > 0 {
					j.mailboxDropped.Add(d)
					in.mboxDropped.Add(d)
				}
			}
		}
	})
	if err := j.err.Load(); err != nil {
		return *err
	}
	return nil
}

// FreeLists recycles batch buffers and their arenas: a local batch moves to
// the receiver and comes back through Job.recycle, and a decoded remote frame
// is drawn from it, so the emit path stays allocation-free in steady state.
// (A remote target never holds a batch: its frame is encoded as each element
// is emitted.) A batch bound for an in-place input (EdgeDecl.InPlace) also
// draws an arena, which its element tuples are built in, and recycle returns
// the two together.
//
// Every job has lists of its own. A caller that runs jobs one after another
// keeps a FreeLists and lends it to each (Job.UseFreeLists), so a job starts
// from the buffers the jobs before it recycled instead of allocating its
// whole in-flight working set again; jobs that run at once share it under its
// mutex. Its keeper owns what idles in it — at most batchKeepMax batches and
// batchKeepMax arenas of DefaultBatchSize, about 2.6 MB — so a FreeLists
// belongs to an object that outlives its jobs, never to a package variable.
// The zero value is empty lists.
//
// A plain mutex-guarded stack, not a sync.Pool: pooling a slice by value
// boxes a fresh header on every Put, which made the pool itself the
// allocation it was supposed to remove, and a pool is process-global.
type FreeLists struct {
	mu          sync.Mutex
	freeBatches [][]Element
	freeArenas  [][]val.Value
}

// UseFreeLists makes the job draw its batch buffers and arenas from fl and
// recycle them into it instead of into lists of its own. Call it before
// Start and before any frame is delivered. A nil fl, or a job whose batch
// size is not DefaultBatchSize — the size of every buffer a FreeLists keeps —
// keeps its own lists.
func (j *Job) UseFreeLists(fl *FreeLists) {
	if fl != nil && j.batchSize == DefaultBatchSize {
		j.free = fl
	}
}

// batchKeepMax bounds each free list; anything past it goes back to the
// collector.
const batchKeepMax = 256

// arenaWidth is the Values a batch arena holds per batch element: a pair
// each, the element of every keyed reader. A wider tuple takes what is left
// and, once the arena is full, is carved from the slab.
const arenaWidth = 2

// freeListHook, when a test sets it, sees every draw from a job's free
// lists: whether UseFreeLists lent them, whether the draw was an arena or a
// batch, and whether the list was empty, so that the draw allocated.
var freeListHook func(lent, arena, miss bool)

// SetFreeListHook installs fn as freeListHook, for tests outside this
// package; nil removes it. Not safe while a job runs.
func SetFreeListHook(fn func(lent, arena, miss bool)) { freeListHook = fn }

// getBatch returns an empty batch buffer at full batch capacity, reusing a
// recycled one when available.
func (j *Job) getBatch() []Element {
	fl := j.free
	var b []Element
	fl.mu.Lock()
	if n := len(fl.freeBatches); n > 0 {
		b = fl.freeBatches[n-1]
		fl.freeBatches[n-1] = nil
		fl.freeBatches = fl.freeBatches[:n-1]
	}
	fl.mu.Unlock()
	if freeListHook != nil {
		freeListHook(fl != &j.own, false, b == nil)
	}
	if b == nil {
		b = make([]Element, 0, j.batchSize)
	}
	return b
}

// getArena returns an empty batch arena, reusing a recycled one when
// available.
func (j *Job) getArena() []val.Value {
	fl := j.free
	var a []val.Value
	fl.mu.Lock()
	if n := len(fl.freeArenas); n > 0 {
		a = fl.freeArenas[n-1]
		fl.freeArenas[n-1] = nil
		fl.freeArenas = fl.freeArenas[:n-1]
	}
	fl.mu.Unlock()
	if freeListHook != nil {
		freeListHook(fl != &j.own, true, a == nil)
	}
	if a == nil {
		a = make([]val.Value, 0, arenaWidth*j.batchSize)
	}
	return a
}

// arenaHook, when a test sets it, sees every batch that had an arena once
// its vertex returned: the operator it was addressed to, whether it came in
// a remote frame, whether the vertex retained it, and, unless it did, the
// arena's used slots, which the hook may overwrite — it then stands in for
// the clear that releases their references. It may be called from many
// goroutines at once.
var arenaHook func(op string, remote, retained bool, slots []val.Value)

// SetArenaHook installs fn as arenaHook, for tests outside this package; nil
// removes it. Not safe while a job runs.
func SetArenaHook(fn func(op string, remote, retained bool, slots []val.Value)) { arenaHook = fn }

// recycle clears a delivered envelope's batch and returns its buffer to the
// job's free lists, which the jobs after it may draw from (UseFreeLists), and
// its arena with it unless the receiving vertex retained the batch: a
// retained arena holds tuples the vertex keeps, and goes to the collector
// with the last of them. This is the one place an arena's slots are reused.
// Undersized buffers (from historic or foreign allocations) are left to the
// garbage collector so every pooled entry keeps full capacity.
//
// Invariant: a pooled buffer or arena is zero beyond its length — it is
// fresh from make, written only by append (or, an arena, by growing over the
// fields it fills), and cleared here over the length it is returned with. So
// clearing b[:len(b)] releases every value reference, and a one-element
// batch (every batch of a control-only loop) does not pay for clearing 128.
// A caller must therefore pass the slices at the length they were filled
// to, never a shorter re-slice.
func (j *Job) recycle(env *envelope, retained bool) {
	b, a := env.batch, env.arena
	if retained {
		a = nil
	}
	if arenaHook != nil && env.arena != nil {
		arenaHook(env.dest.op.Name, env.remote, retained, a)
	} else {
		clear(a)
	}
	keepB, keepA := cap(b) >= j.batchSize, cap(a) >= arenaWidth*j.batchSize
	if !keepB && !keepA {
		return
	}
	clear(b)
	fl := j.free
	fl.mu.Lock()
	if keepB && len(fl.freeBatches) < batchKeepMax {
		fl.freeBatches = append(fl.freeBatches, b[:0])
	}
	if keepA && len(fl.freeArenas) < batchKeepMax {
		fl.freeArenas = append(fl.freeArenas, a[:0])
	}
	fl.mu.Unlock()
}

type envKind uint8

const (
	envData envKind = iota
	envEOB
	envControl
)

// envelope is one entry of an instance's mailbox.
type envelope struct {
	kind envKind
	// remote marks a data envelope decoded from a remote frame.
	remote bool
	input  int
	from   int
	batch  []Element
	// arena is where the batch's top-level tuples live when it is bound for
	// an in-place input (EdgeDecl.InPlace); nil otherwise.
	arena []val.Value
	tag   Tag
	ctrl  any
	// dest is the member instance a data or EOB envelope is addressed to:
	// chained instances share the chain driver's mailbox, so the driver
	// dispatches on dest. Control envelopes carry none; they go to every
	// member of the chain (Job.Broadcast).
	dest *instance
	// ack, when non-nil, runs once the envelope has been processed by the
	// receiving vertex — or at once if the mailbox refuses it, so a remote
	// sender's flow-control credit is never stranded by shutdown
	// (DeliverData, DeliverEOB).
	ack func()
}

// instance is one physical operator instance. Chained instances with equal
// index form one chained physical vertex: the head — the driver — owns the
// mailbox and the event-loop goroutine; the other members execute inside
// the driver's loop (external envelopes dispatched on envelope.dest) or
// in-stack (chained-edge elements delivered by direct call from Emit).
type instance struct {
	job     *Job
	op      *Op
	idx     int
	machine int
	lane    int              // job-unique trace thread ID
	mbox    *Queue[envelope] // nil for chain members that are not the driver
	vertex  Vertex
	ctx     *Context

	driver  *instance   // chain driver; the instance itself when unchained
	members []*instance // driver only: chain members in topological order (driver first)
	// wakers holds every member's ControlWaker when all members implement
	// it (driver only, set in Start); nil means broadcasts always wake.
	wakers []ControlWaker

	outs   []*outEdge
	inputs []inputSlot
	// retained is set by Context.RetainBatch while the instance's OnBatch
	// runs on a mailbox batch: the vertex kept one of the batch's elements.
	retained bool
	// chainsOut marks an instance with a chained out-edge: a forward edge
	// delivers every element, so each one it emits is chained.
	chainsOut bool

	// sent and received count this instance's emitted and received elements
	// since the last foldCounts. Plain fields: only the chain driver's
	// goroutine runs the instance, and one atomic add per element — into the
	// job's totals or into an observer counter — was a cache line every
	// machine's goroutines fought over.
	sent, received int64

	// Observability handles; nil (and therefore no-ops) unless Job.Observe
	// was called.
	trc          *obs.Tracer
	lin          *lineage.Tracker
	elemsIn      *obs.Counter
	elemsOut     *obs.Counter
	elemsChained *obs.Counter
	batchesIn    *obs.Counter
	batchesOut   *obs.Counter
	remoteOut    *obs.Counter
	bytesOut     *obs.Counter
	bytesIn      *obs.Counter
	ctrlIn       *obs.Counter
	mboxHWM      *obs.Gauge
	mboxDropped  *obs.Counter
}

// foldCounts moves the per-instance element counts into the job's totals
// and the observer's elements_out, elements_chained and elements_in. It runs
// at every end-of-bag and when the event loop exits, so Stats and the
// counters are exact once the job is done and a live reading lags by at
// most one bag.
func (in *instance) foldCounts() {
	if in.sent != 0 {
		in.job.elementsSent.Add(in.sent)
		in.elemsOut.Add(in.sent)
		if in.chainsOut {
			in.job.elementsChained.Add(in.sent)
			in.elemsChained.Add(in.sent)
		}
		in.sent = 0
	}
	if in.received != 0 {
		in.elemsIn.Add(in.received)
		in.received = 0
	}
}

// inputSlot is what an instance knows of one of its input slots.
type inputSlot struct {
	producers int  // physical producer instances feeding the slot
	inPlace   bool // the edge is in place (EdgeDecl.InPlace)
}

// inPlace reports whether input slot i is in place (EdgeDecl.InPlace); a
// slot the instance does not have is not.
func (in *instance) inPlace(i int) bool {
	return i >= 0 && i < len(in.inputs) && in.inputs[i].inPlace
}

func (in *instance) ensureInputs(n int) {
	for len(in.inputs) < n {
		in.inputs = append(in.inputs, inputSlot{})
	}
}

type outEdge struct {
	part    Partitioning
	input   int
	direct  bool // chained edge: deliver by direct call, bypassing batching
	inPlace bool // EdgeDecl.InPlace: a local batch builds lent copies in its arena
	targets []*instance
	bufs    []pending // per target; unused on a direct edge
	// scratch is the reused one-element batch of a direct edge. The Vertex
	// contract (OnBatch must not retain the slice) makes reuse safe, and it
	// must never enter the batch pool — at batch size 1 a pooled scratch
	// would alias a live emit buffer.
	scratch [1]Element
	// depth counts buffered-but-unflushed elements on this edge; nil (and
	// therefore unmaintained, one pointer check per element) unless
	// Job.EnableIntrospection was called.
	depth *atomic.Int64
}

// pending is what an edge holds for one target between flushes. A target on
// this machine gets a batch of elements, which moves to its mailbox at flush.
// A target on another machine gets a frame, encoded as each element is
// emitted (appendElement), so it never holds an element: a producer may
// reuse the tuple it emitted the moment Emit returns.
type pending struct {
	batch   []Element   // local target
	arena   []val.Value // local target on an in-place edge: where lent copies are built
	payload []byte      // remote target: the encoded elements, from the val scratch pool
	count   int         // remote target: the elements in payload
	tag     Tag         // remote target: the first element's tag
}

// loop is the event loop of a chain driver (every unchained instance is a
// one-member chain driving itself). External envelopes carry the member
// they are addressed to in dest; chained-edge traffic between members never
// appears here — it flows in-stack through Context.Emit.
func (in *instance) loop() {
	defer in.job.wg.Done()
	for {
		env, ok := in.mbox.Take()
		if !ok {
			break
		}
		var err error
		dst := env.dest
		if dst == nil {
			dst = in
		}
		switch env.kind {
		case envData:
			dst.received += int64(len(env.batch))
			dst.batchesIn.Inc()
			dst.retained = false
			err = dst.vertex.OnBatch(env.input, env.from, env.batch)
			// OnBatch must not retain the slice (Vertex contract), so the
			// buffer goes straight back to the pool: the emit path and the
			// remote decode path both draw from it, closing the cycle. Its
			// arena follows unless the vertex retained the batch.
			in.job.recycle(&env, dst.retained)
		case envEOB:
			err = dst.vertex.OnEOB(env.input, env.from, env.tag)
		case envControl:
			// Broadcast control: one envelope per chain, fanned out to the
			// members consumer first. Member order is topological, so when a
			// producer emits from its callback every chained consumer has
			// already taken the event and can take the elements as they come
			// instead of buffering them.
			for k := len(in.members) - 1; k >= 0; k-- {
				m := in.members[k]
				dst = m
				m.ctrlIn.Inc()
				if err = m.vertex.OnControl(env.ctrl); err != nil {
					break
				}
			}
		}
		if env.ack != nil {
			// Remote frames of a partitioned job are acknowledged only after
			// the vertex fully processed them — the TCP backend returns a
			// flow-control credit here, so the sender's window measures
			// unprocessed frames, not merely undelivered ones.
			env.ack()
		}
		if err != nil {
			in.job.fail(fmt.Errorf("dataflow: %s[%d]: %w", dst.op.Name, dst.idx, err))
			break
		}
	}
	in.mboxHWM.Max(int64(in.mbox.HighWater()))
	for _, m := range in.members {
		if err := m.vertex.Close(); err != nil {
			in.job.fail(fmt.Errorf("dataflow: close %s[%d]: %w", m.op.Name, m.idx, err))
		}
		m.foldCounts()
	}
}

// Context is the emission and introspection interface handed to a vertex.
// It must only be used from within the vertex's callbacks.
type Context struct {
	inst *instance
}

// Instance returns the 0-based physical instance index.
func (c *Context) Instance() int { return c.inst.idx }

// Parallelism returns the number of instances of this logical operator.
func (c *Context) Parallelism() int { return c.inst.op.Parallelism }

// Machine returns the simulated machine this instance is placed on.
func (c *Context) Machine() int { return c.inst.machine }

// Lane returns the job-unique trace thread ID of this instance, for
// attributing higher-layer trace events to the same timeline row.
func (c *Context) Lane() int { return c.inst.lane }

// Observer returns the job's observer (nil when observability is off).
func (c *Context) Observer() *obs.Observer { return c.inst.job.obs }

// RetainBatch marks the batch the current OnBatch call delivers as
// retained: the vertex keeps one of its elements, so on an in-place input
// the batch's arena, which holds the element's tuple, is left to the
// collector instead of being reused (EdgeDecl.InPlace). The element slice
// itself is recycled all the same. On any other input it changes nothing.
func (c *Context) RetainBatch() { c.inst.retained = true }

// NumProducers returns how many physical producer instances feed the given
// input slot of this instance — the number of OnEOB calls to expect per bag.
func (c *Context) NumProducers(input int) int {
	if input < len(c.inst.inputs) {
		return c.inst.inputs[input].producers
	}
	return 0
}

// NumInputs returns the number of connected input slots.
func (c *Context) NumInputs() int { return len(c.inst.inputs) }

// Emit routes one element along every outgoing edge according to each
// edge's partitioning. Elements are buffered into batches — encoded into
// frames for targets on other machines; EmitEOB (or Flush) pushes what is
// buffered out.
func (c *Context) Emit(e Element) { c.emit(e, nil) }

// EmitLent is Emit for an element whose top-level tuple the caller reuses
// once EmitLent returns. A chained edge delivers it as it is — its reader
// reads it in place — a remote frame keeps only its encoding, and a local
// batch keeps a copy carved from slab, which must belong to the calling
// goroutine: the copy's fields are the lent tuple's, which nobody reuses.
func (c *Context) EmitLent(e Element, slab *val.Slab) { c.emit(e, slab) }

func (c *Context) emit(e Element, lent *val.Slab) {
	in := c.inst
	in.sent++
	for _, oe := range in.outs {
		switch oe.part {
		case PartForward:
			if oe.direct {
				c.deliver(oe, e)
			} else {
				c.buffer(oe, in.idx, e, lent)
			}
		case PartShuffleKey:
			t := int(e.Val.Key().Hash() % uint64(len(oe.targets)))
			c.buffer(oe, t, e, lent)
		case PartShuffleVal:
			t := int(e.Val.Hash() % uint64(len(oe.targets)))
			c.buffer(oe, t, e, lent)
		case PartGather:
			c.buffer(oe, 0, e, lent)
		case PartBroadcast:
			for t := range oe.targets {
				c.buffer(oe, t, e, lent)
			}
		}
	}
}

// lentHook, when a test sets it, sees every lent element a batching edge
// takes: remote when it is encoded into a frame, else copied into a local
// batch. It may be called from many goroutines at once.
var lentHook func(remote bool)

// SetLentHook installs fn as lentHook, for tests outside this package; nil
// removes it. Not safe while a job runs.
func SetLentHook(fn func(remote bool)) { lentHook = fn }

// deliver is the chained-edge fast path: it hands one element to the
// consumer member's vertex synchronously — no mailbox, no batch copy, no
// codec, no goroutine switch. It runs on the chain driver's goroutine (the
// only goroutine that calls this instance's callbacks), so the consumer's
// no-locking contract holds, and per-edge FIFO order is trivially the
// emission order.
func (c *Context) deliver(oe *outEdge, e Element) {
	in := c.inst
	tgt := oe.targets[in.idx]
	tgt.received++
	oe.scratch[0] = e
	err := tgt.vertex.OnBatch(oe.input, in.idx, oe.scratch[:1])
	oe.scratch[0] = Element{} // release the value reference
	if err != nil {
		in.job.fail(fmt.Errorf("dataflow: %s[%d]: %w", tgt.op.Name, tgt.idx, err))
	}
}

// buffer adds e to target's pending batch or frame, and flushes it once it
// holds a batch's worth. A remote target's frame takes e's encoding; a local
// target's batch takes e itself, or, when lent is set, a copy — built in the
// batch's arena on an in-place edge while it has room, carved from lent
// otherwise.
func (c *Context) buffer(oe *outEdge, target int, e Element, lent *val.Slab) {
	in := c.inst
	p := &oe.bufs[target]
	n, remote := 0, oe.targets[target].machine != in.machine
	if remote {
		if p.count == 0 {
			p.payload, p.tag = val.GetScratch(), e.Tag
		}
		p.payload = appendElement(p.payload, e)
		p.count++
		n = p.count
	} else {
		if p.batch == nil {
			// Local batches move to the receiver at flush, so the next one
			// starts from the pool, at full batch capacity, and the hot path
			// never grows a slice.
			p.batch = in.job.getBatch()
		}
		if lent != nil {
			f := e.Val.Fields()
			if oe.inPlace && p.arena == nil {
				p.arena = in.job.getArena()
			}
			if a := len(p.arena); oe.inPlace && len(f) <= cap(p.arena)-a {
				p.arena = append(p.arena, f...)
				e.Val = val.Tuple(p.arena[a:len(p.arena):len(p.arena)]...)
			} else {
				e.Val = lent.Tuple(f...)
			}
		}
		p.batch = append(p.batch, e)
		n = len(p.batch)
	}
	if lent != nil && lentHook != nil {
		lentHook(remote)
	}
	if oe.depth != nil {
		oe.depth.Add(1)
	}
	if n >= in.job.batchSize {
		c.flush(oe, target)
	}
}

// flush ships target's pending batch to its mailbox, or its frame — and the
// payload's ownership — to the Remote. The network cost is paid
// asynchronously by the link's sender goroutine, so the emit path returns as
// soon as the frame is handed over.
func (c *Context) flush(oe *outEdge, target int) {
	p := &oe.bufs[target]
	n := max(len(p.batch), p.count)
	if n == 0 {
		return
	}
	in := c.inst
	tgt := oe.targets[target]
	in.job.batchesSent.Add(1)
	in.batchesOut.Inc()
	if oe.depth != nil {
		oe.depth.Add(-int64(n))
	}
	if p.batch != nil {
		tgt.driver.mbox.Put(envelope{kind: envData, input: oe.input, from: in.idx, batch: p.batch, arena: p.arena, dest: tgt})
		p.batch, p.arena = nil, nil
		return
	}
	payload, tag := p.payload, p.tag
	*p = pending{}
	nbytes := int64(len(payload))
	in.job.remoteBatches.Add(1)
	in.job.bytesSent.Add(nbytes)
	in.remoteOut.Inc()
	in.bytesOut.Add(nbytes)
	if in.lin != nil {
		// Hosts emit one bag at a time and flush at end-of-bag, so a frame
		// carries a single bag tag: charge its encoded size to that bag's
		// lineage record.
		in.lin.BagBytes(in.op.Name, int(tag), nbytes)
	}
	if in.trc != nil {
		in.trc.Instant("net", "shuffle_batch", in.machine, in.lane,
			map[string]any{"to": tgt.machine, "op": tgt.op.Name, "elements": n, "bytes": nbytes})
	}
	in.job.remote.SendData(tgt.machine,
		RemoteHeader{Op: tgt.op.ID, Inst: tgt.idx, Input: oe.input, From: in.idx},
		payload, n)
}

// Flush pushes out all buffered batches on all edges.
func (c *Context) Flush() {
	for _, oe := range c.inst.outs {
		for t := range oe.targets {
			c.flush(oe, t)
		}
	}
}

// EmitEOB flushes and then signals end-of-bag tag to every receiver that
// this instance can route to: the matching instance on forward edges,
// instance 0 on gather edges, and all instances on shuffle and broadcast
// edges. On chained edges the EOB propagates in-stack — the consumer's
// OnEOB runs synchronously, so bag boundaries cross a chain in emission
// order exactly as data does.
func (c *Context) EmitEOB(tag Tag) {
	in := c.inst
	in.foldCounts()
	for _, oe := range in.outs {
		switch oe.part {
		case PartForward:
			if oe.direct {
				tgt := oe.targets[in.idx]
				if err := tgt.vertex.OnEOB(oe.input, in.idx, tag); err != nil {
					in.job.fail(fmt.Errorf("dataflow: %s[%d]: %w", tgt.op.Name, tgt.idx, err))
				}
				continue
			}
			c.flush(oe, in.idx)
			c.sendEOB(oe, in.idx, tag)
		case PartGather:
			c.flush(oe, 0)
			c.sendEOB(oe, 0, tag)
		default:
			for t := range oe.targets {
				c.flush(oe, t)
				c.sendEOB(oe, t, tag)
			}
		}
	}
}

func (c *Context) sendEOB(oe *outEdge, target int, tag Tag) {
	tgt := oe.targets[target]
	if tgt.machine != c.inst.machine {
		// EOB frames ride the same link as the data they terminate,
		// preserving the per-(producer, consumer, input) order the bag
		// protocol depends on.
		c.inst.job.remote.SendEOB(tgt.machine,
			RemoteHeader{Op: tgt.op.ID, Inst: tgt.idx, Input: oe.input, From: c.inst.idx}, tag)
		return
	}
	tgt.driver.mbox.Put(envelope{kind: envEOB, input: oe.input, from: c.inst.idx, tag: tag, dest: tgt})
}
