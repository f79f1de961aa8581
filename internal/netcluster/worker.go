package netcluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// The worker side of the backend: dial the coordinator, register a
// data-plane listener, receive a machine ID and the peer table, mesh up,
// then serve jobs — for each one, plan the shipped program source into the
// identical plan the coordinator built (frontEnd and core.Compile are
// deterministic; the session keeps the last plan, so a repeated script is
// compiled once), host this machine's partition, forward host events to the
// coordinator, and report stats plus written datasets at the end.

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Coord is the coordinator's control-plane address.
	Coord string
	// Listen is the data-plane listen address for peer connections
	// (default "127.0.0.1:0" — any free port, loopback).
	Listen string
	// Name identifies this worker across reconnects: a worker that
	// redials after a failure and registers under the same name gets its
	// old machine ID (and partition placement) back. ServeLoop fills in a
	// process-stable default when empty.
	Name string
	// TraceBuffer bounds the in-memory trace-event buffer between
	// telemetry shipments (default 16384 events). Overflowing events are
	// dropped and counted, never allowed to grow the worker's memory or
	// stall its data plane.
	TraceBuffer int
}

// quiesceTimeout bounds the end-of-job flush-token exchange.
const quiesceTimeout = 30 * time.Second

// defaultTraceBuffer bounds a worker's trace buffer between telemetry
// shipments. At the default 250ms heartbeat cadence this absorbs ~65k
// events/s before dropping.
const defaultTraceBuffer = 16384

// traceChunk bounds the events drained into one MsgTrace frame.
const traceChunk = 4096

// Serve dials the coordinator and serves one session: register, mesh with
// the other workers, then run jobs until the coordinator closes the
// connection (clean shutdown, returns nil), stop closes (returns nil), or
// something fails (returns the error). A worker binary that should survive
// coordinator restarts wraps Serve in a redial loop.
func Serve(cfg WorkerConfig, stop <-chan struct{}) error {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	conn, err := net.DialTimeout("tcp", cfg.Coord, handshakeTimeout)
	if err != nil {
		return fmt.Errorf("netcluster: dialing coordinator %s: %w", cfg.Coord, err)
	}
	s := &workerSession{cfg: cfg, conn: conn, failed: make(chan struct{})}
	defer s.teardown()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return fmt.Errorf("netcluster: worker data listener: %w", err)
	}
	s.ln = ln
	if err := s.send(MsgHello, AppendHello(nil, Hello{Role: RoleWorker})); err != nil {
		return err
	}
	if err := s.send(MsgRegister, AppendRegister(nil, Register{DataAddr: ln.Addr().String(), Name: cfg.Name})); err != nil {
		return err
	}
	// stop (in-process workers) and failure both unblock the control read
	// by closing the connection, and a mesh set-up waiting for peers by
	// closing the data listener.
	stopDone := make(chan struct{})
	defer close(stopDone)
	go func() {
		select {
		case <-stop:
			s.stopped.Store(true)
		case <-s.failed:
		case <-stopDone:
			return
		}
		s.conn.Close()
		s.ln.Close()
	}()
	return s.controlLoop()
}

// workerSession is one worker's registration with one coordinator.
type workerSession struct {
	cfg  WorkerConfig
	conn net.Conn
	ln   net.Listener

	wmu  sync.Mutex
	wbuf []byte // framing scratch, reused under wmu

	id   int
	n    int
	mesh *mesh

	failOnce sync.Once
	failErr  error
	failed   chan struct{}
	stopped  atomic.Bool

	jobMu sync.Mutex
	job   *workerJobRun
	plans core.PlanMemo // the last job's plan, for the next job of its script

	hbStop chan struct{}
}

// workerJobRun is one job hosted by the session.
type workerJobRun struct {
	wj    *core.WorkerJob
	st    *trackingStore
	done  chan struct{} // closed once Job.Wait returned
	fwdWG sync.WaitGroup
	evbuf []byte // event encode scratch of the forwarder goroutine
	// frame is the buffer the job's MsgJob arrived in. st reads the shipped
	// inputs out of it, so the job owns it until torn down, and only then
	// hands it back (release).
	frame []byte

	// Telemetry: the per-job observer whose registry/tracer/lineage the
	// worker snapshots and ships to the coordinator on the heartbeat
	// cadence. telC is the single-slot token channel gating the shipping
	// goroutine — a kick that finds it full is dropped and counted
	// (telDropped), so a slow coordinator sheds telemetry instead of
	// backing up into the worker.
	obs        *obs.Observer
	telC       chan struct{}
	telDropped *obs.Counter
	telFrames  *obs.Counter

	// The worker's view of the execution path is its frontier: the number of
	// positions it has broadcast to the local partition. Every path frame
	// names only its head block, which the worker expands from its own plan
	// (core.Plan.Segment) — the whole template when templated, the one block
	// otherwise. All of it lives on the run: a retry or re-admission builds a
	// fresh workerJobRun.
	plan      *core.Plan
	templated bool

	// mu serializes path mutation between the control loop (coordinator
	// frames) and the event forwarder (local speculation). The frames the
	// worker broadcasts to its partition are carved from frames under it.
	mu       sync.Mutex
	frontier int
	frames   core.FrameSlab
	// Templated execution only. echoes lists the segments this worker
	// speculated past its own decisions, oldest first, until the
	// coordinator's frame for each arrives. localExp, indexed by block, is the
	// count of operator instances this machine hosts; positions reaching it
	// fold into a single Count-carrying completion event instead of one frame
	// per instance.
	echoes      []PathSegMsg
	localExp    []int
	pendingDone map[int]int
}

// applyLocked extends the worker's path by the segment headed by head at
// position pos and fans it out to the local partition. Caller holds rj.mu.
// Coordinator frames arrive in order, so a frame at or before the frontier
// is the echo of the oldest segment this worker speculated, and only needs
// checking against it.
func (rj *workerJobRun) applyLocked(pos int, head ir.BlockID) error {
	if pos <= rj.frontier {
		if len(rj.echoes) == 0 || rj.echoes[0] != (PathSegMsg{Pos: pos, Head: int(head)}) {
			return fmt.Errorf("netcluster: path diverged at %d: coordinator says b%d, unechoed speculations (pos, head) %v", pos, head, rj.echoes)
		}
		rj.echoes = rj.echoes[:copy(rj.echoes, rj.echoes[1:])]
		return nil
	}
	if pos != rj.frontier+1 {
		return fmt.Errorf("netcluster: path segment at %d out of order (have %d)", pos, rj.frontier)
	}
	if head < 0 || int(head) >= len(rj.plan.IR.Blocks) {
		return fmt.Errorf("netcluster: path segment at %d names unknown block b%d", pos, head)
	}
	rj.frontier += len(rj.plan.Segment(head, rj.templated))
	rj.wj.Job.Broadcast(rj.frames.New(core.PathSegment{Pos: pos, Head: head}))
	return nil
}

// speculate advances the path past a locally decided branch without waiting
// for the coordinator's round trip. It runs before the decision event is
// sent, so the coordinator's echoed frame can only arrive afterwards and
// dedups in applyLocked. Only the branch at the frontier qualifies: the
// path cannot extend past an unresolved branch, so ev.Pos below the
// frontier means this decision belongs to an already-extended position.
func (rj *workerJobRun) speculate(ev core.CoordEvent) {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	term := rj.plan.IR.Blocks[ev.Block].Term
	if ev.Pos != rj.frontier || term.Kind != ir.TermBranch {
		return
	}
	next := term.Succs[1]
	if ev.Branch {
		next = term.Succs[0]
	}
	// Appending at the frontier cannot conflict or be out of order.
	_ = rj.applyLocked(ev.Pos+1, next)
	rj.echoes = append(rj.echoes, PathSegMsg{Pos: ev.Pos + 1, Head: int(next)})
}

// noteCompletion folds one local instance completion into the aggregated
// per-worker event of its position. ready reports whether every local
// instance of the position's block has completed, i.e. an event should be
// sent now.
func (rj *workerJobRun) noteCompletion(ev core.CoordEvent) (count int, ready bool) {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	exp := rj.localExp[ev.Block]
	if exp <= 1 {
		return 1, true
	}
	n := rj.pendingDone[ev.Pos] + 1
	if n == exp {
		delete(rj.pendingDone, ev.Pos)
		return n, true
	}
	rj.pendingDone[ev.Pos] = n
	return 0, false
}

// frameHook, when a test sets it, sees each MsgJob buffer as its job gives it
// back, and may overwrite it.
var frameHook func(frame []byte)

// release gives the job's MsgJob buffer back once the job is torn down: no
// host runs, so nothing reads the shipped inputs any more.
func (rj *workerJobRun) release() []byte {
	if frameHook != nil {
		frameHook(rj.frame)
	}
	frame := rj.frame
	rj.frame = nil
	return frame
}

// fail records the first session error and signals teardown. It never
// blocks and never tears down synchronously — readLoops call it, and
// teardown waits for readLoops.
func (s *workerSession) fail(err error) {
	s.failOnce.Do(func() {
		s.failErr = err
		close(s.failed)
	})
}

func (s *workerSession) teardown() {
	s.conn.Close()
	if s.ln != nil {
		s.ln.Close()
	}
	if s.hbStop != nil {
		close(s.hbStop)
	}
	s.jobMu.Lock()
	rj := s.job
	s.job = nil
	s.jobMu.Unlock()
	if rj != nil {
		rj.wj.Job.Stop(errors.New("netcluster: session closed"))
	}
	if s.mesh != nil {
		s.mesh.close() // releases credit waiters so event loops can exit
	}
	if rj != nil {
		<-rj.done
		rj.fwdWG.Wait()
		rj.release()
	}
}

// send writes one framed control message, serialized across goroutines
// (control loop, heartbeats, event forwarder, job watcher).
func (s *workerSession) send(typ byte, body []byte) error {
	s.wmu.Lock()
	var err error
	s.wbuf, err = WriteMsg(s.conn, s.wbuf, typ, body)
	s.wmu.Unlock()
	return err
}

func (s *workerSession) controlLoop() error {
	br := bufio.NewReader(s.conn)
	// buf is the read buffer. A MsgJob's buffer goes to its job, which reads
	// its shipped inputs out of it, and comes back as the read buffer once
	// finishJob has torn the job down; the loop reads into spare meanwhile.
	// In steady state neither is reallocated.
	var buf, spare []byte
	for {
		typ, body, nbuf, err := ReadMsg(br, buf)
		buf = nbuf
		if err != nil {
			return s.exitErr(err)
		}
		switch typ {
		case MsgAssign:
			a, err := DecodeAssign(body)
			if err != nil {
				return s.exitErr(err)
			}
			if err := s.onAssign(a); err != nil {
				s.fail(err)
				return s.exitErr(err)
			}
		case MsgJob:
			spec, err := DecodeJobSpec(body)
			if err != nil {
				return s.exitErr(err)
			}
			if err := s.startJob(spec, buf); err != nil {
				// A local plan/compile failure: report it so the coordinator
				// fails the job with the cause, then tear down.
				s.send(MsgError, AppendError(nil, ErrorMsg{Msg: err.Error()}))
				s.fail(err)
				return s.exitErr(err)
			}
			buf, spare = spare, nil
		case MsgPathSeg:
			m, err := DecodePathSeg(body)
			if err != nil {
				return s.exitErr(err)
			}
			if rj := s.running(); rj != nil {
				rj.mu.Lock()
				aerr := rj.applyLocked(m.Pos, ir.BlockID(m.Head))
				rj.mu.Unlock()
				if aerr != nil {
					s.send(MsgError, AppendError(nil, ErrorMsg{Msg: aerr.Error()}))
					s.fail(aerr)
					return s.exitErr(aerr)
				}
			}
		case MsgPing:
			p, err := DecodePing(body)
			if err != nil {
				return s.exitErr(err)
			}
			if err := s.send(MsgPong, AppendPong(nil, PongMsg{Seq: p.Seq, WallNanos: time.Now().UnixNano()})); err != nil {
				return s.exitErr(err)
			}
		case MsgBarrier:
			// The coordinator only raises a barrier once every completion
			// for the prior positions is in, so there is nothing left to
			// drain locally: acknowledging costs one control round trip,
			// which is the real-world price the sim models as BarrierDelay.
			if err := s.send(MsgBarrierAck, body); err != nil {
				return s.exitErr(err)
			}
		case MsgFinish:
			frame, err := s.finishJob()
			if err != nil {
				s.send(MsgError, AppendError(nil, ErrorMsg{Msg: err.Error()}))
				s.fail(err)
				return s.exitErr(err)
			}
			buf, spare = frame, buf
		default:
			err := fmt.Errorf("netcluster: worker %d: unexpected control message %#x", s.id, typ)
			s.fail(err)
			return s.exitErr(err)
		}
	}
}

// exitErr classifies the control loop's exit: a stop wins (closing the
// connection and listener fails whatever was waiting on them), then a
// session failure; a clean coordinator close with no job running is nil,
// anything else (coordinator died mid-job) is an error.
func (s *workerSession) exitErr(readErr error) error {
	if s.stopped.Load() {
		return nil
	}
	select {
	case <-s.failed:
		return s.failErr
	default:
	}
	if s.running() == nil && (errors.Is(readErr, io.EOF) || errors.Is(readErr, net.ErrClosed)) {
		return nil // coordinator closed the session between jobs
	}
	return fmt.Errorf("netcluster: worker %d: coordinator connection lost: %w", s.id, readErr)
}

func (s *workerSession) running() *workerJobRun {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.job
}

func (s *workerSession) onAssign(a Assign) error {
	if a.Workers < 1 || a.ID < 0 || a.ID >= a.Workers || len(a.Peers) != a.Workers {
		return fmt.Errorf("netcluster: bad assignment: machine %d of %d with %d peers", a.ID, a.Workers, len(a.Peers))
	}
	s.id, s.n = a.ID, a.Workers
	m, err := newMesh(a.ID, a.Peers, a.CreditWindow, s.ln, s.fail)
	if err != nil {
		return err
	}
	s.mesh = m
	if err := s.send(MsgReady, []byte{0}); err != nil {
		return err
	}
	interval := time.Duration(a.HeartbeatMillis) * time.Millisecond
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	s.hbStop = make(chan struct{})
	go s.heartbeat(interval)
	return nil
}

func (s *workerSession) heartbeat(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if s.send(MsgHeartbeat, []byte{0}) != nil {
				return // connection gone; the control loop reports the cause
			}
			// Telemetry piggybacks on the heartbeat cadence: offer a token
			// to the running job's shipping goroutine; if the previous
			// shipment is still in flight the round is dropped and counted.
			if rj := s.running(); rj != nil {
				rj.kickTelemetry()
			}
		case <-s.hbStop:
			return
		case <-s.failed:
			return
		}
	}
}

// startJob plans the shipped source, builds this machine's partition,
// and starts it. frame is the buffer spec was decoded from; the job owns it.
func (s *workerSession) startJob(spec JobSpec, frame []byte) error {
	if s.mesh == nil {
		return fmt.Errorf("netcluster: job before assignment")
	}
	if s.running() != nil {
		return fmt.Errorf("netcluster: worker %d: job while one is already running", s.id)
	}
	opts := spec.Options
	plan, err := s.plans.Compile(spec.Source, s.n, opts, frontEnd)
	if err != nil {
		return fmt.Errorf("netcluster: worker %d: shipped program: %w", s.id, err)
	}
	st, err := newTrackingStore(spec.Parallelism, spec.Datasets)
	if err != nil {
		return fmt.Errorf("netcluster: worker %d: %w", s.id, err)
	}
	// Every job gets a worker-local observer: metrics always (counters are
	// too cheap to gate), trace/lineage only when the coordinator asked.
	// Snapshots of it are what the telemetry goroutine ships.
	o := obs.New()
	if spec.Trace {
		o.Trace = obs.NewTracer()
		tb := s.cfg.TraceBuffer
		if tb <= 0 {
			tb = defaultTraceBuffer
		}
		o.Trace.SetLimit(tb)
	}
	if spec.Lineage {
		o.EnableLineage()
		o.Lin().Begin()
	}
	opts.Obs = o
	wj, err := core.NewWorkerJob(plan, st, s.n, s.id, opts, s.mesh)
	if err != nil {
		return fmt.Errorf("netcluster: worker %d: building partition: %w", s.id, err)
	}
	if spec.LiveView {
		wj.Job.EnableIntrospection()
	}
	rj := &workerJobRun{
		wj: wj, st: st, done: make(chan struct{}), frame: frame,
		obs:        o,
		telC:       make(chan struct{}, 1),
		telDropped: o.Reg().Counter(s.id, "netcluster", "telemetry_dropped"),
		telFrames:  o.Reg().Counter(s.id, "netcluster", "telemetry_frames"),
		plan:       plan,
		templated:  opts.Templated(),
	}
	if rj.templated {
		rj.localExp = plan.InstancesPerBlockOn(s.n, s.id)
		rj.pendingDone = make(map[int]int)
	}
	s.jobMu.Lock()
	s.job = rj
	s.jobMu.Unlock()
	s.mesh.setJob(wj.Job)
	if err := wj.Job.Start(); err != nil {
		s.jobMu.Lock()
		s.job = nil
		s.jobMu.Unlock()
		s.mesh.clearJob()
		return fmt.Errorf("netcluster: worker %d: starting partition: %w", s.id, err)
	}
	// Forward host events (decisions, completions) to the coordinator
	// until the watcher below closes the queue, then what is left.
	rj.fwdWG.Add(1)
	go func() {
		defer rj.fwdWG.Done()
		for {
			ev, ok := wj.Events.Take()
			if !ok {
				return
			}
			s.forwardEvent(rj, ev)
		}
	}()
	// Ship telemetry on the heartbeat's kicks until the job is done; the
	// final flush happens synchronously in finishJob, after this goroutine
	// has exited, so the Final frame is the last MsgStats on the wire.
	rj.fwdWG.Add(1)
	go func() {
		defer rj.fwdWG.Done()
		for {
			select {
			case <-rj.telC:
				s.shipTelemetry(rj, false)
			case <-rj.done:
				return
			}
		}
	}()
	// Watch for local failure: a partition that dies (vertex error, corrupt
	// frame) must reach the coordinator even though the control loop is
	// blocked reading.
	go func() {
		err := wj.Job.Wait()
		wj.Events.Close() // no host emits once Wait returns
		close(rj.done)
		if err != nil {
			s.send(MsgError, AppendError(nil, ErrorMsg{Msg: err.Error()}))
			s.fail(fmt.Errorf("netcluster: worker %d: %w", s.id, err))
		}
	}()
	return nil
}

// kickTelemetry offers one shipping token; a full slot means the previous
// shipment is still in flight, so the round is shed and counted instead of
// queuing behind a slow coordinator.
func (rj *workerJobRun) kickTelemetry() {
	if rj.obs == nil {
		return
	}
	select {
	case rj.telC <- struct{}{}:
	default:
		rj.telDropped.Inc()
	}
}

// shipTelemetry sends the worker's telemetry to the coordinator: live
// gauges refreshed, buffered trace events drained into MsgTrace frames,
// and a complete metrics snapshot as one MsgStats frame. The final flush
// (job end) drains the whole trace buffer and attaches the bag-lineage
// snapshot; a periodic shipment caps the trace at one chunk so no single
// round monopolizes the control connection. Send errors are not fatal
// here — if the connection is gone the control loop reports the cause.
func (s *workerSession) shipTelemetry(rj *workerJobRun, final bool) {
	o := rj.obs
	if o == nil {
		return
	}
	s.refreshLiveGauges(rj)
	if trc := o.Trc(); trc != nil {
		for {
			evs := trc.Drain(traceChunk)
			if len(evs) == 0 {
				break
			}
			js, err := json.Marshal(evs)
			if err == nil {
				if s.send(MsgTrace, AppendTrace(nil, TraceMsg{T0Wall: trc.T0().UnixNano(), EventsJSON: js})) != nil {
					return
				}
				rj.telFrames.Inc()
			}
			if !final {
				break
			}
		}
	}
	m := StatsMsg{Final: final}
	if final {
		if lin := o.Lin(); lin != nil {
			m.LinT0Wall = lin.T0().UnixNano()
			if js, err := json.Marshal(lin.Snapshot()); err == nil {
				m.LineageJSON = js
			}
		}
	}
	rj.telFrames.Inc() // count the frame being built so the shipped snapshot includes it
	m.Snap = *o.Snapshot()
	if s.send(MsgStats, AppendStats(nil, m)) != nil {
		rj.telFrames.Add(-1)
	}
}

// refreshLiveGauges samples the worker's queue state into its registry so
// the shipped snapshot carries a live view: data-plane egress backlog,
// mailbox depths, per-link socket/credit counters, and trace drops. Gauge
// names are disjoint from the counters the coordinator derives from
// ResultMsg (socket_bytes_out, credit_stalls, ...) so the federated
// exposition never sees one metric name with two types.
func (s *workerSession) refreshLiveGauges(rj *workerJobRun) {
	reg := rj.obs.Reg()
	reg.Gauge(s.id, "netcluster", "egress_backlog").Set(int64(s.mesh.egressBacklog()))
	reg.Gauge(s.id, "netcluster", "mailbox_depth").Set(int64(rj.wj.Job.MailboxDepth()))
	var bytesOut, bytesIn, stalls, stallNanos int64
	for _, p := range s.mesh.stats() {
		bytesOut += p.BytesOut
		bytesIn += p.BytesIn
		stalls += p.CreditStalls
		stallNanos += p.StallNanos
	}
	reg.Gauge(s.id, "netcluster", "link_bytes_out").Set(bytesOut)
	reg.Gauge(s.id, "netcluster", "link_bytes_in").Set(bytesIn)
	reg.Gauge(s.id, "netcluster", "link_credit_stalls").Set(stalls)
	reg.Gauge(s.id, "netcluster", "link_credit_stall_nanos").Set(stallNanos)
	if trc := rj.obs.Trc(); trc != nil {
		reg.Gauge(s.id, "netcluster", "trace_dropped_events").Set(trc.Dropped())
	}
}

// forwardEvent relays one host event to the coordinator. Under templated
// execution a decision first advances the local path (speculation, before
// the send so the coordinator's echo always trails it), and completions
// are folded into one aggregated frame per position per worker.
func (s *workerSession) forwardEvent(rj *workerJobRun, ev core.CoordEvent) {
	if !rj.templated {
		s.sendEvent(rj, ev)
		return
	}
	switch ev.Kind {
	case core.EvDecision:
		rj.speculate(ev)
		s.sendEvent(rj, ev)
	case core.EvCompletion:
		if count, ready := rj.noteCompletion(ev); ready {
			s.sendEvent(rj, core.CoordEvent{Kind: core.EvCompletion, Pos: ev.Pos, Count: count})
		}
	default:
		s.sendEvent(rj, ev)
	}
}

// sendEvent encodes ev into the run's event scratch, which only the
// forwarder goroutine touches.
func (s *workerSession) sendEvent(rj *workerJobRun, ev core.CoordEvent) {
	rj.evbuf = AppendEvent(rj.evbuf[:0], EventMsg{Kind: byte(ev.Kind), Pos: ev.Pos, Branch: ev.Branch, Count: ev.Count})
	if err := s.send(MsgEvent, rj.evbuf); err != nil {
		s.fail(fmt.Errorf("netcluster: worker %d: reporting event: %w", s.id, err))
	}
}

// finishJob quiesces the data plane (flush-token exchange guarantees every
// in-flight frame is in a mailbox before the job stops), stops and drains
// the partition, and reports the result. It returns the job's MsgJob buffer,
// released.
func (s *workerSession) finishJob() ([]byte, error) {
	rj := s.running()
	if rj == nil {
		return nil, fmt.Errorf("netcluster: worker %d: finish with no job running", s.id)
	}
	s.mesh.sendFlush()
	if err := s.mesh.awaitFlush(quiesceTimeout); err != nil {
		return nil, err
	}
	rj.wj.Job.Stop(nil)
	err := rj.wj.Job.Wait()
	<-rj.done
	rj.fwdWG.Wait()
	s.jobMu.Lock()
	s.job = nil
	s.jobMu.Unlock()
	s.mesh.clearJob()
	frame := rj.release()
	if err != nil {
		return frame, fmt.Errorf("netcluster: worker %d: %w", s.id, err)
	}
	// Final telemetry flush: the shipping goroutine has exited (fwdWG), so
	// this Final frame is the last MsgStats — and the control connection is
	// ordered, so the coordinator has the complete registry and lineage
	// before the MsgResult below lets Run return.
	s.shipTelemetry(rj, true)
	res := ResultMsg{Result: *rj.wj.Result(), Datasets: rj.st.written(), Peers: s.mesh.stats()}
	return frame, s.send(MsgResult, AppendResult(nil, res))
}

// ErrPartitionedInput is returned by a worker store's ReadDataset of a
// shipped input: the worker holds only the partitions its readFile instances
// read, never the whole dataset.
var ErrPartitionedInput = errors.New("netcluster: a worker holds only its read partitions of a shipped input")

// trackingStore is a worker's dataset store. It keeps the input partitions as
// shipped — encoded, in the job's MsgJob buffer — and decodes one on each
// readFile of it (ReadPartition), and it records every dataset the
// job writes, so the worker can report exactly the outputs (and not echo the
// inputs back).
type trackingStore struct {
	parts  int
	inputs map[shippedPart][]byte // shipped partitions, encoded
	// outputs holds the datasets the job wrote, names in order of first write.
	mu      sync.Mutex
	outputs map[string][]val.Value
	names   []string
}

// shippedPart names one shipped partition of an input dataset.
type shippedPart struct {
	name string
	part int
}

// newTrackingStore keeps the shipped partitions of a job run with
// parallelism parts.
func newTrackingStore(parts int, shipped []Dataset) (*trackingStore, error) {
	t := &trackingStore{parts: parts, inputs: make(map[shippedPart][]byte, len(shipped)), outputs: make(map[string][]val.Value)}
	for _, ds := range shipped {
		if ds.Parts != parts {
			return nil, fmt.Errorf("dataset %q shipped as part %d of %d, the job reads %d parts", ds.Name, ds.Part, ds.Parts, parts)
		}
		t.inputs[shippedPart{ds.Name, ds.Part}] = ds.Encoded
	}
	return t, nil
}

// shipped reports whether any partition of the named input was shipped to
// this worker.
func (t *trackingStore) shipped(name string) bool {
	for part := range t.parts {
		if _, ok := t.inputs[shippedPart{name, part}]; ok {
			return true
		}
	}
	return false
}

// ReadPartition implements store.Store. A shipped input's
// partition is decoded from its shipped bytes into slab, the reading host's,
// one element at a time; a dataset this job wrote is strided over in place.
func (t *trackingStore) ReadPartition(name string, part, parts int, slab *val.Slab, fn func(val.Value) error) error {
	t.mu.Lock()
	elems, written := t.outputs[name]
	t.mu.Unlock()
	if written {
		return store.ReadStride(elems, part, parts, fn)
	}
	b, ok := t.inputs[shippedPart{name, part}]
	switch {
	case !ok && !t.shipped(name):
		return &store.NotFoundError{Name: name}
	case parts != t.parts:
		return fmt.Errorf("netcluster: dataset %q read as %d parts, shipped as %d", name, parts, t.parts)
	case !ok:
		return fmt.Errorf("netcluster: part %d of dataset %q was not shipped to this worker", part, name)
	}
	for len(b) > 0 {
		v, n, err := val.Decode(b, slab)
		if err != nil { // DecodeJobSpec validated every element
			return fmt.Errorf("netcluster: dataset %q part %d: %w", name, part, err)
		}
		b = b[n:]
		if err := fn(v); err != nil {
			return err
		}
	}
	return nil
}

// ReadDataset implements store.Store for the datasets the job wrote.
func (t *trackingStore) ReadDataset(name string) ([]val.Value, error) {
	t.mu.Lock()
	elems, written := t.outputs[name]
	t.mu.Unlock()
	if written {
		return append([]val.Value(nil), elems...), nil
	}
	if t.shipped(name) {
		return nil, fmt.Errorf("%w: %q", ErrPartitionedInput, name)
	}
	return nil, &store.NotFoundError{Name: name}
}

// WriteDataset implements store.Store. The store keeps elems, as the engine
// hands a written bag's slice over.
func (t *trackingStore) WriteDataset(name string, elems []val.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.outputs[name]; !ok {
		t.names = append(t.names, name)
	}
	t.outputs[name] = elems
	return nil
}

// written returns the datasets the job wrote, last write per name winning.
func (t *trackingStore) written() []Dataset {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Dataset, len(t.names))
	for i, name := range t.names {
		out[i] = Dataset{Name: name, Elems: t.outputs[name]}
	}
	return out
}
