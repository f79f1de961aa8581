package netcluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// The coordinator side of the backend: accept worker registrations, assign
// machine IDs, establish a session, then run jobs — ship the program and
// inputs, drive the control-flow manager (core.Coordinator) over a TCP
// ControlPlane, detect worker failure by heartbeat timeout or connection
// loss, and merge the workers' results.
//
// The coordinator survives worker loss. A Coordinator owns the listener
// and the retry policy for the whole process lifetime; each *session* is
// one attempt at holding a full worker pool. When a worker dies mid-job
// the session is torn down (every control connection closed, which is
// also what tells the surviving workers to abandon the attempt and
// redial), the listener stays open, redialing and replacement workers are
// re-admitted until the pool is whole, the data plane re-meshes, and the
// job re-executes from its cached specs — jobs ship as program source and
// recompile deterministically, so a retry is a fresh deterministic run
// with no checkpoint or partial state to reconcile. Rejoining workers are
// recognized by their registration name and get their old machine ID
// back, so re-execution placement matches the i%n placement of every
// earlier attempt (and of the simulated backend).

// CoordConfig configures a coordinator.
type CoordConfig struct {
	// Listen is the control-plane listen address. Ignored when Listener
	// is set.
	Listen string
	// Listener, when non-nil, is a pre-bound control-plane listener. In-
	// process harnesses use it to learn the port before workers dial.
	Listener net.Listener
	// Workers is the cluster size: Listen blocks until this many register.
	Workers int
	// HeartbeatInterval is how often workers report liveness
	// (default 250ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a silent worker stays trusted before
	// the session fails naming it (default 10x the interval).
	HeartbeatTimeout time.Duration
	// CreditWindow is the per-channel in-flight frame cap on the workers'
	// peer links (default DefaultCreditWindow).
	CreditWindow int
	// SetupTimeout bounds registration and meshing (default 60s). After a
	// worker loss it also bounds how long re-admission waits for the pool
	// to be whole again before the attempt is charged to the retry budget.
	SetupTimeout time.Duration
	// Retries is the job re-execution budget: how many times Run rebuilds
	// the worker pool and re-runs a job after losing a worker mid-job.
	// 0 (the default) preserves fail-fast behavior: the first worker loss
	// fails the job.
	Retries int
	// RetryBackoff is the delay before the first re-execution; it doubles
	// per attempt up to RetryBackoffMax (defaults 500ms / 15s).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
}

func (cfg *CoordConfig) defaults() {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 250 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 10 * cfg.HeartbeatInterval
	}
	if cfg.CreditWindow <= 0 {
		cfg.CreditWindow = DefaultCreditWindow
	}
	if cfg.SetupTimeout <= 0 {
		cfg.SetupTimeout = 60 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 500 * time.Millisecond
	}
	if cfg.RetryBackoffMax < cfg.RetryBackoff {
		cfg.RetryBackoffMax = 15 * time.Second
		if cfg.RetryBackoffMax < cfg.RetryBackoff {
			cfg.RetryBackoffMax = cfg.RetryBackoff
		}
	}
}

// NamedStore is a dataset store that can enumerate its datasets. The
// coordinator ships every named dataset to the workers as job input, each
// worker the stride partitions its readFile instances read.
// store.MemStore and dfs.Store both satisfy it.
type NamedStore interface {
	store.Store
	Names() []string
}

// Result reports one job run on the TCP backend: the engine's own Result —
// the coordinator's share (Steps, ChainedEdges, template counters) merged
// with every worker's (Job and the host counters summed, MaxBufferedBags
// the maximum; successful attempt only — torn-down attempts report nothing,
// and delta state is rebuilt from scratch by a retry) — plus what only a
// real cluster has. Duration is measured at the coordinator from first job
// shipment to the last worker result, retries and their backoff included.
type Result struct {
	core.Result
	// Attempts is how many executions the job took: 1 for a clean run,
	// more when worker loss forced re-execution.
	Attempts int
	// AttemptErrors holds the error of every failed attempt that preceded
	// the successful one, in order; empty for a clean run.
	AttemptErrors []string
	// SocketBytes is the data-plane traffic (sum of every peer link's bytes
	// written) — the real-wire analogue of Job.BytesSent, which counts only
	// encoded batch payloads. Like the four counters below it reads a
	// counter that lives as long as the worker *session*, not the job: over
	// sequential jobs on one session it accumulates, and one job's share is
	// the difference between consecutive results. A retry starts a fresh
	// session, and with it fresh counters.
	SocketBytes int64
	// CreditStalls counts emits that blocked on an exhausted flow-control
	// window; CreditStallTime is the total time senders spent blocked.
	// Per session, as SocketBytes.
	CreditStalls    int64
	CreditStallTime time.Duration
	// CtrlMessages and CtrlBytes count the coordinator-link control frames
	// (path segments, barriers, finish, and the workers' event and
	// barrier-ack frames) and their wire sizes. Job setup (MsgJob,
	// MsgAssign) is excluded: these measure per-step control traffic. Per
	// session, as SocketBytes.
	CtrlMessages int64
	CtrlBytes    int64
	// PeerLinks reports each worker's per-peer link counters.
	PeerLinks [][]PeerStat
	// WorkerStats holds each worker's final metrics snapshot (indexed by
	// machine ID), shipped with the job-end telemetry flush. Summing them
	// key-wise reproduces the federated totals — the federation oracle.
	WorkerStats []*obs.Snapshot
}

// AttemptError records one failed execution attempt.
type AttemptError struct {
	Attempt int       // 1-based
	Time    time.Time // when the attempt failed
	Err     error
}

// RetryError is returned when the retry budget is exhausted: every
// attempt's error, in order.
type RetryError struct {
	Budget   int // configured Retries
	Attempts []AttemptError
}

func (e *RetryError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "netcluster: job failed after %d attempt(s) (retry budget %d)", len(e.Attempts), e.Budget)
	for _, a := range e.Attempts {
		fmt.Fprintf(&b, "\n  attempt %d: %v", a.Attempt, a.Err)
	}
	return b.String()
}

// Unwrap exposes the last attempt's error to errors.Is/As.
func (e *RetryError) Unwrap() error {
	if len(e.Attempts) == 0 {
		return nil
	}
	return e.Attempts[len(e.Attempts)-1].Err
}

// Coordinator is a TCP cluster coordinator: the listener, the retry
// policy, and the current session. One coordinator can run several jobs
// sequentially, surviving worker loss in between and (budget permitting)
// during them.
type Coordinator struct {
	cfg CoordConfig
	ln  net.Listener

	mu   sync.Mutex // guards sess and ids
	sess *session
	// ids is the stable name→machine-ID table: it survives sessions, so a
	// worker that redials after a failure gets its old partition back.
	ids map[string]int

	// tel federates worker telemetry (metrics, traces, lineage, clock
	// offsets). It outlives sessions so re-admitted workers keep feeding
	// the same view and the final state stays inspectable after a job.
	tel *clusterTelemetry

	running   atomic.Bool
	closed    atomic.Bool
	closec    chan struct{}
	closeOnce sync.Once
}

// session is one attempt at holding a full worker pool: the established
// control connections, their reader goroutines, the heartbeat monitor,
// and the channels one job execution drains. All of it dies together —
// a fresh attempt starts from a fresh session, so no stall, stale
// barrier ack, buffered event, or half-delivered result can leak from a
// failed attempt into the next one's accounting.
type session struct {
	cfg     *CoordConfig
	tel     *clusterTelemetry
	workers []*workerConn

	events   chan core.CoordEvent
	readyc   chan int
	resultc  chan workerResult
	barrierc chan int

	errOnce sync.Once
	err     error
	failed  chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup

	barrierSeq int
	monStop    chan struct{}
	monOnce    sync.Once

	// Control-plane traffic counters of the session (they accumulate over
	// its sequential jobs): coordinator-link frames in both directions,
	// excluding setup (Assign/Job) and liveness (Heartbeat/Ready) messages.
	ctrlMsgs  atomic.Int64
	ctrlBytes atomic.Int64

	// The session's counters as of its previous job's report (see report).
	reported Result
}

// countCtrl records control frames of body size n sent to (or received
// from) `frames` workers; the wire cost per frame is the body plus the
// 4-byte length prefix and the type byte.
func (s *session) countCtrl(frames, n int) {
	s.ctrlMsgs.Add(int64(frames))
	s.ctrlBytes.Add(int64(frames) * int64(n+5))
}

type workerConn struct {
	id   int
	name string
	conn net.Conn
	addr string // data-plane address the worker registered

	wmu  sync.Mutex
	wbuf []byte // framing scratch, reused under wmu

	lastBeat atomic.Int64 // unix nanos of the last message received

	// One outstanding RTT probe: the sequence and send wall-time of the
	// latest MsgPing; a pong echoing an older sequence is stale and ignored.
	pingSeq      atomic.Int64
	pingSentWall atomic.Int64
}

type workerResult struct {
	id  int
	msg ResultMsg
}

// Listen starts a coordinator: it accepts cfg.Workers registrations,
// assigns machine IDs in arrival order, distributes the peer table, and
// waits for the full mesh. On return the session is live and Run can be
// called.
func Listen(cfg CoordConfig) (*Coordinator, error) {
	cfg.defaults()
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("netcluster: coordinator needs at least 1 worker, got %d", cfg.Workers)
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("netcluster: coordinator listen: %w", err)
		}
	}
	c := &Coordinator{
		cfg:    cfg,
		ln:     ln,
		ids:    make(map[string]int),
		tel:    newClusterTelemetry(),
		closec: make(chan struct{}),
	}
	s, err := c.establish()
	if err != nil {
		c.Close()
		return nil, err
	}
	c.mu.Lock()
	c.sess = s
	c.mu.Unlock()
	return c, nil
}

// establish builds one session: admit cfg.Workers registrations (skipping
// connections that fail the handshake — the accept backlog may hold stale
// sockets from workers that died while waiting), assign stable machine
// IDs, distribute the peer table, wait for the full data-plane mesh, and
// start the heartbeat monitor.
func (c *Coordinator) establish() (*session, error) {
	cfg := &c.cfg
	deadline := time.Now().Add(cfg.SetupTimeout)
	s := &session{
		cfg:      cfg,
		tel:      c.tel,
		events:   make(chan core.CoordEvent, 4096),
		readyc:   make(chan int, cfg.Workers),
		resultc:  make(chan workerResult, cfg.Workers),
		barrierc: make(chan int, cfg.Workers),
		failed:   make(chan struct{}),
		monStop:  make(chan struct{}),
	}
	type admitted struct {
		conn net.Conn
		reg  Register
	}
	var pool []admitted
	names := make(map[string]bool, cfg.Workers)
	for len(pool) < cfg.Workers {
		if c.closed.Load() {
			for _, a := range pool {
				a.conn.Close()
			}
			return nil, errors.New("netcluster: session closed")
		}
		conn, reg, err := c.admitWorker(deadline, len(pool))
		if err != nil {
			for _, a := range pool {
				a.conn.Close()
			}
			return nil, err
		}
		if conn == nil {
			continue // a bad handshake was skipped; keep accepting
		}
		if reg.Name != "" && names[reg.Name] {
			// A stale redial racing its own replacement: treat the second
			// connection as anonymous so it cannot steal the ID.
			reg.Name = ""
		}
		names[reg.Name] = true
		pool = append(pool, admitted{conn, reg})
	}
	// Stable ID assignment: a name seen before keeps its old ID; everyone
	// else fills the vacant IDs in arrival order.
	c.mu.Lock()
	taken := make([]bool, cfg.Workers)
	assign := make([]int, len(pool))
	for i := range assign {
		assign[i] = -1
	}
	for i, a := range pool {
		if id, ok := c.ids[a.reg.Name]; ok && a.reg.Name != "" && id < cfg.Workers && !taken[id] {
			assign[i], taken[id] = id, true
		}
	}
	next := 0
	for i, a := range pool {
		if assign[i] >= 0 {
			continue
		}
		for taken[next] {
			next++
		}
		assign[i], taken[next] = next, true
		if a.reg.Name != "" {
			c.ids[a.reg.Name] = next
		}
	}
	c.mu.Unlock()
	s.workers = make([]*workerConn, cfg.Workers)
	for i, a := range pool {
		s.workers[assign[i]] = &workerConn{id: assign[i], name: a.reg.Name, conn: a.conn, addr: a.reg.DataAddr}
	}
	addrs := make([]string, cfg.Workers)
	for i, w := range s.workers {
		addrs[i] = w.addr
	}
	for _, w := range s.workers {
		a := Assign{ID: w.id, Workers: cfg.Workers, Peers: addrs,
			HeartbeatMillis: int(cfg.HeartbeatInterval / time.Millisecond),
			CreditWindow:    cfg.CreditWindow}
		if err := s.sendTo(w, MsgAssign, AppendAssign(nil, a)); err != nil {
			s.shutdown()
			return nil, fmt.Errorf("netcluster: assigning worker %d: %w", w.id, err)
		}
	}
	for _, w := range s.workers {
		s.wg.Add(1)
		go s.readWorker(w)
	}
	ready := make(map[int]bool, cfg.Workers)
	setup := time.NewTimer(time.Until(deadline))
	defer setup.Stop()
	for len(ready) < cfg.Workers {
		select {
		case id := <-s.readyc:
			ready[id] = true
		case <-s.failed:
			err := s.err
			s.shutdown()
			return nil, err
		case <-setup.C:
			s.shutdown()
			return nil, fmt.Errorf("netcluster: %d/%d workers meshed within %v", len(ready), cfg.Workers, cfg.SetupTimeout)
		}
	}
	now := time.Now().UnixNano()
	for _, w := range s.workers {
		w.lastBeat.Store(now)
	}
	s.wg.Add(1)
	go s.monitor()
	return s, nil
}

// admitWorker accepts one connection and completes the registration
// handshake. A connection that fails the handshake (stale socket from a
// dead worker, a confused client) is closed and reported as (nil, nil):
// re-admission must not let one bad connection burn the whole attempt.
// Listener-level errors (timeout, closed) are returned.
func (c *Coordinator) admitWorker(deadline time.Time, have int) (net.Conn, Register, error) {
	if d, ok := c.ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(deadline)
	}
	conn, err := c.ln.Accept()
	if err != nil {
		return nil, Register{}, fmt.Errorf("netcluster: waiting for worker %d of %d: %w", have+1, c.cfg.Workers, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})
	var buf []byte
	typ, body, buf, err := ReadMsg(conn, buf)
	if err != nil {
		conn.Close()
		return nil, Register{}, nil // stale or dead connection; skip it
	}
	if typ != MsgHello {
		conn.Close()
		return nil, Register{}, nil
	}
	h, err := DecodeHello(body)
	if err != nil || h.Role != RoleWorker {
		conn.Close()
		return nil, Register{}, nil
	}
	typ, body, _, err = ReadMsg(conn, buf)
	if err != nil || typ != MsgRegister {
		conn.Close()
		return nil, Register{}, nil
	}
	reg, err := DecodeRegister(body)
	if err != nil {
		conn.Close()
		return nil, Register{}, nil
	}
	return conn, reg, nil
}

// fail records the first session error and closes every worker connection
// so readers, workers, and any attempt in progress all unwind.
func (s *session) fail(err error) {
	s.errOnce.Do(func() {
		s.err = err
		close(s.failed)
		for _, w := range s.workers {
			if w != nil {
				w.conn.Close()
			}
		}
	})
}

// Err returns the session's fatal error, if any.
func (s *session) Err() error {
	select {
	case <-s.failed:
		return s.err
	default:
		return nil
	}
}

// shutdown tears the session down: every control connection closes (a
// worker mid-job sees this as coordinator loss and, if redialing, comes
// back for the next session), the monitor stops, and the reader
// goroutines drain. Idempotent; the listener is not touched.
func (s *session) shutdown() {
	s.closing.Store(true)
	s.fail(errors.New("netcluster: session closed"))
	s.monOnce.Do(func() { close(s.monStop) })
	for _, w := range s.workers {
		if w != nil {
			w.conn.Close()
		}
	}
	s.wg.Wait()
}

// Err returns the current session's fatal error, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	s := c.sess
	c.mu.Unlock()
	if s == nil {
		return errors.New("netcluster: no session")
	}
	return s.Err()
}

// Close shuts the coordinator down: the current session tears down
// (workers see the connection close and exit cleanly between jobs, or
// fail their current job mid-job), the listener closes, and any Run in
// progress — including one sleeping between retry attempts — returns an
// error rather than waiting for results that will never come.
func (c *Coordinator) Close() {
	c.closed.Store(true)
	c.closeOnce.Do(func() { close(c.closec) })
	c.mu.Lock()
	s := c.sess
	c.mu.Unlock()
	if s != nil {
		s.shutdown()
	}
	c.ln.Close()
}

func (s *session) sendTo(w *workerConn, typ byte, body []byte) error {
	w.wmu.Lock()
	var err error
	w.wbuf, err = WriteMsg(w.conn, w.wbuf, typ, body)
	w.wmu.Unlock()
	return err
}

// broadcast sends one control message to every worker.
func (s *session) broadcast(typ byte, body []byte) {
	for _, w := range s.workers {
		if !s.sendOrFail(w, typ, body) {
			return
		}
	}
}

// ship sends every worker its own job spec, indexed by machine ID.
func (s *session) ship(specs [][]byte) {
	for _, w := range s.workers {
		if !s.sendOrFail(w, MsgJob, specs[w.id]) {
			return
		}
	}
}

// sendOrFail sends one control message to w; a write failure fails the
// session naming the worker.
func (s *session) sendOrFail(w *workerConn, typ byte, body []byte) bool {
	err := s.sendTo(w, typ, body)
	if err != nil && !s.closing.Load() {
		s.fail(fmt.Errorf("netcluster: worker %d (%s) lost: control send failed: %w", w.id, w.addr, err))
	}
	return err == nil
}

// readWorker drains one worker's control connection for the session.
func (s *session) readWorker(w *workerConn) {
	defer s.wg.Done()
	br := bufio.NewReader(w.conn)
	var buf []byte
	keys := make(map[string]obs.Key) // the worker's telemetry series keys
	for {
		typ, body, nbuf, err := ReadMsg(br, buf)
		buf = nbuf
		if err != nil {
			if !s.closing.Load() {
				s.fail(fmt.Errorf("netcluster: worker %d (%s) lost: connection closed: %w", w.id, w.addr, err))
			}
			return
		}
		// Any traffic proves liveness; heartbeats exist so that an idle
		// worker still produces traffic.
		w.lastBeat.Store(time.Now().UnixNano())
		switch typ {
		case MsgReady:
			// readyc holds one Ready per worker; a worker sending more is
			// broken, and blocking here would wedge shutdown.
			select {
			case s.readyc <- w.id:
			default:
				s.fail(fmt.Errorf("netcluster: worker %d (%s): surplus ready", w.id, w.addr))
				return
			}
		case MsgHeartbeat:
		case MsgEvent:
			ev, err := DecodeEvent(body)
			if err != nil {
				s.fail(fmt.Errorf("netcluster: worker %d: corrupt event: %w", w.id, err))
				return
			}
			s.countCtrl(1, len(body))
			select {
			case s.events <- core.CoordEvent{Kind: core.CoordEventKind(ev.Kind), Pos: ev.Pos, Branch: ev.Branch, Count: ev.Count}:
			case <-s.failed:
				return
			}
		case MsgBarrierAck:
			m, err := DecodeBarrier(body)
			if err != nil {
				s.fail(fmt.Errorf("netcluster: worker %d: corrupt barrier ack: %w", w.id, err))
				return
			}
			s.countCtrl(1, len(body))
			select {
			case s.barrierc <- m.Seq:
			case <-s.failed:
				return
			}
		case MsgResult:
			r, err := DecodeResult(body)
			if err != nil {
				s.fail(fmt.Errorf("netcluster: worker %d: corrupt result: %w", w.id, err))
				return
			}
			select {
			case s.resultc <- workerResult{id: w.id, msg: r}:
			case <-s.failed:
				return
			}
		case MsgPong:
			m, err := DecodePong(body)
			if err != nil {
				s.fail(fmt.Errorf("netcluster: worker %d: corrupt pong: %w", w.id, err))
				return
			}
			s.handlePong(w, m)
		case MsgStats:
			// Telemetry frames are not charged to the control-traffic
			// counters: they measure observability overhead, not the
			// per-step control plane the paper's figures are about.
			m, err := DecodeStats(body, keys)
			if err != nil {
				s.fail(fmt.Errorf("netcluster: worker %d: corrupt stats: %w", w.id, err))
				return
			}
			// JSON payload errors are tolerated: telemetry is best-effort
			// and must never take a healthy job down.
			s.tel.onStats(w.id, m) //nolint:errcheck
		case MsgTrace:
			m, err := DecodeTrace(body)
			if err != nil {
				s.fail(fmt.Errorf("netcluster: worker %d: corrupt trace: %w", w.id, err))
				return
			}
			s.tel.onTrace(w.id, m) //nolint:errcheck
		case MsgError:
			m, _ := DecodeError(body)
			s.fail(fmt.Errorf("netcluster: worker %d (%s) failed: %s", w.id, w.addr, m.Msg))
			return
		default:
			s.fail(fmt.Errorf("netcluster: worker %d sent unexpected message %#x", w.id, typ))
			return
		}
	}
}

// monitor fails the session when a worker goes silent past the heartbeat
// timeout — the no-hang guarantee when a worker process wedges rather
// than dies (a dead process closes its connection, which is detected
// immediately by readWorker). It doubles as the RTT probe source: one
// MsgPing per worker per tick (and one up front, so clock offsets exist
// before the first telemetry frames arrive).
func (s *session) monitor() {
	defer s.wg.Done()
	tick := max(s.cfg.HeartbeatTimeout/4, time.Millisecond)
	s.sendPings()
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			now := time.Now().UnixNano()
			for _, w := range s.workers {
				silent := time.Duration(now - w.lastBeat.Load())
				if silent > s.cfg.HeartbeatTimeout {
					s.fail(fmt.Errorf("netcluster: worker %d (%s) lost: no heartbeat for %v (timeout %v)",
						w.id, w.addr, silent.Round(time.Millisecond), s.cfg.HeartbeatTimeout))
					return
				}
			}
			s.sendPings()
		case <-s.monStop:
			return
		case <-s.failed:
			return
		}
	}
}

// sendPings sends one RTT probe per worker. Probes replace each other (one
// outstanding per worker); a write failure is left for readWorker or the
// next heartbeat check to report with a better cause.
func (s *session) sendPings() {
	var buf []byte
	for _, w := range s.workers {
		seq := w.pingSeq.Add(1)
		w.pingSentWall.Store(time.Now().UnixNano())
		buf = AppendPing(buf[:0], PingMsg{Seq: int(seq)})
		if s.sendTo(w, MsgPing, buf) != nil {
			return
		}
	}
}

// handlePong resolves one RTT probe: the round trip lands in the worker's
// heartbeat_rtt histogram, and the clock-offset sample (worker wall minus
// the probe's midpoint) feeds the minimum-RTT offset estimate.
func (s *session) handlePong(w *workerConn, m PongMsg) {
	if int64(m.Seq) != w.pingSeq.Load() {
		return // stale probe; a fresher one is already in flight
	}
	sent := w.pingSentWall.Load()
	if sent == 0 {
		return
	}
	rtt := time.Duration(time.Now().UnixNano() - sent)
	if rtt < 0 {
		return
	}
	offset := time.Duration(m.WallNanos - (sent + int64(rtt)/2))
	s.tel.observeRTT(w.id, rtt, offset)
}

// tcpControlPlane carries core.Coordinator's frames to the workers. All
// methods run under the coordinator's mutex, and session.broadcast writes
// synchronously, so one encode buffer is reused across every control
// frame — the per-step broadcast path allocates nothing.
type tcpControlPlane struct {
	s   *session
	buf []byte
}

// bcastCtrl broadcasts one control frame and charges it to the session's
// control-traffic counters (one frame per worker).
func (cp *tcpControlPlane) bcastCtrl(typ byte, body []byte) {
	cp.s.broadcast(typ, body)
	cp.s.countCtrl(len(cp.s.workers), len(body))
}

// Broadcast ships one path extension as its position and head block, in
// either mode: every worker resolves the rest of the segment from its own
// plan (workerJobRun.applyLocked).
func (cp *tcpControlPlane) Broadcast(seg core.PathSegment) {
	cp.buf = AppendPathSeg(cp.buf[:0], PathSegMsg{Pos: seg.Pos, Head: int(seg.Head)})
	cp.bcastCtrl(MsgPathSeg, cp.buf)
}

// Barrier performs a real superstep barrier: one round trip to every
// worker. The coordinator only raises it when all completions for the
// fenced positions are already in, so an ack means "drained".
func (cp *tcpControlPlane) Barrier() {
	s := cp.s
	s.barrierSeq++
	seq := s.barrierSeq
	cp.buf = AppendBarrier(cp.buf[:0], BarrierMsg{Seq: seq})
	cp.bcastCtrl(MsgBarrier, cp.buf)
	for acks := 0; acks < len(s.workers); {
		select {
		case got := <-s.barrierc:
			if got == seq {
				acks++
			}
		case <-s.failed:
			return
		}
	}
}

// Stop is called once per attempt (the Coordinator goes inert after it).
func (cp *tcpControlPlane) Stop(err error) {
	if err != nil {
		cp.s.fail(err)
		return
	}
	cp.bcastCtrl(MsgFinish, []byte{0})
}

// preparedJob is the resolved job setup, computed once per Run and reused
// verbatim by every re-execution attempt: the plan the control-flow
// manager drives and the encoded job shipment. Only worker identity
// changes between attempts, never job structure, so the control-plane
// work of compiling, planning, and serializing is paid once (the
// Execution Templates observation applied to re-execution). A re-admitted
// worker keeps its machine ID, so it is sent the same spec again.
type preparedJob struct {
	plan  *core.Plan
	opts  core.Options
	specs [][]byte // encoded JobSpec per machine ID, sent per attempt
}

// ErrReadPartitioning reports a plan whose readFile operator does not run one
// instance per input partition: its instances would not read the stride
// partitions the coordinator ships.
var ErrReadPartitioning = errors.New("netcluster: readFile parallelism differs from the job's")

// compileSource turns shipped program source into the job's plan. The
// coordinator and every worker run exactly this on the same source with
// the same options, which is what makes their plans — operator IDs,
// placement, template segments — identical without serializing any of it.
func compileSource(source string, machines int, opts core.Options) (*core.Plan, error) {
	prog, err := lang.Parse(source)
	if err != nil {
		return nil, err
	}
	if _, err := lang.Check(prog); err != nil {
		return nil, err
	}
	ssa, err := ir.CompileToSSA(prog)
	if err != nil {
		return nil, err
	}
	return core.Compile(ssa, machines, opts)
}

// prepare compiles and plans the job locally and encodes the shipment.
// The coordinator needs the plan for the control-flow manager (block
// structure, instances per block); the workers rebuild the identical plan
// from the same source.
func (c *Coordinator) prepare(source string, st NamedStore, opts core.Options) (*preparedJob, error) {
	if opts.Parallelism == 0 {
		opts.Parallelism = c.cfg.Workers // the spec ships the resolved value
	}
	plan, err := compileSource(source, c.cfg.Workers, opts)
	if err != nil {
		return nil, err
	}
	for _, op := range plan.Ops {
		if op.Instr.Kind == ir.OpReadFile && op.Par != opts.Parallelism {
			return nil, fmt.Errorf("%w: %s runs %d instances, the job %d", ErrReadPartitioning, op.Instr.Var, op.Par, opts.Parallelism)
		}
	}
	names := st.Names()
	sort.Strings(names)
	specs, err := encodeSpecs(specFromOptions(source, opts, nil), st, names, c.cfg.Workers, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return &preparedJob{plan: plan, opts: opts, specs: specs}, nil
}

// encodeSpecs encodes spec once per worker, each carrying the worker's share
// of the named datasets: stride partition i of every dataset — elements i,
// i+parts, i+2*parts, ... — goes to the worker hosting readFile instance i,
// machine i%workers (the dataflow placement rule), so the specs together hold
// one copy of the input. The partitions are element strides whatever blocks
// the store keeps. Each dataset is streamed twice as partition 0 of 1, in
// place: the first pass counts and sizes every stride partition, so each
// spec is allocated once at its final size with room left for every
// partition it hosts, and the second encodes each element into its
// partition's room.
func encodeSpecs(spec JobSpec, st store.Store, names []string, workers, parts int) ([][]byte, error) {
	var hdr enc
	appendJobHeader(&hdr, spec)
	// Per part p of dataset k, at k*parts+p: its element count, their encoded
	// size, and, once laid out, where its next element goes in its spec and
	// where its room there ends.
	count := make([]int, len(names)*parts)
	encoded := make([]int, len(names)*parts)
	at := make([]int, len(names)*parts)
	end := make([]int, len(names)*parts)
	var row, p, n int // the dataset's first index, the next element's part, elements seen
	sizeElem := func(v val.Value) error {
		count[row+p]++
		encoded[row+p] += val.EncodedSize(v)
		if p++; p == parts {
			p = 0
		}
		return nil
	}
	for k, name := range names {
		row, p = k*parts, 0
		if err := st.ReadPartition(name, 0, 1, nil, sizeElem); err != nil {
			return nil, fmt.Errorf("netcluster: reading input dataset %q: %w", name, err)
		}
	}
	specs := make([][]byte, workers)
	for w := range specs {
		size, hosted := len(hdr.b)+binary.MaxVarintLen64, 0
		for q := w; q < parts; q += workers {
			hosted++
			for k, name := range names {
				size += len(name) + 4*binary.MaxVarintLen64 + encoded[k*parts+q]
			}
		}
		e := enc{b: make([]byte, 0, size)}
		e.b = append(e.b, hdr.b...)
		e.u64(uint64(len(names) * hosted))
		for k, name := range names {
			for q := w; q < parts; q += workers {
				j := k*parts + q
				appendDatasetHead(&e, name, q, parts, count[j])
				at[j] = len(e.b)
				e.b = e.b[:at[j]+encoded[j]]
				end[j] = len(e.b)
			}
		}
		specs[w] = e.b
	}
	host := make([][]byte, parts) // the spec that carries part p
	for q := range host {
		host[q] = specs[q%workers]
	}
	encodeElem := func(v val.Value) error {
		at[row+p] = len(val.AppendBinary(host[p][:at[row+p]], v))
		n++
		if p++; p == parts {
			p = 0
		}
		return nil
	}
	for k, name := range names {
		row, p, n = k*parts, 0, 0
		err := st.ReadPartition(name, 0, 1, nil, encodeElem)
		// A dataset rewritten between the passes may have overrun a room;
		// the spec is then discarded, never shipped.
		changed := false
		for j := row; j < row+parts; j++ {
			n -= count[j]
			changed = changed || at[j] != end[j]
		}
		if err == nil && (changed || n != 0) {
			err = errors.New("it changed while being shipped")
		}
		if err != nil {
			return nil, fmt.Errorf("netcluster: reading input dataset %q: %w", name, err)
		}
	}
	return specs, nil
}

// ensureSession returns a live session, re-admitting workers into a fresh
// one when the current session has failed. Re-establishment only happens
// on the retry path (reestablish=true): with an exhausted or zero budget
// a dead session fails fast instead of blocking in accept.
func (c *Coordinator) ensureSession(reestablish bool) (*session, error) {
	c.mu.Lock()
	s := c.sess
	c.mu.Unlock()
	if s != nil && s.Err() == nil {
		return s, nil
	}
	if !reestablish {
		if s == nil {
			return nil, errors.New("netcluster: no session")
		}
		return nil, s.Err()
	}
	if s != nil {
		s.shutdown()
	}
	c.mu.Lock()
	c.sess = nil
	c.mu.Unlock()
	if c.closed.Load() {
		return nil, errors.New("netcluster: session closed")
	}
	ns, err := c.establish()
	if err != nil {
		return nil, fmt.Errorf("netcluster: rebuilding worker pool: %w", err)
	}
	if c.closed.Load() { // Close raced the re-establish; don't leak the session
		ns.shutdown()
		return nil, errors.New("netcluster: session closed")
	}
	c.mu.Lock()
	c.sess = ns
	c.mu.Unlock()
	return ns, nil
}

// Run executes one program on the cluster: ship source and inputs, drive
// the control flow, collect the workers' results, write their output
// datasets back into st, and return the merged stats. Options follow
// core.Options semantics; Parallelism 0 selects one instance per worker.
//
// When a worker is lost mid-job and cfg.Retries > 0, Run tears the
// attempt down, re-admits workers until the pool is whole, and re-
// executes — the job recompiles deterministically from source, so a
// retry needs no checkpoint. Exhausting the budget returns a *RetryError
// carrying every attempt's error.
func (c *Coordinator) Run(source string, st NamedStore, opts core.Options) (res *Result, rerr error) {
	if !c.running.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("netcluster: coordinator already running a job")
	}
	defer c.running.Store(false)
	job, err := c.prepare(source, st, opts)
	if err != nil {
		return nil, err
	}
	c.tel.beginJob(opts.Obs)
	if opts.HTTP != nil {
		// One scrape covers the whole cluster: /metrics serves the
		// federated snapshot, /jobs/{id} the per-worker live view.
		opts.HTTP.SetSnapshotSource(c.FederatedSnapshot)
		view := newTCPJobView("mitos-tcp", job.plan, c.tel)
		opts.HTTP.Register(view)
		defer func() { view.finish(rerr) }()
	}
	start := time.Now()
	var history []AttemptError
	backoff := c.cfg.RetryBackoff
	for attempt := 1; ; attempt++ {
		// With a retry budget, even the first attempt may rebuild a pool
		// that died while idle; without one, a dead session fails fast.
		s, err := c.ensureSession(attempt > 1 || c.cfg.Retries > 0)
		if err == nil {
			var res *Result
			res, err = c.runAttempt(s, job, st)
			if err == nil {
				res.Duration = time.Since(start)
				res.Attempts = attempt
				for _, a := range history {
					res.AttemptErrors = append(res.AttemptErrors, a.Err.Error())
				}
				return res, nil
			}
			s.shutdown()
		}
		history = append(history, AttemptError{Attempt: attempt, Time: time.Now(), Err: err})
		if attempt == 1 && c.cfg.Retries == 0 {
			return nil, err // fail-fast configuration: preserve the bare cause
		}
		if attempt > c.cfg.Retries || c.closed.Load() {
			return nil, &RetryError{Budget: c.cfg.Retries, Attempts: history}
		}
		select {
		case <-time.After(backoff):
		case <-c.closec:
			history = append(history, AttemptError{Attempt: attempt + 1, Time: time.Now(),
				Err: errors.New("netcluster: coordinator closed during retry backoff")})
			return nil, &RetryError{Budget: c.cfg.Retries, Attempts: history}
		}
		if backoff *= 2; backoff > c.cfg.RetryBackoffMax {
			backoff = c.cfg.RetryBackoffMax
		}
	}
}

// runAttempt executes the prepared job once on a live session.
func (c *Coordinator) runAttempt(s *session, job *preparedJob, st NamedStore) (*Result, error) {
	// A retry starts from a clean federated view (worker registries are
	// rebuilt from zero), and the lineage clock restarts with the attempt
	// so worker lineage absorbs onto the right timeline.
	c.tel.beginJob(job.opts.Obs)
	job.opts.Obs.Lin().Begin()
	s.ship(job.specs)

	// The control-flow manager is the one the simulated backend drives
	// inline from its hosts; here this loop feeds it the events the worker
	// readers queue. Leaving the loop on failure strands nobody: a reader's
	// send on s.events also selects on s.failed, and a protocol error fails
	// the session (tcpControlPlane.Stop) as it makes the coordinator inert.
	co := core.NewCoordinator(job.plan, job.opts, c.cfg.Workers, &tcpControlPlane{s: s})
	co.Seed()
	results := make([]*ResultMsg, c.cfg.Workers)
	for got := 0; got < c.cfg.Workers; {
		select {
		case ev := <-s.events:
			co.OnEvent(ev)
		case r := <-s.resultc:
			if results[r.id] == nil {
				msg := r.msg
				results[r.id] = &msg
				got++
			}
		case <-s.failed:
			return nil, s.err
		}
	}
	out := &Result{
		Result:       *co.Result(),
		CtrlMessages: s.ctrlMsgs.Load(),
		CtrlBytes:    s.ctrlBytes.Load(),
		PeerLinks:    make([][]PeerStat, len(results)),
		WorkerStats:  make([]*obs.Snapshot, len(results)),
	}
	for id, r := range results {
		// The final telemetry flush precedes MsgResult on each (ordered)
		// control connection, so every worker's end-of-job snapshot is
		// already federated by the time its result was collected above.
		out.WorkerStats[id] = c.tel.fed.Worker(id)
		out.Merge(&r.Result)
		out.PeerLinks[id] = r.Peers
		for _, p := range r.Peers {
			out.SocketBytes += p.BytesOut
			out.CreditStalls += p.CreditStalls
			out.CreditStallTime += time.Duration(p.StallNanos)
		}
		for _, ds := range r.Datasets {
			if err := st.WriteDataset(ds.Name, ds.Elems); err != nil {
				return nil, fmt.Errorf("netcluster: merging output dataset %q: %w", ds.Name, err)
			}
		}
	}
	s.report(job.opts.Obs.Reg(), out)
	return out, nil
}

// report adds a job's share of the session's counters to reg (nil records
// nothing): out's totals, which accumulate over the session's jobs, less
// those of the previous report, which report then replaces with out's.
func (s *session) report(reg *obs.Registry, out *Result) {
	prev := &s.reported
	reg.Counter(obs.MachineDriver, "netcluster", "ctrl_messages").Add(out.CtrlMessages - prev.CtrlMessages)
	reg.Counter(obs.MachineDriver, "netcluster", "ctrl_bytes").Add(out.CtrlBytes - prev.CtrlBytes)
	for id, links := range out.PeerLinks {
		for j, p := range links {
			var q PeerStat // a peer link's counters start at zero
			if id < len(prev.PeerLinks) && j < len(prev.PeerLinks[id]) {
				q = prev.PeerLinks[id][j]
			}
			reg.Counter(id, "netcluster", "socket_bytes_out").Add(p.BytesOut - q.BytesOut)
			reg.Counter(id, "netcluster", "socket_bytes_in").Add(p.BytesIn - q.BytesIn)
			reg.Counter(id, "netcluster", "credit_stalls").Add(p.CreditStalls - q.CreditStalls)
			reg.Counter(id, "netcluster", "credit_stall_nanos").Add(p.StallNanos - q.StallNanos)
		}
	}
	s.reported = Result{CtrlMessages: out.CtrlMessages, CtrlBytes: out.CtrlBytes, PeerLinks: out.PeerLinks}
}

// FederatedSnapshot returns the cluster-wide merged metrics snapshot: the
// coordinator's own instruments (per-worker heartbeat RTT), the running
// job's driver-side registry, and the latest snapshot each worker shipped.
func (c *Coordinator) FederatedSnapshot() *obs.Snapshot {
	return c.tel.fed.Merged()
}

// WorkerSnapshot returns the latest metrics snapshot worker id shipped
// (nil before the first telemetry frame).
func (c *Coordinator) WorkerSnapshot(id int) *obs.Snapshot {
	return c.tel.fed.Worker(id)
}

// workerID reports the stable machine ID assigned to a registration name,
// or -1. Tests use it to pin ID stability across re-admission.
func (c *Coordinator) workerID(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.ids[name]; ok {
		return id
	}
	return -1
}
