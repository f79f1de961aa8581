package netcluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/val"
)

// The data plane: a full mesh of TCP connections between workers, one per
// unordered pair — worker i dials every j < i and accepts every j > i, so
// each pair meets on exactly one connection carrying both directions.
//
// Each peer link runs three goroutines. One reader drains the connection:
// data frames go into the local partition's mailboxes (non-blocking puts)
// and inbound credit grants top up the sender-side table. Two writers
// share the socket under the peer's write lock: the frame sender drains
// an egress queue of data/EOB/flush frames, acquiring one flow-control
// credit per gated frame — it is the only goroutine that ever blocks in
// credits.acquire — and the grant sender drains a separate priority
// queue of outbound credit returns.
//
// That split is what makes the flow control deadlock-free. The dataflow
// event loops only ever enqueue (never touch a socket or a credit), so a
// vertex blocked behind a slow consumer keeps processing its own mailbox
// and keeps acknowledging — the property DESIGN.md states as "credit
// grants must never require the blocked path to make progress". With
// grants on their own lane they can never queue behind a gated frame
// that is itself waiting for the other direction's grant. Every blocking
// wait in the mesh is therefore on a party that cannot block in return:
// frame senders wait on grants issued by read loops, and socket writes
// wait on the remote read loop — read loops block only in read. Pinned
// (with the history of the bug this replaces — producers used to block
// event loops directly in acquire, and pipelined loop programs deadlocked
// under windows small enough to matter) by TestTCPTinyCreditWindow.
//
// Ordering: the bag protocol needs per-(producer, consumer, input) FIFO.
// All data frames between two workers share one egress queue feeding one
// TCP connection read by one goroutine, which is FIFO end to end; credit
// grants bypass the queue but carry no ordering obligations.

const (
	handshakeTimeout = 10 * time.Second
	// DefaultCreditWindow is the per-channel in-flight frame cap on peer
	// links. At the default batch size of 128 elements a window of 64
	// bounds each channel to ~8k unprocessed elements on the receiver.
	DefaultCreditWindow = 64
)

// mesh implements dataflow.Remote over the peer connections of one worker.
type mesh struct {
	self   int
	n      int
	window int
	peers  []*peer // indexed by machine ID; nil at self
	fail   func(error)

	// The hosted job partition changes across a session's sequential jobs;
	// readers park on jobReady while no job is installed (TCP buffers any
	// early frames from peers that started the next job first).
	jobMu    sync.Mutex
	job      *dataflow.Job
	jobReady chan struct{}

	tokens chan int // flush tokens received, by peer ID
	done   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

// peer is one established link to another worker.
type peer struct {
	id      int
	conn    net.Conn
	credits *credits
	// Both lanes are unbounded (dataflow.Queue): the credit window bounds
	// the receiver's unprocessed frames per channel — the guarantee that
	// matters for a slow consumer — not the sender's backlog.
	frames *dataflow.Queue[outFrame] // gated egress: data, EOB, flush
	grants *dataflow.Queue[outFrame] // priority lane: outbound credit returns

	wmu  sync.Mutex
	bw   *bufio.Writer
	hbuf []byte // header encode scratch, reused under wmu

	bytesOut  atomic.Int64
	bytesIn   atomic.Int64
	framesOut atomic.Int64
	framesIn  atomic.Int64
}

// outFrame is one queued outbound message. Data frames own their payload
// (val scratch) until written or dropped.
type outFrame struct {
	typ     byte
	hdr     FrameHeader
	payload []byte
}

// newMesh establishes the full mesh: dial lower-numbered peers, accept
// higher-numbered ones on ln, then start the reader goroutines.
func newMesh(self int, addrs []string, window int, ln net.Listener, fail func(error)) (*mesh, error) {
	n := len(addrs)
	if window <= 0 {
		window = DefaultCreditWindow
	}
	m := &mesh{
		self:     self,
		n:        n,
		window:   window,
		peers:    make([]*peer, n),
		fail:     fail,
		jobReady: make(chan struct{}),
		tokens:   make(chan int, 4*n+4),
		done:     make(chan struct{}),
	}
	for id := 0; id < self; id++ {
		conn, err := net.DialTimeout("tcp", addrs[id], handshakeTimeout)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("netcluster: worker %d dialing peer %d (%s): %w", self, id, addrs[id], err)
		}
		if err := WriteMsg(conn, MsgHello, AppendHello(nil, Hello{Role: RolePeer, ID: self})); err != nil {
			conn.Close()
			m.close()
			return nil, fmt.Errorf("netcluster: worker %d hello to peer %d: %w", self, id, err)
		}
		m.peers[id] = newPeer(id, conn, window)
	}
	for accepted := 0; accepted < n-1-self; accepted++ {
		if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(time.Now().Add(handshakeTimeout))
		}
		conn, err := ln.Accept()
		if err != nil {
			m.close()
			return nil, fmt.Errorf("netcluster: worker %d accepting peers: %w", self, err)
		}
		id, err := m.acceptPeer(conn)
		if err != nil {
			conn.Close()
			m.close()
			return nil, err
		}
		m.peers[id] = newPeer(id, conn, window)
	}
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		m.wg.Add(3)
		go m.readLoop(p)
		go m.sendFrames(p)
		go m.sendGrants(p)
	}
	return m, nil
}

func newPeer(id int, conn net.Conn, window int) *peer {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency over bandwidth: frames are already batched
	}
	return &peer{
		id:      id,
		conn:    conn,
		credits: newCredits(window),
		frames:  dataflow.NewQueue[outFrame](),
		grants:  dataflow.NewQueue[outFrame](),
		bw:      bufio.NewWriter(conn),
	}
}

// sendFrames is the peer link's frame sender: it drains the egress queue,
// pays one credit per data/EOB frame (flush tokens ride free — they must
// stay FIFO behind the data they seal but carry no receiver memory), and
// writes to the socket. It is the only goroutine that blocks in acquire;
// a closed credit table fails every acquire, so teardown drains the
// backlog straight to the scratch pool.
func (m *mesh) sendFrames(p *peer) {
	defer m.wg.Done()
	for {
		f, ok := p.frames.Take()
		if !ok {
			return
		}
		if f.typ == MsgData || f.typ == MsgEOB {
			k := chanKey{op: f.hdr.Op, inst: f.hdr.Inst, input: f.hdr.Input, from: f.hdr.From}
			if !p.credits.acquire(k) {
				if f.payload != nil {
					val.PutScratch(f.payload) // tearing down; the job is failing anyway
				}
				continue
			}
		}
		m.write(p, f.typ, f.hdr, f.payload)
		if f.payload != nil {
			val.PutScratch(f.payload)
		}
	}
}

// sendGrants writes outbound credit returns on their own lane, so a grant
// can never wait behind a gated frame that is itself waiting for the
// opposite direction's grant.
func (m *mesh) sendGrants(p *peer) {
	defer m.wg.Done()
	for {
		f, ok := p.grants.Take()
		if !ok {
			return
		}
		m.write(p, f.typ, f.hdr, nil)
	}
}

// acceptPeer validates one inbound peer handshake and returns the dialer's
// machine ID.
func (m *mesh) acceptPeer(conn net.Conn) (int, error) {
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetReadDeadline(time.Time{})
	typ, body, _, err := ReadMsg(conn, nil)
	if err != nil {
		return 0, fmt.Errorf("netcluster: worker %d reading peer hello: %w", m.self, err)
	}
	if typ != MsgHello {
		return 0, fmt.Errorf("netcluster: worker %d: peer sent %#x before hello", m.self, typ)
	}
	h, err := DecodeHello(body)
	if err != nil {
		return 0, err
	}
	if h.Role != RolePeer {
		return 0, fmt.Errorf("netcluster: worker %d: inbound connection with role %d on the data port", m.self, h.Role)
	}
	if h.ID <= m.self || h.ID >= m.n {
		return 0, fmt.Errorf("netcluster: worker %d: peer claims machine ID %d (want %d..%d)", m.self, h.ID, m.self+1, m.n-1)
	}
	if m.peers[h.ID] != nil {
		return 0, fmt.Errorf("netcluster: worker %d: duplicate connection from peer %d", m.self, h.ID)
	}
	return h.ID, nil
}

// setJob installs the partition frames should be delivered into.
func (m *mesh) setJob(j *dataflow.Job) {
	m.jobMu.Lock()
	m.job = j
	close(m.jobReady)
	m.jobMu.Unlock()
}

// clearJob uninstalls the finished partition; readers park again.
func (m *mesh) clearJob() {
	m.jobMu.Lock()
	m.job = nil
	m.jobReady = make(chan struct{})
	m.jobMu.Unlock()
}

// idle reports whether no job partition is installed.
func (m *mesh) idle() bool {
	m.jobMu.Lock()
	defer m.jobMu.Unlock()
	return m.job == nil
}

// waitJob blocks until a job partition is installed (nil when the mesh
// closes first).
func (m *mesh) waitJob() *dataflow.Job {
	for {
		m.jobMu.Lock()
		j, ready := m.job, m.jobReady
		m.jobMu.Unlock()
		if j != nil {
			return j
		}
		select {
		case <-ready:
		case <-m.done:
			return nil
		}
	}
}

// SendData implements dataflow.Remote: the frame joins the peer's egress
// queue and the emit path returns immediately — the frame sender pays the
// credit. The payload (owned by the mesh from here) returns to the val
// scratch pool once written or dropped.
func (m *mesh) SendData(dest int, h dataflow.RemoteHeader, payload []byte, count int) {
	p := m.peers[dest]
	hdr := FrameHeader{Op: int(h.Op), Inst: h.Inst, Input: h.Input, From: h.From, Arg: count}
	if !p.frames.Put(outFrame{typ: MsgData, hdr: hdr, payload: payload}) {
		val.PutScratch(payload) // session tearing down; the job is failing anyway
	}
}

// SendEOB implements dataflow.Remote. EOBs consume credits like data — the
// window then bounds total unprocessed frames, and an EOB burst (broadcast
// bags fan EOBs to every instance) cannot overrun a slow consumer either.
func (m *mesh) SendEOB(dest int, h dataflow.RemoteHeader, tag dataflow.Tag) {
	p := m.peers[dest]
	p.frames.Put(outFrame{typ: MsgEOB, hdr: FrameHeader{Op: int(h.Op), Inst: h.Inst, Input: h.Input, From: h.From, Arg: int(tag)}})
}

// sendFlush sends the quiesce token to every peer. Queued after the last
// data frame of a job (the egress queue is FIFO), its arrival tells the
// receiver that everything this worker ever sent for the job is already
// in local mailboxes, so trailing EOBs are never dropped by a racing
// shutdown.
func (m *mesh) sendFlush() {
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		p.frames.Put(outFrame{typ: MsgFlush})
	}
}

// awaitFlush collects the quiesce token from every peer.
func (m *mesh) awaitFlush(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for got := 0; got < m.n-1; got++ {
		select {
		case <-m.tokens:
		case <-m.done:
			return fmt.Errorf("netcluster: worker %d: mesh closed during quiesce", m.self)
		case <-deadline.C:
			return fmt.Errorf("netcluster: worker %d: quiesce timeout, %d/%d flush tokens", m.self, got, m.n-1)
		}
	}
	return nil
}

// write frames and writes one message on p, under the peer's write lock.
func (m *mesh) write(p *peer, typ byte, hdr FrameHeader, payload []byte) {
	p.wmu.Lock()
	p.hbuf = AppendFrameHeader(p.hbuf[:0], hdr)
	err := WriteMsg(p.bw, typ, p.hbuf, payload)
	if err == nil {
		err = p.bw.Flush()
	}
	nbytes := int64(5 + len(p.hbuf) + len(payload))
	p.wmu.Unlock()
	if err != nil {
		if !m.closed.Load() {
			m.fail(fmt.Errorf("netcluster: worker %d: write to peer %d: %w", m.self, p.id, err))
		}
		return
	}
	p.framesOut.Add(1)
	p.bytesOut.Add(nbytes)
}

// readLoop drains one peer connection for the life of the session.
func (m *mesh) readLoop(p *peer) {
	defer m.wg.Done()
	br := bufio.NewReader(p.conn)
	var buf []byte
	var slab val.Slab // this link's decode slab
	for {
		typ, body, nbuf, err := ReadMsg(br, buf)
		buf = nbuf
		if err != nil {
			// Between jobs, a peer hangup is session teardown racing ahead of
			// our own coordinator EOF, not a failure: the coordinator's
			// control connection is the authoritative failure signal while
			// idle. Mid-job it is fatal — the partition cannot finish.
			if !m.closed.Load() && !m.idle() {
				m.fail(fmt.Errorf("netcluster: worker %d: peer %d connection lost: %w", m.self, p.id, err))
			}
			return
		}
		p.framesIn.Add(1)
		p.bytesIn.Add(int64(5 + len(body)))
		switch typ {
		case MsgData, MsgEOB:
			hdr, payload, err := DecodeFrameHeader(body)
			if err != nil {
				m.fail(fmt.Errorf("netcluster: worker %d: corrupt frame from peer %d: %w", m.self, p.id, err))
				return
			}
			j := m.waitJob()
			if j == nil {
				return // mesh closed while parked
			}
			rh := dataflow.RemoteHeader{Op: dataflow.OpID(hdr.Op), Inst: hdr.Inst, Input: hdr.Input, From: hdr.From}
			k := chanKey{op: hdr.Op, inst: hdr.Inst, input: hdr.Input, from: hdr.From}
			ack := func() { m.sendCredit(p, k) }
			if typ == MsgData {
				err = j.DeliverData(rh, payload, hdr.Arg, &slab, ack)
			} else {
				err = j.DeliverEOB(rh, dataflow.Tag(hdr.Arg), ack)
			}
			if err != nil {
				// The job partition already failed itself; fail the session
				// so the coordinator hears about it even if the local Wait
				// watcher loses the race with teardown.
				m.fail(err)
				return
			}
		case MsgCredit:
			hdr, _, err := DecodeFrameHeader(body)
			if err != nil {
				m.fail(fmt.Errorf("netcluster: worker %d: corrupt credit from peer %d: %w", m.self, p.id, err))
				return
			}
			p.credits.grant(chanKey{op: hdr.Op, inst: hdr.Inst, input: hdr.Input, from: hdr.From}, hdr.Arg)
		case MsgFlush:
			select {
			case m.tokens <- p.id:
			case <-m.done:
				return
			}
		default:
			m.fail(fmt.Errorf("netcluster: worker %d: unexpected message %#x on peer link %d", m.self, typ, p.id))
			return
		}
	}
}

// sendCredit returns one processed frame's credit to the producer by
// queuing it on the grant lane. Called from the receiving partition's
// event loop (envelope ack) or, for post-close drops, from whichever
// goroutine dropped the envelope — either way it never blocks.
func (m *mesh) sendCredit(p *peer, k chanKey) {
	p.grants.Put(outFrame{typ: MsgCredit, hdr: FrameHeader{Op: k.op, Inst: k.inst, Input: k.input, From: k.from, Arg: 1}})
}

// egressBacklog returns the total frames queued on every peer's egress
// lane but not yet written — the worker's outbound data-plane backlog,
// sampled for the live telemetry view.
func (m *mesh) egressBacklog() int {
	total := 0
	for _, p := range m.peers {
		if p != nil {
			total += p.frames.Depth()
		}
	}
	return total
}

// stats snapshots every peer link's counters.
func (m *mesh) stats() []PeerStat {
	var out []PeerStat
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		out = append(out, PeerStat{
			Peer:         p.id,
			BytesOut:     p.bytesOut.Load(),
			BytesIn:      p.bytesIn.Load(),
			FramesOut:    p.framesOut.Load(),
			FramesIn:     p.framesIn.Load(),
			CreditStalls: p.credits.stalls.Load(),
			StallNanos:   p.credits.stallNanos.Load(),
		})
	}
	return out
}

// close tears the mesh down: credit waiters unblock, sender backlogs
// drain to the scratch pool, reader loops exit. Idempotent.
func (m *mesh) close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	close(m.done)
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		p.credits.close()
		p.frames.Close()
		p.grants.Close()
		p.conn.Close()
	}
	m.wg.Wait()
}
