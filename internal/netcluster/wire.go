// Package netcluster is the real multi-process TCP cluster backend: a
// coordinator that assigns machine IDs, ships job plans, and runs the
// control-flow manager over sockets, plus workers that host one machine's
// partition of the dataflow job and exchange data frames peer-to-peer with
// credit-based flow control. The simulated cluster (internal/cluster)
// models network and coordination costs; this backend pays them for real —
// wall-clock replaces NetDelay/Bandwidth, heartbeats replace assumption of
// liveness.
//
// This file is the wire protocol. Every message is framed as a 4-byte
// big-endian length (of everything after the length field), one type byte,
// and a body of varint/length-prefixed fields. The handshake carries a
// magic number and protocol version so mismatched binaries fail with a
// clear error instead of undefined framing. Bodies are self-contained:
// decoding validates every length against the remaining bytes, so a
// truncated, oversized, or corrupt-length frame errors without panicking
// and without allocating more than a constant factor of the bytes actually
// received (a decoded element takes at least one byte on the wire).
package netcluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/val"
)

const (
	// Magic opens every Hello; it spells "MITS".
	Magic = 0x4d495453
	// Version is the protocol version; coordinator and workers must match.
	// v2 added Register.Name (stable worker identity for re-admission).
	// v3 added execution templates: PathTmpl/PathSeg control frames,
	// JobSpec.Templates, EventMsg.Count, and ctrl counters in ResultMsg.
	// v4 added distributed telemetry: Stats/Trace frames shipping worker
	// metrics and trace spans to the coordinator, Ping/Pong RTT probes for
	// clock alignment, and the JobSpec Trace/Lineage/LiveView switches.
	// v5 added delta iterations: JobSpec.Delta (incremental solution-set
	// maintenance vs. full per-step re-derivation) and the delta/solution
	// counters in ResultMsg.
	// v6 made every path frame a PathSeg (position, head block): workers
	// resolve templates from their own plan, so PathUpdate and PathTmpl are
	// gone and PathSeg no longer names an installed template.
	// v7 tagged every shipped dataset with its stride partition (part,
	// parts): a worker receives only the input partitions its readFile
	// instances read.
	Version = 7
	// MaxMsg bounds one framed message. Data frames carry one encoded
	// batch (typically a few KiB); job shipment carries a worker's input
	// partitions, which dominates this bound.
	MaxMsg = 64 << 20
	// readChunk is the read-side growth step: a corrupt length prefix can
	// make a reader allocate at most one chunk beyond the bytes actually
	// received, never MaxMsg up front.
	readChunk = 64 << 10
)

// Message types. Control-plane messages (worker <-> coordinator) share the
// number space with data-plane messages (worker <-> worker) so a peer
// connection accidentally pointed at a coordinator fails the type check,
// not the parser.
const (
	MsgHello      byte = 0x01 // both directions: magic, version, role, sender ID
	MsgRegister   byte = 0x02 // worker -> coord: my data-plane listen address
	MsgAssign     byte = 0x03 // coord -> worker: your machine ID, the full peer table
	MsgReady      byte = 0x04 // worker -> coord: mesh established
	MsgJob        byte = 0x05 // coord -> worker: program source, options, the worker's input partitions
	MsgEvent      byte = 0x07 // worker -> coord: decision/completion from a local host
	MsgHeartbeat  byte = 0x08 // worker -> coord: liveness
	MsgBarrier    byte = 0x09 // coord -> worker: superstep barrier request
	MsgBarrierAck byte = 0x0a // worker -> coord: barrier reached
	MsgFinish     byte = 0x0b // coord -> worker: job complete, quiesce and report
	MsgResult     byte = 0x0c // worker -> coord: stats, written datasets, peer counters
	MsgError      byte = 0x0d // worker -> coord: local job failure
	MsgPathSeg    byte = 0x0f // coord -> worker: execution-path extension (position, head block)
	MsgData       byte = 0x10 // worker -> worker: one serialized batch
	MsgEOB        byte = 0x11 // worker -> worker: one end-of-bag marker
	MsgCredit     byte = 0x12 // worker -> worker: flow-control credits returned
	MsgFlush      byte = 0x13 // worker -> worker: quiesce token (all my frames are before this)
	MsgStats      byte = 0x14 // worker -> coord: metrics snapshot (+ lineage on the final flush)
	MsgTrace      byte = 0x15 // worker -> coord: drained trace events
	MsgPing       byte = 0x16 // coord -> worker: RTT/clock probe
	MsgPong       byte = 0x17 // worker -> coord: probe echo with the worker's wall clock
)

// Handshake roles.
const (
	RoleWorker byte = 1 // control connection to the coordinator
	RolePeer   byte = 2 // data connection between workers
)

// prefixLen is what framing adds ahead of a body: the 4-byte length and
// the type byte.
const prefixLen = 5

// keepScratch bounds the write scratch a connection keeps between
// messages. A body that does not fit behind the prefix in it is written
// from where it lies, gathered with the prefix into the same Write, so
// one large message (a MsgJob's shipped inputs) is neither copied nor
// left pinned on the connection. It is not a limit on message size.
const keepScratch = 4096

// putPrefix writes the framing of a typ message with a body of bodyLen
// bytes into b[:prefixLen].
func putPrefix(b []byte, typ byte, bodyLen int) {
	binary.BigEndian.PutUint32(b, uint32(bodyLen+1))
	b[4] = typ
}

// WriteMsg frames body as one message of type typ and writes it to w in one
// Write: a small body is copied behind the prefix in scratch, a large one
// is gathered with it (net.Buffers: one writev on a TCP connection). It
// returns the scratch to pass back in; with a reused scratch a small
// message allocates nothing.
func WriteMsg(w io.Writer, scratch []byte, typ byte, body []byte) ([]byte, error) {
	if len(body)+1 > MaxMsg {
		return scratch, fmt.Errorf("netcluster: message of %d bytes exceeds MaxMsg", len(body)+1)
	}
	msg := append(scratch[:0], 0, 0, 0, 0, 0)
	putPrefix(msg, typ, len(body))
	if prefixLen+len(body) > keepScratch {
		bufs := net.Buffers{msg, body}
		_, err := bufs.WriteTo(w)
		return msg, err
	}
	msg = append(msg, body...)
	_, err := w.Write(msg)
	return msg, err
}

// ReadMsg reads one framed message, reusing buf for the prefix and the
// body when it is large enough. It returns the type, the body (aliasing
// the returned buffer, valid until the next call), and the buffer to pass
// back in.
func ReadMsg(r io.Reader, buf []byte) (typ byte, body, newBuf []byte, err error) {
	if cap(buf) < prefixLen {
		buf = make([]byte, 0, 512)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n == 0 {
		return 0, nil, buf, errors.New("netcluster: empty frame")
	}
	if n > MaxMsg {
		return 0, nil, buf, fmt.Errorf("netcluster: frame of %d bytes exceeds MaxMsg (%d)", n, MaxMsg)
	}
	buf, err = readBody(r, buf, int(n))
	if err != nil {
		return 0, nil, buf, fmt.Errorf("netcluster: short frame: %w", err)
	}
	return buf[0], buf[1:], buf, nil
}

// readBody fills buf with need bytes from r, growing it in bounded chunks
// so a corrupt length prefix cannot force a large allocation before the
// peer has actually sent the bytes.
func readBody(r io.Reader, buf []byte, need int) ([]byte, error) {
	if cap(buf) >= need {
		buf = buf[:need]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = buf[:0]
	for len(buf) < need {
		n := min(need-len(buf), readChunk)
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// enc appends varint/length-prefixed fields.
type enc struct{ b []byte }

func (e *enc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) num(v int)    { e.i64(int64(v)) }
func (e *enc) boolean(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) blob(p []byte) {
	e.u64(uint64(len(p)))
	e.b = append(e.b, p...)
}

// dec consumes what enc appends, accumulating the first error. Every
// length is validated against the remaining bytes before use, so corrupt
// input can neither panic nor allocate beyond what was received.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("netcluster: corrupt %s field", what)
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) num() int {
	v := d.i64()
	if int64(int(v)) != v {
		d.fail("int")
		return 0
	}
	return int(v)
}

func (d *dec) boolean() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.fail("bool")
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v != 0
}

func (d *dec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string length")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// blobRef returns a length-prefixed byte field aliasing the input buffer.
func (d *dec) blobRef() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("blob length")
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// fin rejects trailing garbage and returns the accumulated error.
func (d *dec) fin() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("netcluster: %d trailing bytes", len(d.b))
	}
	return d.err
}

// Hello opens every connection in both directions.
type Hello struct {
	Role byte
	// ID is the dialer's machine ID on RolePeer connections (the accepting
	// worker learns who connected); unused on RoleWorker connections,
	// where the coordinator assigns the ID.
	ID int
}

// AppendHello appends the encoding of h to dst.
func AppendHello(dst []byte, h Hello) []byte {
	e := enc{b: dst}
	e.u64(Magic)
	e.u64(Version)
	e.b = append(e.b, h.Role)
	e.num(h.ID)
	return e.b
}

// DecodeHello decodes a Hello, rejecting mismatched magic or version.
func DecodeHello(b []byte) (Hello, error) {
	d := dec{b: b}
	if m := d.u64(); d.err == nil && m != Magic {
		return Hello{}, fmt.Errorf("netcluster: bad magic %#x (not a mitos cluster endpoint?)", m)
	}
	if v := d.u64(); d.err == nil && v != Version {
		return Hello{}, fmt.Errorf("netcluster: protocol version %d, this binary speaks %d", v, Version)
	}
	var h Hello
	if len(d.b) >= 1 {
		h.Role = d.b[0]
		d.b = d.b[1:]
	} else {
		d.fail("role")
	}
	h.ID = d.num()
	return h, d.fin()
}

// Register is the worker's first message after Hello: where its data-plane
// listener accepts peer connections, and a name identifying the worker
// across reconnects. The name is what makes machine IDs stable under
// re-admission: a worker that redials after a failure presents the same
// name and gets its old ID (and therefore the same i%n partition
// placement) back.
type Register struct {
	DataAddr string
	Name     string
}

// AppendRegister appends the encoding of r to dst.
func AppendRegister(dst []byte, r Register) []byte {
	e := enc{b: dst}
	e.str(r.DataAddr)
	e.str(r.Name)
	return e.b
}

// DecodeRegister decodes a Register.
func DecodeRegister(b []byte) (Register, error) {
	d := dec{b: b}
	r := Register{DataAddr: d.str(), Name: d.str()}
	return r, d.fin()
}

// Assign gives a registered worker its machine ID and the full peer table.
type Assign struct {
	ID              int      // this worker's machine ID
	Workers         int      // cluster size
	Peers           []string // data-plane addresses, indexed by machine ID
	HeartbeatMillis int      // how often to heartbeat the coordinator
	CreditWindow    int      // per-channel in-flight frame cap on peer links
}

// AppendAssign appends the encoding of a to dst.
func AppendAssign(dst []byte, a Assign) []byte {
	e := enc{b: dst}
	e.num(a.ID)
	e.num(a.Workers)
	e.u64(uint64(len(a.Peers)))
	for _, p := range a.Peers {
		e.str(p)
	}
	e.num(a.HeartbeatMillis)
	e.num(a.CreditWindow)
	return e.b
}

// DecodeAssign decodes an Assign.
func DecodeAssign(b []byte) (Assign, error) {
	d := dec{b: b}
	a := Assign{ID: d.num(), Workers: d.num()}
	n := d.u64()
	if n > uint64(len(d.b)) { // each peer address takes at least one byte
		d.fail("peer count")
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		a.Peers = append(a.Peers, d.str())
	}
	a.HeartbeatMillis = d.num()
	a.CreditWindow = d.num()
	return a, d.fin()
}

// Dataset is one named dataset, or one stride partition of it, shipped
// inside a JobSpec or Result. Its elements are elements Part, Part+Parts,
// Part+2*Parts, ... of the dataset, in that order — what readFile instance
// Part of Parts reads. A zero Parts means the whole dataset and is encoded as
// part 0 of 1; a decoded Dataset always has 0 <= Part < Parts.
//
// Elems holds the elements as values: what is encoded, and what DecodeResult
// returns. DecodeJobSpec leaves Elems nil and sets Encoded instead: the
// elements as they arrived, validated but not decoded, aliasing the spec's
// buffer — a worker decodes them on each read.
type Dataset struct {
	Name    string
	Part    int
	Parts   int
	Elems   []val.Value
	Encoded []byte
}

// maxParts bounds a decoded partition count, so every part fits an int.
const maxParts = 1 << 30

// appendDatasetHead appends one dataset entry's header; n elements follow.
func appendDatasetHead(e *enc, name string, part, parts, n int) {
	e.str(name)
	e.u64(uint64(part))
	e.u64(uint64(max(parts, 1)))
	e.u64(uint64(n))
}

func appendDatasets(e *enc, ds []Dataset) {
	e.u64(uint64(len(ds)))
	for _, d := range ds {
		appendDatasetHead(e, d.Name, d.Part, d.Parts, len(d.Elems))
		for _, v := range d.Elems {
			e.b = val.AppendBinary(e.b, v)
		}
	}
}

// decodeDatasets decodes the datasets of one message. Decoded, their tuples
// and strings are carved from one slab, which the message's datasets share.
// Kept encoded (keep), each element is only validated by val.Skip and the
// dataset keeps its byte range: a corrupt element fails here either way.
func decodeDatasets(d *dec, keep bool) []Dataset {
	n := d.u64()
	if n > uint64(len(d.b)) {
		d.fail("dataset count")
		return nil
	}
	ds := make([]Dataset, 0, min(int(n), 256))
	var slab val.Slab
	for i := uint64(0); i < n && d.err == nil; i++ {
		set := Dataset{Name: d.str()}
		part, parts := d.u64(), d.u64()
		if d.err == nil && (parts == 0 || parts > maxParts || part >= parts) {
			d.err = fmt.Errorf("netcluster: dataset %q: part %d of %d out of range", set.Name, part, parts)
		}
		set.Part, set.Parts = int(part), int(parts)
		cnt := d.u64()
		if cnt > uint64(len(d.b)) { // each element takes at least one byte
			d.fail("element count")
		}
		if d.err != nil {
			break
		}
		if !keep {
			set.Elems = make([]val.Value, cnt)
		}
		start := d.b
		for k := range int(cnt) {
			var used int
			var err error
			if keep {
				used, err = val.Skip(d.b)
			} else {
				set.Elems[k], used, err = val.Decode(d.b, &slab)
			}
			if err != nil {
				d.err = fmt.Errorf("netcluster: dataset %q element %d: %w", set.Name, k, err)
				break
			}
			d.b = d.b[used:]
		}
		if keep {
			n := len(start) - len(d.b)
			set.Encoded = start[:n:n]
		}
		ds = append(ds, set)
	}
	return ds
}

// JobSpec ships one job to one worker: the program source (every worker
// rebuilds the identical plan deterministically — cheaper and
// version-safer than serializing the plan itself), the execution options,
// and the input partitions the worker's readFile instances read. Options
// travels without its Obs and HTTP, which are each endpoint's own.
type JobSpec struct {
	Source string
	core.Options
	// Trace, Lineage, and LiveView tell the workers which telemetry to
	// collect for this job: trace spans (shipped as MsgTrace frames), bag
	// lineage (shipped with the final MsgStats), and the per-edge queue
	// depth sampling behind the live /jobs view. Metrics snapshots are
	// always shipped — counters are too cheap to gate.
	Trace    bool
	Lineage  bool
	LiveView bool
	Datasets []Dataset
}

// specFromOptions is the JobSpec that ships a job run under opts. Workers
// collect what the coordinator can consume: trace spans when it has a
// tracer, lineage when it has a tracker, live queue sampling when an
// introspection server is attached.
func specFromOptions(source string, opts core.Options, datasets []Dataset) JobSpec {
	s := JobSpec{
		Source:   source,
		Options:  opts,
		Trace:    opts.Obs.Trc() != nil,
		Lineage:  opts.Obs.Lin() != nil,
		LiveView: opts.HTTP != nil,
		Datasets: datasets,
	}
	s.Obs, s.HTTP = nil, nil
	return s
}

// AppendJobSpec appends the encoding of s to dst.
func AppendJobSpec(dst []byte, s JobSpec) []byte {
	e := enc{b: dst}
	appendJobHeader(&e, s)
	appendDatasets(&e, s.Datasets)
	return e.b
}

// appendJobHeader appends everything of s but its datasets.
func appendJobHeader(e *enc, s JobSpec) {
	e.str(s.Source)
	e.num(s.Parallelism)
	e.num(s.BatchSize)
	e.boolean(s.Pipelining)
	e.boolean(s.Hoisting)
	e.boolean(s.Combiners)
	e.boolean(s.Chaining)
	e.boolean(s.Templates)
	e.boolean(s.Delta)
	e.boolean(s.Trace)
	e.boolean(s.Lineage)
	e.boolean(s.LiveView)
}

// DecodeJobSpec decodes a JobSpec. Its datasets stay encoded (Dataset.Encoded,
// aliasing b), so b must outlive every read of them; every element is
// validated here, and a corrupt one fails the decode.
func DecodeJobSpec(b []byte) (JobSpec, error) {
	d := dec{b: b}
	var s JobSpec
	s.Source = d.str()
	s.Parallelism = d.num()
	s.BatchSize = d.num()
	s.Pipelining = d.boolean()
	s.Hoisting = d.boolean()
	s.Combiners = d.boolean()
	s.Chaining = d.boolean()
	s.Templates = d.boolean()
	s.Delta = d.boolean()
	s.Trace = d.boolean()
	s.Lineage = d.boolean()
	s.LiveView = d.boolean()
	s.Datasets = decodeDatasets(&d, true)
	return s, d.fin()
}

// PathSegMsg extends a worker's execution path at position Pos by the
// segment headed by block Head: the whole jump-chain template under templated
// execution, which the worker resolves from its own plan (core.Plan.Segment),
// and the one block Head otherwise. Position patching is the only
// per-instantiation parameter, exactly the execution-templates model.
type PathSegMsg struct {
	Pos  int
	Head int
}

// AppendPathSeg appends the encoding of m to dst.
func AppendPathSeg(dst []byte, m PathSegMsg) []byte {
	e := enc{b: dst}
	e.num(m.Pos)
	e.num(m.Head)
	return e.b
}

// DecodePathSeg decodes a PathSegMsg.
func DecodePathSeg(b []byte) (PathSegMsg, error) {
	d := dec{b: b}
	m := PathSegMsg{Pos: d.num(), Head: d.num()}
	return m, d.fin()
}

// EventMsg relays one host event (core.CoordEvent) to the coordinator.
// Count lets a worker fold several local completions of one position into
// a single frame (0 and 1 both mean one completion).
type EventMsg struct {
	Kind   byte
	Pos    int
	Branch bool
	Count  int
}

// AppendEvent appends the encoding of ev to dst.
func AppendEvent(dst []byte, ev EventMsg) []byte {
	e := enc{b: dst}
	e.b = append(e.b, ev.Kind)
	e.num(ev.Pos)
	e.boolean(ev.Branch)
	e.num(ev.Count)
	return e.b
}

// DecodeEvent decodes an EventMsg.
func DecodeEvent(b []byte) (EventMsg, error) {
	d := dec{b: b}
	var ev EventMsg
	if len(d.b) >= 1 {
		ev.Kind = d.b[0]
		d.b = d.b[1:]
	} else {
		d.fail("kind")
	}
	ev.Pos = d.num()
	ev.Branch = d.boolean()
	ev.Count = d.num()
	return ev, d.fin()
}

// BarrierMsg carries a superstep barrier round trip (request and ack share
// the sequence number so stray acks are detectable).
type BarrierMsg struct {
	Seq int
}

// AppendBarrier appends the encoding of m to dst.
func AppendBarrier(dst []byte, m BarrierMsg) []byte {
	e := enc{b: dst}
	e.num(m.Seq)
	return e.b
}

// DecodeBarrier decodes a BarrierMsg.
func DecodeBarrier(b []byte) (BarrierMsg, error) {
	d := dec{b: b}
	m := BarrierMsg{Seq: d.num()}
	return m, d.fin()
}

// PeerStat reports one peer link's socket and flow-control counters.
type PeerStat struct {
	Peer         int
	BytesOut     int64
	BytesIn      int64
	FramesOut    int64
	FramesIn     int64
	CreditStalls int64 // emits that blocked on an exhausted window
	StallNanos   int64 // total time spent blocked
}

// ResultMsg is a worker's end-of-job report: its share of the execution's
// Result (the wire carries core.Result.Counters, in that order), the
// datasets it wrote, and per-peer link counters.
type ResultMsg struct {
	core.Result
	Datasets []Dataset
	Peers    []PeerStat
}

// AppendResult appends the encoding of r to dst.
func AppendResult(dst []byte, r ResultMsg) []byte {
	e := enc{b: dst}
	for _, n := range r.Counters() {
		e.i64(*n)
	}
	appendDatasets(&e, r.Datasets)
	e.u64(uint64(len(r.Peers)))
	for _, p := range r.Peers {
		e.num(p.Peer)
		e.i64(p.BytesOut)
		e.i64(p.BytesIn)
		e.i64(p.FramesOut)
		e.i64(p.FramesIn)
		e.i64(p.CreditStalls)
		e.i64(p.StallNanos)
	}
	return e.b
}

// DecodeResult decodes a ResultMsg.
func DecodeResult(b []byte) (ResultMsg, error) {
	d := dec{b: b}
	var r ResultMsg
	for _, n := range r.Counters() {
		*n = d.i64()
	}
	r.Datasets = decodeDatasets(&d, false)
	n := d.u64()
	if n > uint64(len(d.b)) { // each peer stat takes at least one byte
		d.fail("peer count")
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		r.Peers = append(r.Peers, PeerStat{
			Peer:         d.num(),
			BytesOut:     d.i64(),
			BytesIn:      d.i64(),
			FramesOut:    d.i64(),
			FramesIn:     d.i64(),
			CreditStalls: d.i64(),
			StallNanos:   d.i64(),
		})
	}
	return r, d.fin()
}

// ErrorMsg reports a worker-local failure to the coordinator.
type ErrorMsg struct {
	Msg string
}

// AppendError appends the encoding of m to dst.
func AppendError(dst []byte, m ErrorMsg) []byte {
	e := enc{b: dst}
	e.str(m.Msg)
	return e.b
}

// DecodeError decodes an ErrorMsg.
func DecodeError(b []byte) (ErrorMsg, error) {
	d := dec{b: b}
	m := ErrorMsg{Msg: d.str()}
	return m, d.fin()
}

// StatsMsg ships one complete metrics snapshot of a worker's registry to
// the coordinator. Workers send whole snapshots (not deltas) on the
// heartbeat cadence, so the federation's last-wins update is exact even
// when frames are dropped by the bounded telemetry buffer. The final
// flush (Final set, sent before MsgResult) additionally carries the
// worker's bag-lineage snapshot for cross-process critical-path analysis,
// with the wall-clock zero point its offsets are relative to.
type StatsMsg struct {
	Final       bool
	Snap        obs.Snapshot
	LinT0Wall   int64  // UnixNano of the worker lineage tracker's T0; 0 when lineage is off
	LineageJSON []byte // lineage.Snapshot JSON, only on the final flush
}

func appendKey(e *enc, k obs.Key) {
	e.num(k.Machine)
	e.str(k.Op)
	e.str(k.Name)
}

// decodeKey decodes one series key. keys, when non-nil, maps a key's
// encoding to the key decoded from it before, so a key a worker's
// snapshots repeat costs its two strings once per session, not once per
// MsgStats.
func decodeKey(d *dec, keys map[string]obs.Key) obs.Key {
	rest := d.b
	machine, op, name := d.num(), d.blobRef(), d.blobRef()
	if d.err != nil {
		return obs.Key{}
	}
	encoded := rest[:len(rest)-len(d.b)]
	if k, ok := keys[string(encoded)]; ok {
		return k
	}
	k := obs.Key{Machine: machine, Op: string(op), Name: string(name)}
	if keys != nil {
		keys[string(encoded)] = k
	}
	return k
}

func appendSamples(e *enc, ss []obs.Sample) {
	e.u64(uint64(len(ss)))
	for _, s := range ss {
		appendKey(e, s.Key)
		e.i64(s.Value)
	}
}

func decodeSamples(d *dec, keys map[string]obs.Key) []obs.Sample {
	n := d.u64()
	if n > uint64(len(d.b)) { // each sample takes at least one byte
		d.fail("sample count")
		return nil
	}
	ss := make([]obs.Sample, 0, min(int(n), 1024))
	for i := uint64(0); i < n && d.err == nil; i++ {
		ss = append(ss, obs.Sample{Key: decodeKey(d, keys), Value: d.i64()})
	}
	return ss
}

// AppendStats appends the encoding of m to dst. Histogram buckets are
// sparse-encoded as (index, count) pairs — most of the 32 power-of-two
// buckets are empty.
func AppendStats(dst []byte, m StatsMsg) []byte {
	e := enc{b: dst}
	e.boolean(m.Final)
	appendSamples(&e, m.Snap.Counters)
	appendSamples(&e, m.Snap.Gauges)
	e.u64(uint64(len(m.Snap.Histograms)))
	for _, h := range m.Snap.Histograms {
		appendKey(&e, h.Key)
		e.i64(h.Count)
		e.i64(int64(h.Sum))
		e.i64(int64(h.Max))
		nz := 0
		for _, c := range h.Buckets {
			if c != 0 {
				nz++
			}
		}
		e.num(nz)
		for i, c := range h.Buckets {
			if c != 0 {
				e.num(i)
				e.i64(c)
			}
		}
	}
	e.i64(m.LinT0Wall)
	e.blob(m.LineageJSON)
	return e.b
}

// DecodeStats decodes a StatsMsg. keys, when non-nil, interns series keys
// across calls (see decodeKey); the coordinator keeps one per worker
// connection.
func DecodeStats(b []byte, keys map[string]obs.Key) (StatsMsg, error) {
	d := dec{b: b}
	var m StatsMsg
	m.Final = d.boolean()
	m.Snap.Counters = decodeSamples(&d, keys)
	m.Snap.Gauges = decodeSamples(&d, keys)
	n := d.u64()
	if n > uint64(len(d.b)) { // each histogram takes at least one byte
		d.fail("histogram count")
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		h := obs.HistSample{Key: decodeKey(&d, keys)}
		h.Count = d.i64()
		h.Sum = time.Duration(d.i64())
		h.Max = time.Duration(d.i64())
		nz := d.num()
		if nz < 0 || nz > len(h.Buckets) {
			d.fail("bucket count")
			break
		}
		for j := 0; j < nz && d.err == nil; j++ {
			idx := d.num()
			c := d.i64()
			if idx < 0 || idx >= len(h.Buckets) {
				d.fail("bucket index")
				break
			}
			h.Buckets[idx] = c
		}
		m.Snap.Histograms = append(m.Snap.Histograms, h)
	}
	m.LinT0Wall = d.i64()
	m.LineageJSON = d.blobRef()
	return m, d.fin()
}

// TraceMsg ships trace events drained from a worker's bounded buffer. The
// events are the tracer's own JSON encoding (TS relative to the worker's
// clock); T0Wall is the wall-clock zero point of that clock, which the
// coordinator combines with its ping-measured clock offset to re-base the
// events onto its own timeline.
type TraceMsg struct {
	T0Wall     int64 // UnixNano of the worker tracer's T0
	EventsJSON []byte
}

// AppendTrace appends the encoding of m to dst.
func AppendTrace(dst []byte, m TraceMsg) []byte {
	e := enc{b: dst}
	e.i64(m.T0Wall)
	e.blob(m.EventsJSON)
	return e.b
}

// DecodeTrace decodes a TraceMsg.
func DecodeTrace(b []byte) (TraceMsg, error) {
	d := dec{b: b}
	m := TraceMsg{T0Wall: d.i64(), EventsJSON: d.blobRef()}
	return m, d.fin()
}

// PingMsg is the coordinator's RTT/clock probe; the worker echoes the
// sequence number in a PongMsg together with its wall clock, giving the
// coordinator an RTT sample (for the heartbeat_rtt histogram) and a clock
// offset estimate (worker wall minus coordinator wall at the probe's
// midpoint) used to align merged traces and lineage.
type PingMsg struct {
	Seq int
}

// AppendPing appends the encoding of m to dst.
func AppendPing(dst []byte, m PingMsg) []byte {
	e := enc{b: dst}
	e.num(m.Seq)
	return e.b
}

// DecodePing decodes a PingMsg.
func DecodePing(b []byte) (PingMsg, error) {
	d := dec{b: b}
	m := PingMsg{Seq: d.num()}
	return m, d.fin()
}

// PongMsg echoes a PingMsg with the worker's wall clock at receipt.
type PongMsg struct {
	Seq       int
	WallNanos int64
}

// AppendPong appends the encoding of m to dst.
func AppendPong(dst []byte, m PongMsg) []byte {
	e := enc{b: dst}
	e.num(m.Seq)
	e.i64(m.WallNanos)
	return e.b
}

// DecodePong decodes a PongMsg.
func DecodePong(b []byte) (PongMsg, error) {
	d := dec{b: b}
	m := PongMsg{Seq: d.num(), WallNanos: d.i64()}
	return m, d.fin()
}

// FrameHeader addresses one data-plane frame: the consuming operator and
// instance, the input slot, the producing instance, and — depending on the
// message type — the element count of a data payload, the bag tag of an
// EOB, or the credit count being returned.
type FrameHeader struct {
	Op    int
	Inst  int
	Input int
	From  int
	Arg   int // MsgData: element count; MsgEOB: bag tag; MsgCredit: credits
}

// AppendFrameHeader appends the encoding of h to dst. For MsgData the
// batch payload follows it unframed — it extends to the end of the
// message.
func AppendFrameHeader(dst []byte, h FrameHeader) []byte {
	e := enc{b: dst}
	e.num(h.Op)
	e.num(h.Inst)
	e.num(h.Input)
	e.num(h.From)
	e.num(h.Arg)
	return e.b
}

// DecodeFrameHeader decodes a FrameHeader and returns the remaining bytes
// (the batch payload of a MsgData; empty otherwise).
func DecodeFrameHeader(b []byte) (FrameHeader, []byte, error) {
	d := dec{b: b}
	h := FrameHeader{Op: d.num(), Inst: d.num(), Input: d.num(), From: d.num(), Arg: d.num()}
	if d.err != nil {
		return FrameHeader{}, nil, d.err
	}
	return h, d.b, nil
}
