package netcluster

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/val"
)

// countingConn counts the Write calls made on a connection: each is one
// write syscall on a real socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipeLink builds worker 1's mesh of two with its one peer link, to worker
// 0, over a net.Pipe whose near end counts writes. The test plays worker 0
// on the returned far end. queued frames join the egress lane before the
// link's goroutines start, so the sender finds them as one backlog.
func pipeLink(t *testing.T, window int, queued ...outFrame) (*mesh, *countingConn, net.Conn) {
	t.Helper()
	near, far := net.Pipe()
	conn := &countingConn{Conn: near}
	m := unlinkedMesh(1, 2, window, func(err error) { t.Errorf("mesh failed: %v", err) })
	m.peers[0] = newPeer(0, conn, window)
	for _, f := range queued {
		m.peers[0].frames.Put(f)
	}
	m.start()
	t.Cleanup(func() {
		m.close() // first: the link's reader must see its own close, not the far end's
		far.Close()
	})
	return m, conn, far
}

// dataFrame is one small data frame on channel (op 0, instance 0, input 0,
// from 1), carrying seq as its element count.
func dataFrame(seq int) outFrame {
	return outFrame{typ: MsgData, hdr: FrameHeader{From: 1, Arg: seq}, payload: append(val.GetScratch(), 1, 2, 3, 4)}
}

// readFrames decodes the frames arriving on far until it closes.
func readFrames(t *testing.T, far net.Conn) <-chan FrameHeader {
	out := make(chan FrameHeader, 256)
	go func() {
		defer close(out)
		var buf []byte
		for {
			typ, body, nbuf, err := ReadMsg(far, buf)
			buf = nbuf
			if err != nil {
				return
			}
			h, _, err := DecodeFrameHeader(body)
			if err != nil || typ != MsgData {
				t.Errorf("frame %#x %+v: %v", typ, h, err)
				return
			}
			out <- h
		}
	}()
	return out
}

// expectFrame waits for the frame carrying seq. A frame left in the
// sender's buffer never arrives, so a stranded frame fails here by
// timeout.
func expectFrame(t *testing.T, frames <-chan FrameHeader, seq int) {
	t.Helper()
	select {
	case h := <-frames:
		if h.Arg != seq {
			t.Fatalf("got frame %d, want %d", h.Arg, seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("frame %d never reached the peer: stranded in the sender's buffer", seq)
	}
}

// TestPeerLinkCoalescesWrites pins the peer link's write discipline: a
// backlog goes out in a few writes rather than one per frame, a lone frame
// is flushed as soon as the lane drains, and a frame waiting for credit
// first flushes the frames ahead of it, whose processing is what returns
// the credit.
func TestPeerLinkCoalescesWrites(t *testing.T) {
	t.Run("burst", func(t *testing.T) {
		const burst = 100
		var queued []outFrame
		for i := range burst {
			queued = append(queued, dataFrame(i))
		}
		m, conn, far := pipeLink(t, 2*burst, queued...)
		frames := readFrames(t, far)
		for i := range burst {
			expectFrame(t, frames, i)
		}
		if w := conn.writes.Load(); w > burst/10 {
			t.Errorf("%d frames took %d writes, want at most %d", burst, w, burst/10)
		}

		// The lane is idle now: one more frame must go out on its own,
		// with no later frame to push it.
		conn.writes.Store(0)
		m.peers[0].frames.Put(dataFrame(burst))
		expectFrame(t, frames, burst)
		if w := conn.writes.Load(); w != 1 {
			t.Errorf("a lone frame took %d writes, want 1", w)
		}
	})

	t.Run("window1", func(t *testing.T) {
		const n = 4
		var queued []outFrame
		for i := range n {
			queued = append(queued, dataFrame(i))
		}
		_, _, far := pipeLink(t, 1, queued...)
		frames := readFrames(t, far)
		var scratch []byte
		for i := range n {
			expectFrame(t, frames, i)
			credit := AppendFrameHeader(nil, FrameHeader{From: 1, Arg: 1})
			var err error
			if scratch, err = WriteMsg(far, scratch, MsgCredit, credit); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// sinkVertex discards what it receives.
type sinkVertex struct{}

func (sinkVertex) Open(*dataflow.Context) error               { return nil }
func (sinkVertex) OnBatch(int, int, []dataflow.Element) error { return nil }
func (sinkVertex) OnEOB(int, int, dataflow.Tag) error         { return nil }
func (sinkVertex) OnControl(any) error                        { return nil }
func (sinkVertex) Close() error                               { return nil }

// TestPeerFrameDeliveryAllocFree: one data frame read off a peer link,
// decoded, delivered to its vertex and acknowledged with a credit back on
// the wire allocates nothing on either side of the link once warm.
func TestPeerFrameDeliveryAllocFree(t *testing.T) {
	m, _, far := pipeLink(t, DefaultCreditWindow)
	var g dataflow.Graph
	g.AddOp("sink", 2, func(int) dataflow.Vertex { return sinkVertex{} })
	j, err := dataflow.NewPartitionedJob(&g, 2, 1, 128, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	m.setJob(j)
	defer func() {
		j.Stop(nil)
		if err := j.Wait(); err != nil {
			t.Error(err)
		}
	}()

	// Instance 1 of the sink is hosted by machine 1; the frame carries four
	// (tag, int) elements in the link's element encoding.
	body := AppendFrameHeader(nil, FrameHeader{Inst: 1, Arg: 4})
	for i := range 4 {
		body = binary.AppendVarint(body, 1)
		body = val.AppendBinary(body, val.Int(int64(i)))
	}
	var wbuf, rbuf []byte
	deliver := func() {
		var err error
		if wbuf, err = WriteMsg(far, wbuf, MsgData, body); err != nil {
			t.Fatal(err)
		}
		var typ byte
		if typ, _, rbuf, err = ReadMsg(far, rbuf); err != nil || typ != MsgCredit {
			t.Fatalf("awaiting the credit: %#x, %v", typ, err)
		}
	}
	if raceBuild() {
		for range 200 {
			deliver()
		}
		return
	}
	allocs := testing.AllocsPerRun(200, deliver)
	if allocs != 0 {
		t.Errorf("one delivered peer frame allocated %v times, want 0", allocs)
	}
}

// TestMsgRoundTripAllocFree: a control message framed with a reused
// scratch and read back into a reused buffer allocates nothing, and the
// framing is one Write for a small body and for a large one.
func TestMsgRoundTripAllocFree(t *testing.T) {
	var wire bytes.Buffer
	body := []byte("a control message body")
	var wbuf, rbuf []byte
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if wbuf, err = WriteMsg(&wire, wbuf, MsgEvent, body); err != nil {
			t.Fatal(err)
		}
		typ, got, nbuf, err := ReadMsg(&wire, rbuf)
		rbuf = nbuf
		if err != nil || typ != MsgEvent || !bytes.Equal(got, body) {
			t.Fatalf("round trip: %#x %q %v", typ, got, err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteMsg/ReadMsg round trip allocated %v times, want 0", allocs)
	}
	if cap(wbuf) > 2*keepScratch {
		t.Errorf("write scratch grew to %d bytes", cap(wbuf))
	}

	near, far := net.Pipe()
	defer far.Close()
	conn := &countingConn{Conn: near}
	defer conn.Close()
	for _, size := range []int{10, keepScratch - prefixLen, 4 * keepScratch} {
		body := bytes.Repeat([]byte{7}, size)
		done := make(chan error, 1)
		go func() {
			var err error
			wbuf, err = WriteMsg(conn, wbuf, MsgJob, body)
			done <- err
		}()
		typ, got, _, err := ReadMsg(far, nil)
		if werr := <-done; werr != nil || err != nil || typ != MsgJob || !bytes.Equal(got, body) {
			t.Fatalf("%d-byte body: write %v, read %#x, %d bytes, %v", size, werr, typ, len(got), err)
		}
		if cap(wbuf) > 2*keepScratch {
			t.Errorf("%d-byte body: write scratch kept %d bytes", size, cap(wbuf))
		}
	}
	// The two that fit the scratch are one Write each. The large one is
	// gathered: one writev on a socket, two Writes on this wrapper, which
	// hides the pipe's own methods from net.Buffers.
	if w := conn.writes.Load(); w != 4 {
		t.Errorf("three messages took %d writes, want 4", w)
	}
}

// raceBuild reports whether the test binary runs under the race detector,
// whose sync.Pool drops a share of Puts at random: an allocation count
// there measures the detector, not the code.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
