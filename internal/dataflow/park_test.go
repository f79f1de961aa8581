package dataflow

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/val"
)

// Two producers, A (instance 0) and B (instance 1), feed one input of a
// sink that reads it bag by bag: its gate accepts a batch only of the bag it
// has open, the lowest bag whose end-of-bags are not all in. So a batch of
// bag 2 that arrives while bag 1 is open parks in its link until bag 1
// closes.

const linkA, linkB = 0, 1

// parkEvent is one callback the gated sink took: a batch or end-of-bag from
// a producer, the bag it closed, or its Close. acked is the number of frames
// acknowledged by then.
type parkEvent struct {
	from   int
	tag    Tag
	eob    bool
	closed Tag // the bag this event closed, 0 if none
	close  bool
	acked  int64
}

func (e parkEvent) String() string {
	switch {
	case e.close:
		return "Close"
	case e.eob:
		return fmt.Sprintf("eob(%c,%d)", 'A'+e.from, e.tag)
	}
	return fmt.Sprintf("data(%c,%d)", 'A'+e.from, e.tag)
}

// gateSink is the gated reader. It fails on a batch of a bag it has closed
// or of a bag whose producer already ended it: either means an envelope
// overtook one parked ahead of it in its link.
type gateSink struct {
	baseVertex
	open   Tag
	ended  [2]Tag // the last bag each producer ended
	acks   *atomic.Int64
	events chan parkEvent
}

func (v *gateSink) Accepts(input int, tag Tag) bool { return tag <= v.open }

func (v *gateSink) OnBatch(input, from int, batch []Element) error {
	tag := batch[0].Tag
	if tag < v.open || tag <= v.ended[from] {
		return fmt.Errorf("batch of bag %d from producer %d after its end-of-bag (open bag %d): an end-of-bag overtook its link's parked data", tag, from, v.open)
	}
	v.events <- parkEvent{from: from, tag: tag, acked: v.acks.Load()}
	return nil
}

func (v *gateSink) OnEOB(input, from int, tag Tag) error {
	v.ended[from] = tag
	ev := parkEvent{from: from, tag: tag, eob: true, acked: v.acks.Load()}
	for v.ended[linkA] >= v.open && v.ended[linkB] >= v.open {
		ev.closed = v.open
		v.open++
	}
	v.events <- ev
	return nil
}

func (v *gateSink) Close() error {
	v.events <- parkEvent{close: true}
	return nil
}

// parkJob starts a one-machine partitioned job whose gated sink reads both
// producers over one in-place input, with bag 1 open, and stops it when the
// test ends if the test has not.
type parkJob struct {
	j      *Job
	sink   *gateSink
	acks   atomic.Int64
	ack    func()
	slab   val.Slab
	frame  []byte
	timer  *time.Timer
	events chan parkEvent
}

func newParkJob(tb testing.TB, o *obs.Observer) *parkJob {
	tb.Helper()
	// 64 events: more than a test reads at once, so the sink never blocks
	// the event loop it runs on.
	p := &parkJob{events: make(chan parkEvent, 64), timer: time.NewTimer(time.Hour)}
	p.ack = func() { p.acks.Add(1) }
	p.sink = &gateSink{open: 1, acks: &p.acks, events: p.events}
	var g Graph
	src := g.AddOp("src", 2, func(int) Vertex { return &baseVertex{} })
	snk := g.AddOp("sink", 1, func(int) Vertex { return p.sink })
	g.Connect(src, snk, 0, PartShuffleKey).InPlace = true
	j, err := NewPartitionedJob(&g, 1, 0, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	j.Observe(o)
	if err := j.Start(); err != nil {
		tb.Fatal(err)
	}
	p.j = j
	tb.Cleanup(func() {
		j.Stop(errors.New("test ended"))
		j.Wait()
	})
	return p
}

// data delivers one remote frame of a pair of bag tag from producer from.
func (p *parkJob) data(tb testing.TB, from int, tag Tag) {
	p.frame = appendElement(p.frame[:0], Element{Tag: tag, Val: val.Pair(val.Int(int64(from)), val.Int(int64(tag)))})
	if err := p.j.DeliverData(RemoteHeader{Op: 1, From: from}, p.frame, 1, &p.slab, p.ack); err != nil {
		tb.Fatal(err)
	}
}

// eob delivers producer from's end of bag tag.
func (p *parkJob) eob(tb testing.TB, from int, tag Tag) {
	if err := p.j.DeliverEOB(RemoteHeader{Op: 1, From: from}, tag, p.ack); err != nil {
		tb.Fatal(err)
	}
}

// next returns the sink's next event, failing the test by what within names
// if none comes in time: a link parked for good stalls the sink, and the
// test must say so, not hang.
func (p *parkJob) next(tb testing.TB, within string) parkEvent {
	tb.Helper()
	p.timer.Reset(10 * time.Second)
	select {
	case ev := <-p.events:
		p.timer.Stop()
		return ev
	case <-p.timer.C:
		p.j.Stop(errors.New("stalled"))
		tb.Fatalf("%s: the sink stalled, no event in 10 s: a link waits behind another's parked batch (parked per input instead of per link?)", within)
		return parkEvent{}
	}
}

// expect reads the sink's next events and checks their order. On a wrong
// event it stops the job and reports the job's error too: the sink's own
// check may have failed it.
func (p *parkJob) expect(tb testing.TB, within string, want ...string) []parkEvent {
	tb.Helper()
	got := make([]parkEvent, len(want))
	for i, w := range want {
		got[i] = p.next(tb, within)
		if got[i].String() != w {
			p.j.Stop(nil)
			tb.Fatalf("%s: event %d is %v, want %s (all so far %v); job: %v", within, i, got[i], w, got[:i+1], p.j.Wait())
		}
	}
	return got
}

// TestParkedLinkLetsOtherLinksFlow: A's bag 2 arrives while bag 1 is open
// and parks, with its end-of-bag behind it. B's bag 1 still flows, and
// closing bag 1 releases A's link in order: its data, then its end-of-bag.
// The parked frames are acknowledged as they park, before the sink reads
// them, and each parked batch counts once in batches_parked.
func TestParkedLinkLetsOtherLinksFlow(t *testing.T) {
	o := obs.New()
	p := newParkJob(t, o)
	p.data(t, linkA, 1)
	p.eob(t, linkA, 1)
	p.data(t, linkA, 2)
	p.eob(t, linkA, 2)
	p.expect(t, "A's bag 1", "data(A,1)", "eob(A,1)")
	p.data(t, linkB, 1)
	b1 := p.expect(t, "B's bag-1 batch while A's link is parked", "data(B,1)")[0]
	if b1.acked != 4 {
		t.Errorf("when B's bag 1 reached the sink %d of A's 4 frames were acknowledged, want all 4: a parked frame is acknowledged as it parks", b1.acked)
	}
	p.eob(t, linkB, 1)
	ev := p.expect(t, "closing bag 1 releases A's link in order", "eob(B,1)", "data(A,2)", "eob(A,2)")
	if ev[0].closed != 1 {
		t.Errorf("B's end of bag 1 closed bag %d, want 1", ev[0].closed)
	}
	p.data(t, linkB, 2)
	p.eob(t, linkB, 2)
	if ev := p.expect(t, "B's bag 2", "data(B,2)", "eob(B,2)"); ev[1].closed != 2 {
		t.Errorf("B's end of bag 2 closed bag %d, want 2", ev[1].closed)
	}
	p.j.Stop(nil)
	if err := p.j.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := o.Reg().Counter(0, "sink", "batches_parked").Value(); got != 1 {
		t.Errorf("batches_parked = %d, want 1 (A's batch of bag 2)", got)
	}
	if got := o.Reg().Counter(0, "sink", "batches_in").Value(); got != 4 {
		t.Errorf("batches_in = %d, want 4: a parked batch counts in once it is delivered", got)
	}
}

// TestParkedAtStop: what is parked when the job stops is delivered, in link
// order, before Close on a clean stop, and recycled undelivered on a failure
// — its arena back in the free lists, not retained.
func TestParkedAtStop(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		p := newParkJob(t, nil)
		p.data(t, linkA, 1)
		p.eob(t, linkA, 1)
		p.data(t, linkA, 2)
		p.eob(t, linkA, 2)
		p.expect(t, "A's bag 1", "data(A,1)", "eob(A,1)")
		p.j.Stop(nil)
		p.expect(t, "a clean stop", "data(A,2)", "eob(A,2)", "Close")
		if err := p.j.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("failure", func(t *testing.T) {
		var recycled, retained atomic.Int64
		SetArenaHook(func(op string, _, kept bool, _ []val.Value) {
			if kept {
				retained.Add(1)
			} else {
				recycled.Add(1)
			}
		})
		defer SetArenaHook(nil)
		p := newParkJob(t, nil)
		p.data(t, linkA, 1)
		p.eob(t, linkA, 1)
		p.data(t, linkA, 2)
		p.expect(t, "A's bag 1", "data(A,1)", "eob(A,1)")
		p.j.Stop(errors.New("boom"))
		p.expect(t, "a failed stop", "Close")
		if err := p.j.Wait(); err == nil || err.Error() != "boom" {
			t.Fatalf("Wait = %v, want boom", err)
		}
		if r, k := recycled.Load(), retained.Load(); r != 2 || k != 0 {
			t.Errorf("arenas: %d recycled, %d retained; want both batches' arenas recycled, the parked one too", r, k)
		}
		if n := p.acks.Load(); n != 3 {
			t.Errorf("%d of 3 frames acknowledged", n)
		}
	})
}

// TestParkedEOBStaysBehind: an end-of-bag that overtook its link's parked
// data would close bag 2 of A before A's batch of it, which the sink
// rejects; in order, the job ends cleanly.
func TestParkedEOBStaysBehind(t *testing.T) {
	p := newParkJob(t, nil)
	p.data(t, linkA, 1)
	p.eob(t, linkA, 1)
	for tag := Tag(2); tag <= 4; tag++ {
		p.data(t, linkA, tag)
		p.eob(t, linkA, tag)
	}
	p.expect(t, "A's bag 1", "data(A,1)", "eob(A,1)")
	for tag := Tag(1); tag <= 4; tag++ {
		p.data(t, linkB, tag)
		p.eob(t, linkB, tag)
		want := []string{fmt.Sprintf("data(B,%d)", tag), fmt.Sprintf("eob(B,%d)", tag)}
		if tag < 4 {
			want = append(want, fmt.Sprintf("data(A,%d)", tag+1), fmt.Sprintf("eob(A,%d)", tag+1))
		}
		p.expect(t, fmt.Sprintf("B's bag %d", tag), want...)
	}
	p.j.Stop(nil)
	if err := p.j.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestParkingAllocFree: a round that parks a batch and its end-of-bag and
// releases them allocates nothing once the link's queue has its capacity.
func TestParkingAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	p := newParkJob(t, nil)
	p.data(t, linkA, 1)
	p.eob(t, linkA, 1)
	p.expect(t, "A's bag 1", "data(A,1)", "eob(A,1)")
	open := Tag(1)
	round := func() {
		p.data(t, linkA, open+1)
		p.eob(t, linkA, open+1)
		p.data(t, linkB, open)
		p.eob(t, linkB, open)
		for range 4 {
			p.next(t, "a parking round")
		}
		open++
	}
	for range 10 {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("a parking round: %.2f allocs, want 0", allocs)
	}
	if got := p.j.insts[1][0].lot.queues; len(got) != 1 {
		t.Errorf("%d link queues, want 1 (A's)", len(got))
	}
}
