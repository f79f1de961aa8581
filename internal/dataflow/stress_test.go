package dataflow

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/val"
)

// spammer emits batches as fast as it can until its job dies. Its emit
// path serializes every remote batch through the val codec into pooled
// scratch — exactly what is in flight when Stop closes the transport.
type spammer struct {
	baseVertex
	emitted *atomic.Int64
	halt    *atomic.Bool
}

func (v *spammer) OnControl(ev any) error {
	if ev != "go" {
		return nil
	}
	for i := 0; !v.halt.Load(); i++ {
		v.ctx.Emit(Element{Tag: 1, Val: val.Pair(val.Int(int64(i%101)), val.Str("payload-payload-payload"))})
		if i%3 == 0 {
			v.ctx.Flush()
		}
		v.emitted.Add(1)
	}
	return nil
}

type devnull struct{ baseVertex }

// TestStopWhileProducersEmit closes the transport while producers are
// mid-serialization, at a different point in the emit stream every
// iteration. Run with -race: the property under test is that teardown
// during active serialization has no data races, no panics from pooled
// buffers reused after close, and always terminates.
func TestStopWhileProducersEmit(t *testing.T) {
	stopErr := errors.New("torn down mid-emit")
	for iter := 0; iter < 25; iter++ {
		cl, err := cluster.New(cluster.FastConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		var g Graph
		var emitted atomic.Int64
		var halt atomic.Bool
		src := g.AddOp("spam", 3, func(int) Vertex { return &spammer{emitted: &emitted, halt: &halt} })
		snk := g.AddOp("null", 3, func(int) Vertex { return &devnull{} })
		g.Connect(src, snk, 0, PartShuffleKey)
		job, err := NewJob(&g, cl, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Start(); err != nil {
			t.Fatal(err)
		}
		job.Broadcast("go")
		// Vary the teardown point from "barely started" to "mid-flood".
		for emitted.Load() < int64(iter*37) {
			time.Sleep(10 * time.Microsecond)
		}
		job.Stop(stopErr)
		// Producers keep serializing into the closing transport for a
		// moment — the window under test — then wind down so the event
		// loops can drain.
		time.Sleep(time.Duration(iter%5) * 100 * time.Microsecond)
		halt.Store(true)
		if err := job.Wait(); !errors.Is(err, stopErr) {
			t.Fatalf("iter %d: Wait = %v, want the stop error", iter, err)
		}
		cl.Close()
	}
}
