package mitos

import (
	"runtime"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/workload"
)

// TestLongLoopHeapFlat pins the one-frontier rule (DESIGN.md Sec. 19) end to
// end: nothing in a running job remembers the whole execution path, so the
// live heap of a long loop does not grow with the number of steps. When every
// host kept the path and every block's occurrences, this loop added about
// 170 KB per 1 000 steps — 34 MB by its end.
func TestLongLoopHeapFlat(t *testing.T) {
	const steps = 200000
	heapStaysFlat(t, steps, func(p *Program, st NamedStore) error {
		_, err := p.Run(st, Config{Machines: 4})
		return err
	})
}

// TestLongLoopHeapFlatTCP is the same rule on the TCP backend, where a
// worker expands each path frame from its own plan and keeps only its
// frontier. When every worker mirrored the path, this loop added 16 B per
// step on each of the two workers — over 6 MB by its end.
func TestLongLoopHeapFlatTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("a 200 000-step loop over loopback TCP")
	}
	const steps = 200000
	c, cleanup, err := StartLocalTCP(2, TCPCoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	heapStaysFlat(t, steps, func(p *Program, st NamedStore) error {
		_, err := p.RunTCP(c, st, Config{})
		return err
	})
}

// heapStaysFlat runs the step loop of the given length and samples the live
// heap every 100 ms while it runs: no sample may exceed the first by more
// than 2 MB.
func heapStaysFlat(t *testing.T, steps int, run func(*Program, NamedStore) error) {
	t.Helper()
	const slack = 2 << 20
	p, err := Compile(workload.StepLoopScript(steps))
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	done := make(chan error, 1)
	go func() { done <- run(p, st) }()
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	var first, peak, samples uint64
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-tick.C:
			h := live()
			peak = max(peak, h)
			if samples++; samples == 1 {
				first = h
			} else if h > first+slack {
				t.Errorf("sample %d: live heap %d KB, first sample %d KB: the heap grows with the loop", samples, h>>10, first>>10)
			}
		}
	}
	t.Logf("%d samples: first %d KB, peak %d KB", samples, first>>10, peak>>10)
	if samples < 2 {
		t.Skipf("loop finished within %d samples; nothing to compare", samples)
	}
	if out, err := st.ReadDataset("out"); err != nil || len(out) != 1 || out[0].AsInt() != int64(steps) {
		t.Errorf("out = %v, %v, want [%d]", out, err, steps)
	}
}
