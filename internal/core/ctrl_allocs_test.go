package core_test

import (
	"runtime"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// TestControlPlaneAllocsPerStep pins what one more loop step costs the heap
// on the simulated cluster: the step loop run at 40 000 and at 20 000 steps
// on 4 machines, differenced, so that everything fixed per job cancels. A
// path frame is (pos, head), 16 bytes carved from the control plane's
// FrameSlab — 8 per position on a loop whose body and test share one frame
// — and nothing else grows with the path. A frame boxed into Job.Broadcast
// on its own, or a path window copied to a fresh array as it moves, reads
// about 0.5 mallocs and 24 bytes per step.
func TestControlPlaneAllocsPerStep(t *testing.T) {
	run := func(steps int) (mallocs, bytes uint64, positions int) {
		t.Helper()
		opts := core.DefaultOptions()
		plan, err := core.Compile(compileSrc(t, workload.StepLoopScript(steps)), 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.FastConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := core.ExecutePlan(plan, store.NewMemStore(), cl, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, res.Steps
	}
	run(1000) // settle what the first job of a process sets up once
	m1, b1, p1 := run(20000)
	m2, b2, p2 := run(40000)
	steps := float64(p2 - p1)
	perMalloc := (float64(m2) - float64(m1)) / steps
	perByte := (float64(b2) - float64(b1)) / steps
	t.Logf("per step over %d positions: %.4f mallocs, %.2f B", p2-p1, perMalloc, perByte)
	if perMalloc > 0.01 || perByte > 9 {
		t.Errorf("a loop step costs %.4f mallocs and %.2f B, want at most 0.01 and 9", perMalloc, perByte)
	}
}
