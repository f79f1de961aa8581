package cluster

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := New(Config{Machines: -1}); err == nil {
		t.Error("negative machines accepted")
	}
	cl, err := New(FastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close() // idempotent
}

func TestCountersAndPlacement(t *testing.T) {
	cl, err := New(FastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.LaunchJob()
	cl.ScheduleStage()
	cl.Barrier()
	cl.Barrier()
	cl.CtrlSleep()
	st := cl.Stats()
	if st.JobsLaunched != 1 {
		t.Errorf("jobs = %d", st.JobsLaunched)
	}
	if st.TasksDispatched != 8 { // launch (4) + stage (4)
		t.Errorf("tasks = %d", st.TasksDispatched)
	}
	if st.Barriers != 2 {
		t.Errorf("barriers = %d", st.Barriers)
	}
	if st.CtrlMessages != 1 {
		t.Errorf("ctrl = %d", st.CtrlMessages)
	}
	if cl.Machines() != 4 || cl.Place(6) != 2 {
		t.Error("placement broken")
	}
}

func TestLaunchCostGrowsWithMachines(t *testing.T) {
	cost := func(machines int) time.Duration {
		cfg := FastConfig(machines)
		cfg.SchedDelay = 200 * time.Microsecond
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// The fastest of a few launches: a busy machine only adds time,
		// and one descheduled sleep can outlast all 16 dispatches.
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			cl.LaunchJob()
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := cost(2), cost(16)
	// Serial dispatch: 16 machines cost several times 2 machines. Allow
	// generous slack for scheduling noise.
	if large < 3*small {
		t.Errorf("launch cost does not scale with machines: 2->%v, 16->%v", small, large)
	}
}

// TestNewStartsNoGoroutine pins that a simulated machine is a lock, not a
// scheduler goroutine: New+Close starts no goroutine and allocates only the
// cluster and its machines.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	cl, err := New(DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	// Goroutines of earlier tests may still be exiting, so only a rise counts.
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("New started %d goroutines", n-before)
	}
	cl.Close()
	allocs := testing.AllocsPerRun(100, func() {
		cl, _ := New(DefaultConfig(9))
		cl.Close()
	})
	if allocs > 3 {
		t.Errorf("New+Close allocates %v objects, want <= 3", allocs)
	}
}

// TestCloseAfterwardChargesNothing: coordination after Close charges no
// scheduler delay, whatever the configured costs.
func TestCloseAfterwardChargesNothing(t *testing.T) {
	cfg := FastConfig(4)
	cfg.SchedDelay, cfg.BarrierDelay = time.Second, time.Second
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	start := time.Now()
	cl.ScheduleStage()
	cl.Barrier()
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("coordination after Close took %v", d)
	}
}

// TestCloseRace checks that coordination calls racing Close neither panic
// nor race: each either charges its delays or, once Close is seen, none.
func TestCloseRace(t *testing.T) {
	for i := 0; i < 100; i++ {
		cl, err := New(FastConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				switch w % 3 {
				case 0:
					cl.LaunchJob()
				case 1:
					cl.Barrier()
				default:
					cl.ScheduleStage()
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cl.Close()
		}()
		close(start)
		wg.Wait()
		cl.Close()
	}
}

func TestNetSleepBytes(t *testing.T) {
	cfg := FastConfig(2)
	cfg.Bandwidth = 1 << 30 // 1 GiB/s
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 4 << 20 // 4 MiB -> ~3.9ms at 1 GiB/s
	start := time.Now()
	cl.NetSleepBytes(n)
	elapsed := time.Since(start)
	wantMin := time.Duration(int64(n) * int64(time.Second) / cfg.Bandwidth)
	if elapsed < wantMin {
		t.Errorf("NetSleepBytes(%d) took %v, want >= bandwidth term %v", n, elapsed, wantMin)
	}
	cl.NetSleepBytes(0) // latency-only path still counts a batch
	st := cl.Stats()
	if st.NetBatches != 2 {
		t.Errorf("NetBatches = %d, want 2", st.NetBatches)
	}
	if st.NetBytes != n {
		t.Errorf("NetBytes = %d, want %d", st.NetBytes, n)
	}
	// Zero bandwidth means latency only: must not divide by zero.
	cfg2 := FastConfig(2)
	cl2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	cl2.NetSleepBytes(123)
	if st := cl2.Stats(); st.NetBytes != 123 {
		t.Errorf("NetBytes = %d, want 123", st.NetBytes)
	}
}

func TestConcurrentCoordination(t *testing.T) {
	cl, err := New(FastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan struct{}, 10)
	for i := 0; i < 10; i++ {
		go func() {
			cl.Barrier()
			cl.CtrlSleep()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 10; i++ {
		<-done
	}
	if cl.Stats().Barriers != 10 {
		t.Errorf("barriers = %d", cl.Stats().Barriers)
	}
}
