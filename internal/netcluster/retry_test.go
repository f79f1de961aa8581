package netcluster

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// The fault-injection suite for job re-execution: in-process workers with
// kill switches that sever every connection mid-stream (the in-process
// analogue of SIGKILL), a coordinator with a retry budget, and the
// differential against the simulated backend as ground truth.

// retryCfg is the fast-recovery coordinator configuration the tests use.
func retryCfg(retries, window int) CoordConfig {
	return CoordConfig{
		CreditWindow:      window,
		Retries:           retries,
		RetryBackoff:      50 * time.Millisecond,
		RetryBackoffMax:   200 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  3 * time.Second,
		SetupTimeout:      20 * time.Second,
	}
}

func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 256<<10)
	t.Errorf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(),
		buf[:runtime.Stack(buf, true)])
}

// TestRetryAfterKillUnderCreditPressure is the hard teardown case: credit
// window 1 and a tiny batch size keep producers permanently blocked in
// credits.acquire, then one worker dies mid-job. The kill must not leave
// any acquire waiter blocked, the stalled attempt must tear down fully,
// and the re-executed job on the same coordinator must produce bags
// identical to the simulated backend with clean accounting — nothing from
// the killed attempt (stalls, credits, frames) may leak into the retry's
// books. Run with -race.
func TestRetryAfterKillUnderCreditPressure(t *testing.T) {
	before := runtime.NumGoroutine()
	spec := workload.VisitCountSpec{Days: 20, VisitsPerDay: 4000, Pages: 300, WithDiff: true, Seed: 21}
	opts := core.DefaultOptions()
	opts.BatchSize = 2 // maximize frames in flight so window 1 stalls constantly

	simStore := store.NewMemStore()
	if err := spec.Generate(simStore); err != nil {
		t.Fatal(err)
	}
	runSim(t, spec.Script(), simStore, 3, opts)

	c, workers, cleanup, err := startLocalWorkers(3, retryCfg(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	type runResult struct {
		res *Result
		err error
	}
	// The kill races a short job; run on the same coordinator until one
	// lands mid-flight (usually the first try). Sequential jobs across
	// kill-triggered re-establishes are part of what this pins.
	var r runResult
	var tcpStore *store.MemStore
	for round := 0; ; round++ {
		if round == 10 {
			t.Fatal("kill never landed mid-job in 10 rounds")
		}
		tcpStore = store.NewMemStore()
		if err := spec.Generate(tcpStore); err != nil {
			t.Fatal(err)
		}
		done := make(chan runResult, 1)
		go func() {
			res, err := c.Run(spec.Script(), tcpStore, opts)
			done <- runResult{res, err}
		}()
		time.Sleep(time.Duration(5+round*10) * time.Millisecond)
		workers[1].Kill()
		select {
		case r = <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("job hung after kill under credit pressure")
		}
		if r.err != nil {
			t.Fatalf("job did not recover: %v", r.err)
		}
		if r.res.Attempts >= 2 {
			break
		}
	}
	if len(r.res.AttemptErrors) != r.res.Attempts-1 {
		t.Errorf("AttemptErrors = %d entries for %d attempts", len(r.res.AttemptErrors), r.res.Attempts)
	}
	for _, e := range r.res.AttemptErrors {
		if !strings.Contains(e, "worker") {
			t.Errorf("attempt error does not name a worker: %s", e)
		}
	}
	// Accounting must reflect only the successful attempt: a clean run has
	// matched transfer counters; leaked frames or credits from the killed
	// attempt would skew them.
	if r.res.Job.BytesSent != r.res.Job.BytesReceived {
		t.Errorf("BytesSent %d != BytesReceived %d after recovery", r.res.Job.BytesSent, r.res.Job.BytesReceived)
	}
	diffStores(t, simStore, tcpStore)
	cleanup()
	awaitGoroutines(t, before)
}

// TestRetryStableWorkerIDs pins re-admission placement: a worker that
// rejoins after a failure registers under the same name and must get its
// old machine ID back, so the re-executed job's i%n partition placement
// matches every earlier attempt (and the sim backend).
func TestRetryStableWorkerIDs(t *testing.T) {
	c, workers, cleanup, err := startLocalWorkers(3, retryCfg(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	ids := make(map[string]int, 3)
	for _, w := range workers {
		id := c.workerID(w.name)
		if id < 0 {
			t.Fatalf("worker %s has no assigned ID after establish", w.name)
		}
		ids[w.name] = id
	}

	// Kill one worker while idle: the session dies, and the next Run must
	// rebuild the pool with every rejoining worker on its old ID.
	workers[2].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Err() == nil {
		t.Fatal("idle kill never failed the session")
	}

	spec := workload.VisitCountSpec{Days: 4, VisitsPerDay: 80, Pages: 20, WithDiff: true, Seed: 11}
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(spec.Script(), st, core.DefaultOptions())
	if err != nil {
		t.Fatalf("run after idle worker loss: %v", err)
	}
	if res.Attempts != 1 {
		// The pool was rebuilt before the first execution; the job itself
		// ran once.
		t.Errorf("Attempts = %d, want 1 (pool rebuilt before execution)", res.Attempts)
	}
	for name, want := range ids {
		if got := c.workerID(name); got != want {
			t.Errorf("worker %s: ID %d after rejoin, want %d", name, got, want)
		}
	}
}

// TestRetryBudgetExhausted keeps killing one worker so no attempt can
// finish: Run must give up after 1+Retries attempts with a *RetryError
// naming every attempt, instead of hanging or retrying forever.
func TestRetryBudgetExhausted(t *testing.T) {
	cfg := retryCfg(1, 0)
	cfg.SetupTimeout = 5 * time.Second
	c, workers, cleanup, err := startLocalWorkers(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	stopKill := make(chan struct{})
	defer close(stopKill)
	go func() {
		for {
			select {
			case <-stopKill:
				return
			case <-time.After(5 * time.Millisecond):
				workers[0].Kill()
			}
		}
	}()

	// The workload must run far longer than the kill cadence, or a whole
	// attempt could slip through between two kills and succeed.
	spec := workload.VisitCountSpec{Days: 20, VisitsPerDay: 4000, Pages: 300, WithDiff: true, Seed: 13}
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(spec.Script(), st, core.DefaultOptions())
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("exhausted retry budget hung instead of failing")
	}
	if err == nil {
		t.Fatal("job succeeded despite continuous worker kills")
	}
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RetryError: %v", err, err)
	}
	if len(re.Attempts) != 2 {
		t.Errorf("RetryError has %d attempts, want 2 (1 run + 1 retry)", len(re.Attempts))
	}
	for i, a := range re.Attempts {
		if a.Attempt != i+1 || a.Err == nil {
			t.Errorf("attempt record %d malformed: %+v", i, a)
		}
	}
	if msg := re.Error(); !strings.Contains(msg, "attempt 1:") || !strings.Contains(msg, "retry budget 1") {
		t.Errorf("RetryError message lacks history: %s", msg)
	}
}

// TestRetryDisabledFailsFast: with Retries = 0 (the default) the first
// worker loss fails the job with the bare cause — the pre-retry contract.
func TestRetryDisabledFailsFast(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 20, VisitsPerDay: 4000, Pages: 300, WithDiff: true, Seed: 15}
	opts := core.DefaultOptions()
	opts.BatchSize = 4
	// The kill races a job of a few tens of milliseconds. A kill that lands
	// after completion leaves a dead session that a Retries=0 coordinator
	// will not rebuild, so each round runs on a fresh cluster, killing
	// sooner each time, until one lands mid-job.
	var err error
	for round := 0; err == nil; round++ {
		if round == 10 {
			t.Fatal("kill never landed mid-job in 10 rounds")
		}
		err = killDuringRun(t, spec, opts, time.Duration(10-round)*time.Millisecond)
	}
	var re *RetryError
	if errors.As(err, &re) {
		t.Errorf("Retries=0 wrapped the failure in a RetryError: %v", err)
	}
	if !strings.Contains(err.Error(), "worker") {
		t.Errorf("failure does not name the worker: %v", err)
	}
}

// killDuringRun starts spec on a fresh two-worker cluster with retries
// disabled, kills worker 0 after delay, and returns the job's error.
func killDuringRun(t *testing.T, spec workload.VisitCountSpec, opts core.Options, delay time.Duration) error {
	t.Helper()
	c, workers, cleanup, err := startLocalWorkers(2, CoordConfig{
		RetryBackoff: 50 * time.Millisecond, SetupTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(spec.Script(), st, opts)
		done <- err
	}()
	time.Sleep(delay)
	workers[0].Kill()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("job hung after kill with retries disabled")
	}
	return err
}
