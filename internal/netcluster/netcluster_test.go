package netcluster

import (
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
	"github.com/mitos-project/mitos/internal/workload"
)

// runSim executes source on the simulated in-process cluster.
func runSim(t *testing.T, source string, st store.Store, machines int, opts core.Options) *core.Result {
	t.Helper()
	res, err := execSim(source, st, machines, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// execSim is runSim for a run that may fail.
func execSim(source string, st store.Store, machines int, opts core.Options) (*core.Result, error) {
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
	cl, err := cluster.New(cluster.FastConfig(machines))
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return core.Execute(ssa, st, cl, opts)
}

// bagKeys returns the dataset as a sorted multiset of codec encodings —
// order-insensitive, exact-value comparison.
func bagKeys(elems []val.Value) []string {
	keys := make([]string, len(elems))
	for i, v := range elems {
		keys[i] = string(val.AppendBinary(nil, v))
	}
	sort.Strings(keys)
	return keys
}

// diffStores fails the test unless both stores hold identical datasets as
// bags (same names, same multisets of elements).
func diffStores(t *testing.T, sim, tcp NamedStore) {
	t.Helper()
	simNames, tcpNames := sim.Names(), tcp.Names()
	sort.Strings(simNames)
	sort.Strings(tcpNames)
	if len(simNames) != len(tcpNames) {
		t.Fatalf("dataset names differ: sim %v, tcp %v", simNames, tcpNames)
	}
	for i, name := range simNames {
		if tcpNames[i] != name {
			t.Fatalf("dataset names differ: sim %v, tcp %v", simNames, tcpNames)
		}
		se, err := sim.ReadDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		te, err := tcp.ReadDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		sk, tk := bagKeys(se), bagKeys(te)
		if len(sk) != len(tk) {
			t.Errorf("dataset %q: sim %d elements, tcp %d", name, len(sk), len(tk))
			continue
		}
		for j := range sk {
			if sk[j] != tk[j] {
				t.Errorf("dataset %q: element multisets differ (first at sorted index %d)", name, j)
				break
			}
		}
	}
}

// diffTCPvsSim runs source on both backends with the same inputs and the
// same options and requires bag-identical outputs.
func diffTCPvsSim(t *testing.T, source string, seed func(store.Store) error, workers int, opts core.Options, window int) {
	t.Helper()
	simStore := store.NewMemStore()
	if seed != nil {
		if err := seed(simStore); err != nil {
			t.Fatal(err)
		}
	}
	runSim(t, source, simStore, workers, opts)

	c, cleanup, err := StartLocal(workers, CoordConfig{CreditWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	tcpStore := store.NewMemStore()
	if seed != nil {
		if err := seed(tcpStore); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Run(source, tcpStore, opts); err != nil {
		t.Fatal(err)
	}
	diffStores(t, simStore, tcpStore)
}

func TestTCPMatchesSimVisitCount(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 6, VisitsPerDay: 120, Pages: 40, WithDiff: true, Seed: 7}
	diffTCPvsSim(t, spec.Script(), spec.Generate, 3, core.DefaultOptions(), 0)
}

// TestTCPMatchesSimFig5 covers the fig5 workload shape (visit count with
// day diffs at the quick experiment scale) on 4 workers.
func TestTCPMatchesSimFig5(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 8, VisitsPerDay: 500, Pages: 300, WithDiff: true, Seed: 5}
	if testing.Short() {
		spec.VisitsPerDay = 100
	}
	diffTCPvsSim(t, spec.Script(), spec.Generate, 4, core.DefaultOptions(), 0)
}

func TestTCPMatchesSimStepLoop(t *testing.T) {
	diffTCPvsSim(t, workload.StepLoopScript(12), nil, 2, core.DefaultOptions(), 0)
}

// TestTCPMatchesSimNonPipelined exercises the real barrier round trips the
// non-pipelined coordinator pays before every broadcast.
func TestTCPMatchesSimNonPipelined(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 5, VisitsPerDay: 100, Pages: 30, WithDiff: true, Seed: 3}
	opts := core.DefaultOptions()
	opts.Pipelining = false
	diffTCPvsSim(t, spec.Script(), spec.Generate, 3, opts, 0)
}

// TestTCPMatchesSimAblated runs with every plan rewrite off (no combiners,
// no chaining, no hoisting) so remote traffic takes the raw-element paths.
func TestTCPMatchesSimAblated(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 5, VisitsPerDay: 100, Pages: 30, WithDiff: true, Seed: 9}
	opts := core.DefaultOptions()
	opts.Combiners = false
	opts.Chaining = false
	opts.Hoisting = false
	diffTCPvsSim(t, spec.Script(), spec.Generate, 3, opts, 0)
}

// TestTCPMatchesSimAfterRetry is the sim-parity differential *through* a
// failure: a worker dies mid-job, the coordinator re-executes on the
// rejoined pool, and the recovered run's bags must still match the
// simulated backend element for element — re-admission must hand the
// rejoining worker its old machine ID, or i%n placement (and therefore
// the bags) would shift between attempts.
func TestTCPMatchesSimAfterRetry(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 12, VisitsPerDay: 2000, Pages: 200, WithDiff: true, Seed: 17}
	opts := core.DefaultOptions()

	simStore := store.NewMemStore()
	if err := spec.Generate(simStore); err != nil {
		t.Fatal(err)
	}
	runSim(t, spec.Script(), simStore, 3, opts)

	c, workers, cleanup, err := startLocalWorkers(3, retryCfg(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	var res *Result
	var tcpStore *store.MemStore
	for round := 0; ; round++ {
		if round == 10 {
			t.Fatal("kill never landed mid-job in 10 rounds")
		}
		tcpStore = store.NewMemStore()
		if err := spec.Generate(tcpStore); err != nil {
			t.Fatal(err)
		}
		type runResult struct {
			res *Result
			err error
		}
		done := make(chan runResult, 1)
		go func() {
			r, err := c.Run(spec.Script(), tcpStore, opts)
			done <- runResult{r, err}
		}()
		time.Sleep(time.Duration(5+round*10) * time.Millisecond)
		workers[round%3].Kill()
		r := <-done
		if r.err != nil {
			t.Fatalf("job did not recover: %v", r.err)
		}
		if r.res.Attempts >= 2 {
			res = r.res
			break
		}
	}
	t.Logf("recovered after %d attempts: %v", res.Attempts, res.AttemptErrors)
	diffStores(t, simStore, tcpStore)
}

// TestTCPSingleWorker: a 1-worker cluster has no peer links at all; every
// edge is process-local but the control plane still runs over TCP.
func TestTCPSingleWorker(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 4, VisitsPerDay: 60, Pages: 20, WithDiff: true, Seed: 2}
	diffTCPvsSim(t, spec.Script(), spec.Generate, 1, core.DefaultOptions(), 0)
}

// TestTCPSequentialJobs reuses one session for several jobs: the peer
// readers must park between jobs and re-attach to the next one, and a job
// whose specs are encoded into the last job's buffers — other inputs, some
// smaller — must still match the simulated backend.
func TestTCPSequentialJobs(t *testing.T) {
	c, cleanup, err := StartLocal(2, CoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	for i, visits := range []int{60, 50, 40, 60} {
		spec := workload.VisitCountSpec{Days: 4, VisitsPerDay: visits, Pages: 20, WithDiff: true, Seed: int64(i + 1)}
		simStore, st := store.NewMemStore(), store.NewMemStore()
		if err := spec.Generate(simStore); err != nil {
			t.Fatal(err)
		}
		if err := spec.Generate(st); err != nil {
			t.Fatal(err)
		}
		runSim(t, spec.Script(), simStore, 2, core.DefaultOptions())
		res, err := c.Run(spec.Script(), st, core.DefaultOptions())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Steps == 0 {
			t.Fatalf("job %d: no steps", i)
		}
		diffStores(t, simStore, st)
	}
}

// TestTCPTeardownMidJob tears the whole session down while producers are
// mid-serialization on the peer links, at varied points. Run with -race.
// The job must fail (or, in the earliest iterations, finish first) without
// hangs, panics, or races.
func TestTCPTeardownMidJob(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		c, cleanup, err := StartLocal(3, CoordConfig{CreditWindow: 2})
		if err != nil {
			t.Fatal(err)
		}
		spec := workload.VisitCountSpec{Days: 20, VisitsPerDay: 2000, Pages: 200, WithDiff: true, Seed: int64(iter)}
		st := store.NewMemStore()
		if err := spec.Generate(st); err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.BatchSize = 2 // maximize frames in flight
		done := make(chan error, 1)
		go func() {
			_, err := c.Run(spec.Script(), st, opts)
			done <- err
		}()
		time.Sleep(time.Duration(iter) * 2 * time.Millisecond)
		cleanup()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("iter %d: teardown mid-job hung", iter)
		}
	}
}

// TestTCPResultStats sanity-checks the merged result counters: real socket
// traffic at least covers the encoded batch payloads.
func TestTCPResultStats(t *testing.T) {
	c, cleanup, err := StartLocal(3, CoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	spec := workload.VisitCountSpec{Days: 6, VisitsPerDay: 200, Pages: 50, WithDiff: true, Seed: 4}
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(spec.Script(), st, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Job.RemoteBatches == 0 {
		t.Error("no remote batches on a 3-worker run")
	}
	if res.SocketBytes < res.Job.BytesSent {
		t.Errorf("SocketBytes = %d < encoded payload bytes %d", res.SocketBytes, res.Job.BytesSent)
	}
	if res.Job.BytesSent != res.Job.BytesReceived {
		t.Errorf("BytesSent %d != BytesReceived %d after a clean run", res.Job.BytesSent, res.Job.BytesReceived)
	}
	if len(res.PeerLinks) != 3 {
		t.Fatalf("PeerLinks = %d workers, want 3", len(res.PeerLinks))
	}
	for id, links := range res.PeerLinks {
		if len(links) != 2 {
			t.Errorf("worker %d: %d peer links, want 2", id, len(links))
		}
	}
}

// TestTCPProtocolErrorReleasesReaders fails a job with a control-protocol
// error at the one moment a worker reader could be left behind: blocked in
// its send on a full session.events, with the coordinator gone inert and
// nothing draining the channel any more. The session failure alone must
// get every reader out, so shutdown — which waits for them — returns.
// The attempt is assembled by hand (what runAttempt does, minus its event
// loop) so that nothing drains the channel and the block is certain.
func TestTCPProtocolErrorReleasesReaders(t *testing.T) {
	c, cleanup, err := StartLocal(2, CoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	c.mu.Lock()
	s := c.sess
	c.mu.Unlock()
	// Untemplated, every instance reports every completion in a frame of
	// its own, so the first step already produces worker events.
	opts := core.DefaultOptions()
	opts.Templates = false
	job, err := c.prepare(workload.StepLoopScript(50), store.NewMemStore(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the channel with events of a kind the coordinator ignores.
	for i := 0; i < cap(s.events); i++ {
		s.events <- core.CoordEvent{Kind: 99}
	}
	s.ship(job.specs)
	co := core.NewCoordinator(job.plan, job.opts, 2, &tcpControlPlane{s: s})
	seeded := s.ctrlMsgs.Load()
	co.Seed()
	// A reader charges an event frame to the control counters just before
	// it sends the event on; one frame beyond the seed broadcast's (one per
	// released position per worker) means a reader is at that send, and
	// the channel has no room for it.
	seeded += 2 * int64(co.Result().Steps)
	for deadline := time.Now().Add(10 * time.Second); s.ctrlMsgs.Load() == seeded; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no worker event within 10s of seeding the job")
		}
	}
	// A decision for a position the path cannot have reached.
	co.OnEvent(core.CoordEvent{Kind: core.EvDecision, Pos: 1 << 30})
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "decision for position") {
		t.Fatalf("session error = %v, want the injected protocol error", err)
	}
	down := make(chan struct{})
	go func() {
		s.shutdown()
		close(down)
	}()
	select {
	case <-down:
	case <-time.After(10 * time.Second):
		t.Fatal("session shutdown still waiting 10s after a protocol error: a reader never left session.events")
	}
}
