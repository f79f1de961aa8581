package netcluster

import (
	"sync"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
	"github.com/mitos-project/mitos/internal/workload"
)

// TestCreditWindowBoundsInFlight is the slow-consumer memory bound in
// miniature: a fast producer acquiring credits against a consumer that
// grants them back slowly. The producer must block — never exceeding the
// window — and the in-flight high-water mark is exactly the window, not
// the number of frames produced.
func TestCreditWindowBoundsInFlight(t *testing.T) {
	const window, frames = 4, 200
	c := newCredits(window)
	k := chanKey{op: 1, inst: 0, input: 0, from: 0}

	granted := make(chan struct{}, frames)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // slow consumer: returns one credit per millisecond
		defer wg.Done()
		for i := 0; i < frames; i++ {
			<-granted
			time.Sleep(time.Millisecond)
			c.grant(k, 1)
		}
	}()
	for i := 0; i < frames; i++ {
		if !c.acquire(k) {
			t.Fatal("acquire failed on open table")
		}
		granted <- struct{}{}
	}
	wg.Wait()

	if got := c.maxWindowUsed(); got > window {
		t.Errorf("in-flight high-water mark %d exceeds window %d", got, window)
	}
	if c.stalls.Load() == 0 {
		t.Error("fast producer against slow consumer never stalled")
	}
	c.mu.Lock()
	inFlight := c.inFlight
	c.mu.Unlock()
	if inFlight != 0 {
		t.Errorf("%d frames still in flight after all grants", inFlight)
	}
}

func TestCreditCloseReleasesWaiters(t *testing.T) {
	c := newCredits(1)
	k := chanKey{op: 1}
	if !c.acquire(k) {
		t.Fatal("first acquire failed")
	}
	done := make(chan bool)
	go func() { done <- c.acquire(k) }() // blocks: window exhausted
	time.Sleep(10 * time.Millisecond)
	c.close()
	select {
	case ok := <-done:
		if ok {
			t.Error("acquire succeeded on closed table")
		}
	case <-time.After(time.Second):
		t.Fatal("close did not release the blocked acquire")
	}
	if c.acquire(k) {
		t.Error("acquire after close succeeded")
	}
}

// TestTCPTinyCreditWindow runs a shuffle-heavy job with a window of 1
// frame per channel: every second frame on a channel must wait for the
// previous one's processing ack, so stalls are guaranteed — and the job
// must still complete with correct results (no flow-control deadlock).
func TestTCPTinyCreditWindow(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 6, VisitsPerDay: 300, Pages: 60, WithDiff: true, Seed: 8}
	opts := core.DefaultOptions()
	opts.BatchSize = 4 // many small frames
	diffTCPvsSim(t, spec.Script(), spec.Generate, 3, opts, 1)
}

// TestTCPHeavyShuffleWindowOne is the regression test for the distributed
// credit-flow deadlock: before senders moved to dedicated per-peer
// goroutines, a large shuffle at window 1 with tiny batches would (with
// high probability) reach a state where every machine's event loops were
// blocked in credits.acquire inside Emit, so no mailbox drained, no acks
// fired, and no grants ever flowed — a waits-for cycle across machines.
// The workload is sized so the pre-fix code deadlocked roughly half the
// time per run; any reintroduced blocking send on an event-loop path
// shows up here as a 60s timeout rather than a rare CI flake.
func TestTCPHeavyShuffleWindowOne(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 20, VisitsPerDay: 4000, Pages: 300, WithDiff: true, Seed: 21}
	opts := core.DefaultOptions()
	opts.BatchSize = 2
	c, cleanup, err := StartLocal(3, CoordConfig{CreditWindow: 1})
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
	select {
	case err = <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("window-1 heavy shuffle deadlocked (event loop blocked on credits?)")
	}
}

// TestTCPSmallWindowStalls checks the observable: with a 1-frame window
// and tiny batches the stall counters must fire.
func TestTCPSmallWindowStalls(t *testing.T) {
	c, cleanup, err := StartLocal(2, CoordConfig{CreditWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	spec := workload.VisitCountSpec{Days: 6, VisitsPerDay: 400, Pages: 80, WithDiff: true, Seed: 6}
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.BatchSize = 2
	res, err := c.Run(spec.Script(), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CreditStalls == 0 {
		t.Error("window=1 with batch=2 never stalled a sender")
	}
	t.Logf("stalls=%d stall_time=%v frames", res.CreditStalls, res.CreditStallTime)
}

// TestTCPParkedProbeReturnsCredit: a join whose probe side is read from the
// store reaches its host ahead of everything its build waits for — the build
// is a reduceByKey of the same input, complete only once the read is — and,
// at window 1, over the same peer link. The host parks the probe frames until
// its build is complete. A parked frame returns its credit as it parks; one
// that kept it until it was processed would stall the peer's one sender on
// the probe channel, ahead of the combiner frames the build needs, and the
// job would never finish.
func TestTCPParkedProbeReturnsCredit(t *testing.T) {
	const script = `visits = readFile("visits")
counts = visits.map(v => (v.0, 1)).reduceByKey((a, b) => a + b)
counts.join(visits).writeFile("joined")
`
	seed := func(st store.Store) error {
		vs := make([]val.Value, 2000)
		for i := range vs {
			vs[i] = val.Pair(val.Int(int64(i%37)), val.Int(int64(i)))
		}
		return st.WriteDataset("visits", vs)
	}
	opts := core.DefaultOptions()
	opts.BatchSize = 2
	simStore := store.NewMemStore()
	if err := seed(simStore); err != nil {
		t.Fatal(err)
	}
	runSim(t, script, simStore, 2, opts)

	c, cleanup, err := StartLocal(2, CoordConfig{CreditWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	tcpStore := store.NewMemStore()
	if err := seed(tcpStore); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(script, tcpStore, opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("window-1 join deadlocked: a parked probe frame kept its channel's credit, so the peer's sender stalled ahead of the frames the join's build waits for")
	}
	diffStores(t, simStore, tcpStore)
}
