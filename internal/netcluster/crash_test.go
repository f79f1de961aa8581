package netcluster

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// TestMain doubles as the worker process for the multi-process tests: when
// MITOS_WORKER_COORD is set, the re-executed test binary is a worker, not
// a test run. MITOS_WORKER_NAME fixes the registration identity and
// MITOS_WORKER_REDIAL=1 wraps Serve in the reconnect loop, exactly what
// `mitos-worker -redial` does.
func TestMain(m *testing.M) {
	if addr := os.Getenv("MITOS_WORKER_COORD"); addr != "" {
		cfg := WorkerConfig{Coord: addr, Name: os.Getenv("MITOS_WORKER_NAME")}
		if os.Getenv("MITOS_WORKER_REDIAL") != "" {
			// Runs until the process is killed; ServeLoop only returns on a
			// closed stop channel.
			ServeLoop(cfg, RedialConfig{Base: 25 * time.Millisecond, Max: time.Second}, nil)
			os.Exit(0)
		}
		if err := Serve(cfg, nil); err != nil {
			fmt.Fprintf(os.Stderr, "worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnWorker re-execs the test binary as one worker process pointed at
// addr, with any extra environment (name, redial mode) appended.
func spawnWorker(t *testing.T, addr string, extraEnv ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(append(os.Environ(), "MITOS_WORKER_COORD="+addr), extraEnv...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// spawnWorkers re-execs the test binary n times as worker processes
// pointed at addr.
func spawnWorkers(t *testing.T, n int, addr string) []*exec.Cmd {
	t.Helper()
	var cmds []*exec.Cmd
	for i := 0; i < n; i++ {
		cmds = append(cmds, spawnWorker(t, addr))
	}
	return cmds
}

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestMultiProcessRun is the happy path across real process boundaries:
// coordinator in the test process, three forked workers, visitcount output
// identical to the simulated backend.
func TestMultiProcessRun(t *testing.T) {
	ln := listenLoopback(t)
	spawnWorkers(t, 3, ln.Addr().String())
	c, err := Listen(CoordConfig{Listener: ln, Workers: 3, SetupTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := workload.VisitCountSpec{Days: 6, VisitsPerDay: 150, Pages: 40, WithDiff: true, Seed: 17}
	tcpStore := store.NewMemStore()
	if err := spec.Generate(tcpStore); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(spec.Script(), tcpStore, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}

	simStore := store.NewMemStore()
	if err := spec.Generate(simStore); err != nil {
		t.Fatal(err)
	}
	runSim(t, spec.Script(), simStore, 3, core.DefaultOptions())
	diffStores(t, simStore, tcpStore)
}

// TestWorkerCrashMidJob SIGKILLs one worker process while a long job is
// running. The coordinator must fail the job promptly (well within the
// heartbeat timeout — a dying process closes its sockets), the returned
// error must name the dead worker, and the coordinator must not leak
// goroutines.
func TestWorkerCrashMidJob(t *testing.T) {
	before := runtime.NumGoroutine()

	ln := listenLoopback(t)
	cmds := spawnWorkers(t, 3, ln.Addr().String())
	c, err := Listen(CoordConfig{Listener: ln, Workers: 3,
		HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 2 * time.Second,
		SetupTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// A step loop long enough that the kill lands mid-job: each step costs
	// at least one control round trip per worker.
	type runResult struct {
		res *Result
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		st := store.NewMemStore()
		res, err := c.Run(workload.StepLoopScript(50000), st, core.DefaultOptions())
		done <- runResult{res, err}
	}()

	time.Sleep(300 * time.Millisecond)
	victim := cmds[1]
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	killedAt := time.Now()

	select {
	case r := <-done:
		if r.err == nil {
			t.Fatalf("job succeeded (%+v) despite killed worker — kill landed after completion?", r.res)
		}
		detect := time.Since(killedAt)
		// Machine IDs follow registration arrival order, not spawn order,
		// so assert a worker is named without pinning which.
		if !strings.Contains(r.err.Error(), "worker ") || !strings.Contains(r.err.Error(), "lost") {
			t.Errorf("error does not name the dead worker: %v", r.err)
		}
		if detect > 2*time.Second {
			t.Errorf("failure detected after %v, beyond the heartbeat timeout", detect)
		}
		t.Logf("detected in %v: %v", detect, r.err)
	case <-time.After(20 * time.Second):
		t.Fatal("job hung after worker kill")
	}

	c.Close()
	// The surviving workers exit once the coordinator closes their
	// connections; goroutines must drain.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 64<<10)
	t.Errorf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(),
		buf[:runtime.Stack(buf, true)])
}

// TestWorkerCrashRecovery is the end-to-end survival line across real
// process boundaries: three worker processes running the redial loop, one
// SIGKILLed mid-job and replaced by a fresh process under the same name
// (a supervisor restart). The coordinator must tear the attempt down,
// re-admit the survivors and the replacement — giving the replacement its
// predecessor's machine ID — re-execute, and return a Result that both
// matches the simulated backend bag for bag and reports how many attempts
// it took.
func TestWorkerCrashRecovery(t *testing.T) {
	before := runtime.NumGoroutine()
	ln := listenLoopback(t)
	addr := ln.Addr().String()
	names := []string{"proc-a", "proc-b", "proc-c"}
	cmds := make([]*exec.Cmd, len(names))
	for i, name := range names {
		cmds[i] = spawnWorker(t, addr, "MITOS_WORKER_NAME="+name, "MITOS_WORKER_REDIAL=1")
	}
	c, err := Listen(CoordConfig{Listener: ln, Workers: 3,
		Retries: 3, RetryBackoff: 50 * time.Millisecond, RetryBackoffMax: 500 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 3 * time.Second,
		SetupTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	victimID := c.workerID("proc-b")
	if victimID < 0 {
		t.Fatal("proc-b has no machine ID after establish")
	}

	spec := workload.VisitCountSpec{Days: 20, VisitsPerDay: 4000, Pages: 300, WithDiff: true, Seed: 23}
	simStore := store.NewMemStore()
	if err := spec.Generate(simStore); err != nil {
		t.Fatal(err)
	}
	runSim(t, spec.Script(), simStore, 3, core.DefaultOptions())

	type runResult struct {
		res *Result
		err error
	}
	var res *Result
	var tcpStore *store.MemStore
	for round := 0; ; round++ {
		if round == 8 {
			t.Fatal("kill never landed mid-job in 8 rounds")
		}
		tcpStore = store.NewMemStore()
		if err := spec.Generate(tcpStore); err != nil {
			t.Fatal(err)
		}
		done := make(chan runResult, 1)
		go func() {
			r, err := c.Run(spec.Script(), tcpStore, core.DefaultOptions())
			done <- runResult{r, err}
		}()
		time.Sleep(time.Duration(10+round*25) * time.Millisecond)
		if err := cmds[1].Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		cmds[1].Wait()
		// The supervisor restart: a new process, the same identity.
		cmds[1] = spawnWorker(t, addr, "MITOS_WORKER_NAME=proc-b", "MITOS_WORKER_REDIAL=1")
		var r runResult
		select {
		case r = <-done:
		case <-time.After(120 * time.Second):
			t.Fatal("job hung after worker kill + replacement")
		}
		if r.err != nil {
			t.Fatalf("job did not recover: %v", r.err)
		}
		if r.res.Attempts >= 2 {
			res = r.res
			break
		}
		// The kill was absorbed before execution (pool rebuilt, one
		// attempt); try again with a later kill so it lands mid-stream.
	}
	if len(res.AttemptErrors) != res.Attempts-1 {
		t.Errorf("AttemptErrors = %d entries for %d attempts", len(res.AttemptErrors), res.Attempts)
	}
	if got := c.workerID("proc-b"); got != victimID {
		t.Errorf("replacement worker got machine ID %d, want predecessor's %d", got, victimID)
	}
	t.Logf("recovered after %d attempts: %v", res.Attempts, res.AttemptErrors)
	diffStores(t, simStore, tcpStore)

	c.Close()
	awaitGoroutines(t, before)
}

// TestHeartbeatTimeout exercises the timeout path itself with a fake
// worker that completes the handshake but then goes silent (a wedged
// process rather than a dead one: the socket stays open, so only the
// heartbeat monitor can catch it).
func TestHeartbeatTimeout(t *testing.T) {
	ln := listenLoopback(t)
	fakeDone := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			fakeDone <- err
			return
		}
		defer conn.Close()
		if _, err := WriteMsg(conn, nil, MsgHello, AppendHello(nil, Hello{Role: RoleWorker})); err != nil {
			fakeDone <- err
			return
		}
		if _, err := WriteMsg(conn, nil, MsgRegister, AppendRegister(nil, Register{DataAddr: "127.0.0.1:1"})); err != nil {
			fakeDone <- err
			return
		}
		var buf []byte
		typ, _, _, err := ReadMsg(conn, buf) // Assign
		if err != nil || typ != MsgAssign {
			fakeDone <- fmt.Errorf("expected assign, got %#x err %v", typ, err)
			return
		}
		if _, err := WriteMsg(conn, nil, MsgReady, []byte{0}); err != nil {
			fakeDone <- err
			return
		}
		fakeDone <- nil
		// ... and never heartbeat. Hold the connection open, discarding
		// whatever the coordinator sends (RTT pings included — replying
		// would be traffic, and any traffic proves liveness), until the
		// coordinator gives up on us.
		var rbuf []byte
		for {
			_, _, nbuf, err := ReadMsg(conn, rbuf)
			if err != nil {
				return
			}
			rbuf = nbuf
		}
	}()

	c, err := Listen(CoordConfig{Listener: ln, Workers: 1,
		HeartbeatInterval: 25 * time.Millisecond, HeartbeatTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := <-fakeDone; err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Err(); err != nil {
			if !strings.Contains(err.Error(), "no heartbeat") || !strings.Contains(err.Error(), "worker 0") {
				t.Errorf("unexpected failure: %v", err)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("silent worker never triggered the heartbeat timeout")
}

// TestSurplusReadyFailsSession: a fake worker registers, sends its Ready,
// and once the session is up sends Workers+1 more. The coordinator holds
// only one Ready per worker, so the surplus must fail the session naming
// the worker instead of parking its reader, and Close must return.
func TestSurplusReadyFailsSession(t *testing.T) {
	const workers = 1
	ln := listenLoopback(t)
	up := make(chan struct{})
	fakeDone := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			fakeDone <- err
			return
		}
		defer conn.Close()
		if _, err := WriteMsg(conn, nil, MsgHello, AppendHello(nil, Hello{Role: RoleWorker})); err != nil {
			fakeDone <- err
			return
		}
		if _, err := WriteMsg(conn, nil, MsgRegister, AppendRegister(nil, Register{DataAddr: "127.0.0.1:1"})); err != nil {
			fakeDone <- err
			return
		}
		typ, _, _, err := ReadMsg(conn, nil)
		if err != nil || typ != MsgAssign {
			fakeDone <- fmt.Errorf("expected assign, got %#x err %v", typ, err)
			return
		}
		for i := 0; i < workers+2; i++ {
			if i == 1 {
				<-up
			}
			if _, err := WriteMsg(conn, nil, MsgReady, []byte{0}); err != nil {
				fakeDone <- err
				return
			}
		}
		fakeDone <- nil
		var rbuf []byte
		for {
			_, _, nbuf, err := ReadMsg(conn, rbuf)
			if err != nil {
				return
			}
			rbuf = nbuf
		}
	}()

	c, err := Listen(CoordConfig{Listener: ln, Workers: workers})
	close(up)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-fakeDone; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "worker 0") || !strings.Contains(err.Error(), "surplus ready") {
		t.Errorf("session error = %v, want worker 0's surplus ready", err)
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a worker that sent a surplus Ready")
	}
}

// TestWorkerCrashBeforeJob: the session is up, a worker dies while idle,
// and the next Run must fail fast instead of hanging.
func TestWorkerCrashBeforeJob(t *testing.T) {
	ln := listenLoopback(t)
	cmds := spawnWorkers(t, 2, ln.Addr().String())
	c, err := Listen(CoordConfig{Listener: ln, Workers: 2, SetupTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cmds[0].Process.Signal(syscall.SIGKILL)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.Err() == nil {
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "worker ") {
		t.Fatalf("session error after idle kill = %v", err)
	}
	st := store.NewMemStore()
	if _, err := c.Run(workload.StepLoopScript(3), st, core.DefaultOptions()); err == nil {
		t.Fatal("Run on a failed session succeeded")
	}
}
