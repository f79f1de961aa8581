package netcluster

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// localRedial is the reconnect backoff for in-process loopback workers:
// aggressive, because re-admission latency is pure test/bench time here.
var localRedial = RedialConfig{Base: 25 * time.Millisecond, Max: time.Second}

// StartLocal starts a coordinator plus n in-process workers connected over
// real loopback TCP — the complete wire path (handshake, plan shipment,
// peer mesh, credit flow control) without separate processes. Tests, the
// benchmark harness, and the tcp-vs-sim differential all use it; the
// multi-process path is exercised by cmd/mitos-worker and the crash
// integration test. The workers run redial loops, so a coordinator
// configured with Retries > 0 can lose one and recover.
//
// The returned cleanup closes the session and waits for every worker
// goroutine to exit; it must be called even when a later Run fails.
func StartLocal(n int, cfg CoordConfig) (*Coordinator, func(), error) {
	c, _, cleanup, err := startLocalWorkers(n, cfg)
	return c, cleanup, err
}

// localWorker is one in-process worker: a redial loop plus a kill switch
// that aborts the current session as abruptly as a process death would
// (every connection closes mid-stream), while the loop survives to redial
// — the in-process analogue of SIGKILL + restart with -redial.
type localWorker struct {
	name string

	mu   sync.Mutex
	kill chan struct{}
}

// Kill tears down the worker's current session; its redial loop brings a
// fresh session up. Safe to call repeatedly and concurrently.
func (w *localWorker) Kill() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.kill != nil {
		select {
		case <-w.kill:
		default:
			close(w.kill)
		}
	}
}

// serve is one attempt of the worker's redial loop: it arms the kill
// switch, then serves with a stop that closes on the loop's stop or on
// Kill, so either unwinds Serve like a dying process.
func (w *localWorker) serve(cfg WorkerConfig, stop <-chan struct{}) error {
	kill := make(chan struct{})
	w.mu.Lock()
	w.kill = kill
	w.mu.Unlock()
	attemptStop, served := make(chan struct{}), make(chan struct{})
	go func() {
		select {
		case <-stop:
		case <-kill:
		case <-served:
		}
		close(attemptStop)
	}()
	defer close(served)
	return Serve(cfg, attemptStop)
}

// startLocalWorkers builds the in-process cluster and hands back the
// per-worker kill switches (used by the fault-injection tests).
func startLocalWorkers(n int, cfg CoordConfig) (*Coordinator, []*localWorker, func(), error) {
	cfg.Workers = n
	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	if cfg.Listener == nil {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("netcluster: local cluster listen: %w", err)
		}
		cfg.Listener = ln
	}
	addr := cfg.Listener.Addr().String()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	workers := make([]*localWorker, n)
	for i := 0; i < n; i++ {
		w := &localWorker{name: fmt.Sprintf("local-%d", i)}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveLoop(WorkerConfig{Coord: addr, Name: w.name}, localRedial, stop, w.serve)
		}()
	}
	c, err := Listen(cfg)
	if err != nil {
		close(stop)
		wg.Wait()
		return nil, nil, nil, err
	}
	var once sync.Once
	cleanup := func() {
		once.Do(func() {
			c.Close()
			close(stop)
			wg.Wait()
		})
	}
	return c, workers, cleanup, nil
}
