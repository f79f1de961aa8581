package netcluster

import (
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestRedialBackoffBoundsDialRate pins the regression the old -redial
// loop had: with no listener at the coordinator address every Serve
// fails in microseconds, and an unthrottled loop turns that into
// thousands of dials per second. With capped exponential backoff the
// attempt count over a fixed window is bounded by the backoff schedule.
func TestRedialBackoffBoundsDialRate(t *testing.T) {
	// Reserve an address with nothing listening on it: bind, note the
	// port, close. Dials are then refused immediately (the fast-failure
	// worst case for a dial loop).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var attempts atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveLoop(WorkerConfig{Coord: addr}, RedialConfig{
			Base: 20 * time.Millisecond,
			Max:  150 * time.Millisecond,
		}, stop, func(cfg WorkerConfig, stop <-chan struct{}) error {
			attempts.Add(1)
			return Serve(cfg, stop)
		})
	}()

	const window = 1200 * time.Millisecond
	time.Sleep(window)
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveLoop did not exit after stop")
	}

	got := attempts.Load()
	// Schedule with Base 20ms / Max 150ms and jitter in [d/2, d]: the
	// fastest possible sequence of delays is 10, 20, 40, 75, 75, ... ms,
	// so 1.2s admits at most ~18 attempts. Allow headroom for scheduler
	// noise; the bug this guards against produced thousands.
	if got > 40 {
		t.Errorf("%d dial attempts in %v: backoff is not bounding the rate", got, window)
	}
	if got < 3 {
		t.Errorf("%d dial attempts in %v: loop is not retrying", got, window)
	}
	t.Logf("%d dial attempts in %v", got, window)
}
