package netcluster

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math/big"
	"os"
	"time"
)

// The worker-side half of fault tolerance: a reconnect loop. The
// coordinator survives worker loss by tearing the session down and
// re-admitting workers; ServeLoop is what brings the workers back — after
// coordinator crashes, network errors, and session teardowns alike, not
// only after a clean session close. Backoff is capped exponential with
// jitter so a fleet of workers pointed at a dead coordinator neither
// spins in a tight dial loop nor reconnects in synchronized thundering
// herds once it returns.

// RedialConfig shapes ServeLoop's reconnect backoff.
type RedialConfig struct {
	// Base is the first reconnect delay (default 100ms).
	Base time.Duration
	// Max caps the exponential growth (default 5s).
	Max time.Duration
}

func (rd *RedialConfig) defaults() {
	if rd.Base <= 0 {
		rd.Base = 100 * time.Millisecond
	}
	if rd.Max < rd.Base {
		rd.Max = 5 * time.Second
		if rd.Max < rd.Base {
			rd.Max = rd.Base
		}
	}
}

// defaultWorkerName builds a process-stable worker identity: the same
// process presents the same name on every redial (so it gets its machine
// ID back), while two processes on one host never collide.
func defaultWorkerName() string {
	host, _ := os.Hostname()
	var rnd [4]byte
	rand.Read(rnd[:])
	return fmt.Sprintf("%s-%d-%s", host, os.Getpid(), hex.EncodeToString(rnd[:]))
}

// jitter returns a uniform duration in [d/2, d]: enough randomness to
// de-synchronize a worker fleet, while keeping the lower bound high
// enough that backoff still bounds the dial rate.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	n, err := rand.Int(rand.Reader, big.NewInt(int64(half)+1))
	if err != nil {
		return d
	}
	return half + time.Duration(n.Int64())
}

// ServeLoop serves sessions against the coordinator until stop closes,
// redialing with capped exponential backoff + jitter in between. Every
// exit of Serve re-enters the loop: a clean session close (coordinator
// finished), a mid-job session failure (a peer died and the coordinator
// is re-executing — the worker must come back to be re-admitted), a
// coordinator crash, or a dial error because the coordinator is not up
// yet. The delay doubles while attempts keep failing fast and resets once
// a session survives past the backoff cap, so a worker that outlives many
// coordinator runs reconnects promptly each time. ServeLoop returns nil
// when stop closes; it never returns an error — errors are what the
// backoff absorbs. If cfg.Name is empty a process-stable identity is
// generated once, so redials within one loop always present the same
// name and regain the same machine ID.
func ServeLoop(cfg WorkerConfig, rd RedialConfig, stop <-chan struct{}) error {
	return serveLoop(cfg, rd, stop, Serve)
}

// serveLoop is ServeLoop with the attempt made pluggable: serve runs one
// session until it ends or its stop closes. An in-process worker serves
// with a stop that a kill switch can also close.
func serveLoop(cfg WorkerConfig, rd RedialConfig, stop <-chan struct{}, serve func(WorkerConfig, <-chan struct{}) error) error {
	rd.defaults()
	if cfg.Name == "" {
		cfg.Name = defaultWorkerName()
	}
	delay := rd.Base
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		began := time.Now()
		err := serve(cfg, stop)
		select {
		case <-stop:
			return nil
		default:
		}
		// A session that lived past the cap was established and doing real
		// work; its eventual loss is a fresh failure, not part of an
		// ongoing dial storm. Start the backoff over.
		if err == nil || time.Since(began) > rd.Max {
			delay = rd.Base
		}
		t := time.NewTimer(jitter(delay))
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			return nil
		}
		if err != nil {
			if delay *= 2; delay > rd.Max {
				delay = rd.Max
			}
		}
	}
}
