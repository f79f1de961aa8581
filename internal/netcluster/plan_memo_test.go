package netcluster

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// TestTCPPlanMemo runs a sequence of jobs on one two-worker session and
// counts front-end runs across the coordinator and both workers: a job
// that repeats the last job's script and plan options compiles nothing on
// any of the three, and a changed script, Combiners, Chaining or
// Parallelism compiles again on all three. Options outside core.PlanKey
// reuse the plan. Every job's outputs match the sequential interpreter's.
func TestTCPPlanMemo(t *testing.T) {
	var compiles atomic.Int64
	compileHook = func() { compiles.Add(1) }
	defer func() { compileHook = nil }()
	c, cleanup, err := StartLocal(2, CoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	a := workload.VisitCountSpec{Days: 3, VisitsPerDay: 300, Pages: 40, WithDiff: true, Seed: 3}
	b := a
	b.WithPageTypes = true
	with := func(edit func(*core.Options)) core.Options {
		o := core.DefaultOptions()
		edit(&o)
		return o
	}
	steps := []struct {
		name string
		spec workload.VisitCountSpec
		opts core.Options
		want int64 // front-end runs: 1 on the coordinator + 1 per worker, or none
	}{
		{"first job", a, core.DefaultOptions(), 3},
		{"same job", a, core.DefaultOptions(), 0},
		{"options outside the key", a, with(func(o *core.Options) { o.Templates, o.Hoisting, o.BatchSize = false, false, 64 }), 0},
		{"Combiners", a, with(func(o *core.Options) { o.Combiners = false }), 3},
		{"Chaining", a, with(func(o *core.Options) { o.Combiners, o.Chaining = false, false }), 3},
		{"Parallelism", a, with(func(o *core.Options) { o.Parallelism = 4 }), 3},
		{"script", b, with(func(o *core.Options) { o.Parallelism = 4 }), 3},
		{"same script again", b, with(func(o *core.Options) { o.Parallelism = 4 }), 0},
		{"back to the first", a, core.DefaultOptions(), 3},
	}
	for _, s := range steps {
		want := sequential(t, s.spec.Script(), s.spec.Generate)
		st := store.NewMemStore()
		if err := s.spec.Generate(st); err != nil {
			t.Fatal(err)
		}
		before := compiles.Load()
		if _, err := c.Run(s.spec.Script(), st, s.opts); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := compiles.Load() - before; got != s.want {
			t.Errorf("%s: %d front-end runs across the coordinator and 2 workers, want %d", s.name, got, s.want)
		}
		diffStores(t, want, st)
	}
}

// sequential runs source on the sequential interpreter over the inputs
// seed writes, the oracle every backend must match.
func sequential(t *testing.T, source string, seed func(store.Store) error) *store.MemStore {
	t.Helper()
	st := store.NewMemStore()
	if err := seed(st); err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(source)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.RunAST(prog, st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWorkerStopInMeshAccept: a worker whose coordinator assigned it a peer
// that never dials waits in the mesh's peer Accept. Closing its stop must
// end Serve at once, not after the handshake timeout, and with nil: the
// Accept the stop broke is not a session failure.
func TestWorkerStopInMeshAccept(t *testing.T) {
	ln := listenLoopback(t)
	defer ln.Close()
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- Serve(WorkerConfig{Coord: ln.Addr().String()}, stop) }()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var reg Register
	for _, want := range []byte{MsgHello, MsgRegister} {
		typ, body, _, err := ReadMsg(conn, nil)
		if err != nil || typ != want {
			t.Fatalf("worker sent %#x (err %v), want %#x", typ, err, want)
		}
		if typ == MsgRegister {
			if reg, err = DecodeRegister(body); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Machine 0 of 2 accepts machine 1's dial, which never comes.
	assign := Assign{ID: 0, Workers: 2, Peers: []string{reg.DataAddr, "127.0.0.1:1"}, HeartbeatMillis: 50}
	if _, err := WriteMsg(conn, nil, MsgAssign, AppendAssign(nil, assign)); err != nil {
		t.Fatal(err)
	}
	// Give the worker time to read the assignment and reach the Accept.
	time.Sleep(100 * time.Millisecond)

	stopped := time.Now()
	close(stop)
	select {
	case err := <-served:
		if d := time.Since(stopped); d > time.Second {
			t.Errorf("Serve returned %v after stop, want under 1s", d)
		}
		if err != nil {
			t.Errorf("Serve returned %v after stop, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still waiting for its peer 5s after stop")
	}
}
