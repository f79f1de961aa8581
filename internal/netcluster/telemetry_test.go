package netcluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/obs/httpserve"
	"github.com/mitos-project/mitos/internal/obs/lineage"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/workload"
)

// TestTelemetryWireRoundTrip pins the v4 telemetry codecs: a metrics
// snapshot with driver- and machine-keyed instruments, sparse histogram
// buckets, lineage payload, trace frames, and the ping/pong pair.
func TestTelemetryWireRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter(2, "map_1", "elements_out").Add(41)
	r.Counter(obs.MachineDriver, "cfm", "acks").Add(3)
	r.Gauge(2, "netcluster", "egress_backlog").Set(17)
	h := r.Histogram(2, "map_1", "emit")
	h.Observe(3 * time.Microsecond)
	h.Observe(40 * time.Millisecond)

	in := StatsMsg{
		Final:       true,
		Snap:        *r.Snapshot(),
		LinT0Wall:   time.Now().UnixNano(),
		LineageJSON: []byte(`{"bags":[]}`),
	}
	out, err := DecodeStats(AppendStats(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Final || out.LinT0Wall != in.LinT0Wall || string(out.LineageJSON) != string(in.LineageJSON) {
		t.Fatalf("stats envelope mismatch: %+v", out)
	}
	if got := out.Snap.Counter(2, "map_1", "elements_out"); got != 41 {
		t.Fatalf("counter = %d", got)
	}
	if got := out.Snap.Counter(obs.MachineDriver, "cfm", "acks"); got != 3 {
		t.Fatalf("driver counter = %d", got)
	}
	if got := out.Snap.Gauge(2, "netcluster", "egress_backlog"); got != 17 {
		t.Fatalf("gauge = %d", got)
	}
	if got, want := out.Snap.HistTotal("emit"), h.Stats(); got != want {
		t.Fatalf("histogram = %+v, want %+v", got, want)
	}

	tm := TraceMsg{T0Wall: 12345, EventsJSON: []byte(`[{"name":"x","ph":"i"}]`)}
	tm2, err := DecodeTrace(AppendTrace(nil, tm))
	if err != nil || tm2.T0Wall != tm.T0Wall || string(tm2.EventsJSON) != string(tm.EventsJSON) {
		t.Fatalf("trace round trip: %+v, %v", tm2, err)
	}

	p, err := DecodePing(AppendPing(nil, PingMsg{Seq: 9}))
	if err != nil || p.Seq != 9 {
		t.Fatalf("ping round trip: %+v, %v", p, err)
	}
	pong, err := DecodePong(AppendPong(nil, PongMsg{Seq: 9, WallNanos: -42}))
	if err != nil || pong.Seq != 9 || pong.WallNanos != -42 {
		t.Fatalf("pong round trip: %+v, %v", pong, err)
	}

	if _, err := DecodeStats([]byte{0xff}); err == nil {
		t.Fatal("truncated stats frame decoded")
	}
}

// TestTCPTelemetryFederationOracle is the acceptance oracle: after a
// multi-worker TCP run, every machine-keyed counter in the federated
// snapshot equals the value the owning worker shipped from its local
// registry, and the federated totals equal the sum over workers.
func TestTCPTelemetryFederationOracle(t *testing.T) {
	const workers = 4
	c, cleanup, err := StartLocal(workers, CoordConfig{
		HeartbeatInterval: 20 * time.Millisecond, HeartbeatTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	o := obs.New()
	opts := core.DefaultOptions()
	opts.Obs = o
	spec := workload.VisitCountSpec{Days: 6, VisitsPerDay: 200, Pages: 50, WithDiff: true, Seed: 11}
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(spec.Script(), st, opts)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.WorkerStats) != workers {
		t.Fatalf("WorkerStats for %d workers, want %d", len(res.WorkerStats), workers)
	}
	for id, ws := range res.WorkerStats {
		if ws == nil {
			t.Fatalf("worker %d shipped no final snapshot", id)
		}
		if got := c.WorkerSnapshot(id); got != ws {
			t.Errorf("WorkerSnapshot(%d) disagrees with Result.WorkerStats", id)
		}
		if ws.Counter(id, "netcluster", "telemetry_frames") == 0 {
			t.Errorf("worker %d reports zero telemetry frames", id)
		}
	}

	merged := obs.MergeSnapshots(res.WorkerStats...)
	fed := c.FederatedSnapshot()
	for _, ctr := range merged.Counters {
		got := fed.Counter(ctr.Key.Machine, ctr.Key.Op, ctr.Key.Name)
		if ctr.Key.Machine >= 0 {
			// Machine-keyed counters belong to exactly one worker: the
			// federated value must match that worker's registry exactly.
			if got != ctr.Value {
				t.Errorf("federated %v = %d, worker shipped %d", ctr.Key, got, ctr.Value)
			}
		} else if got < ctr.Value {
			// Driver-keyed counters may also be incremented by the
			// coordinator's own observer; the federation can only add.
			t.Errorf("federated %v = %d < summed workers %d", ctr.Key, got, ctr.Value)
		}
	}
	if tot := merged.Total("elements_out"); tot == 0 || fed.Total("elements_out") != tot {
		t.Errorf("federated elements_out = %d, summed workers = %d (want equal, nonzero)",
			fed.Total("elements_out"), tot)
	}

	// Satellite: the coordinator's ping loop fills a per-worker heartbeat
	// RTT histogram, merged into the same federated view.
	if fed.HistTotal("heartbeat_rtt").Count == 0 {
		t.Error("no heartbeat_rtt samples after a full run")
	}
	rttByMachine := map[int]int64{}
	for _, h := range fed.Histograms {
		if h.Key.Name == "heartbeat_rtt" {
			rttByMachine[h.Key.Machine] += h.Count
		}
	}
	for id := 0; id < workers; id++ {
		if rttByMachine[id] == 0 {
			t.Errorf("worker %d has no RTT samples", id)
		}
	}
}

// TestSessionCountersReportedPerJob: the session's control and link counters
// accumulate over its jobs, but a registry shared by two jobs on one session
// must count each job once, so after both it reads the second result's
// session totals.
func TestSessionCountersReportedPerJob(t *testing.T) {
	c, cleanup, err := StartLocal(2, CoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	o := obs.New()
	opts := core.DefaultOptions()
	opts.Obs = o
	spec := workload.VisitCountSpec{Days: 3, VisitsPerDay: 200, Pages: 50, Seed: 5}
	var res *Result
	for range 2 {
		st := store.NewMemStore()
		if err := spec.Generate(st); err != nil {
			t.Fatal(err)
		}
		if res, err = c.Run(spec.Script(), st, opts); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Reg().Snapshot()
	if got := snap.Counter(obs.MachineDriver, "netcluster", "ctrl_messages"); got != res.CtrlMessages {
		t.Errorf("registry ctrl_messages = %d after two jobs, session total %d", got, res.CtrlMessages)
	}
	if got := snap.Counter(obs.MachineDriver, "netcluster", "ctrl_bytes"); got != res.CtrlBytes {
		t.Errorf("registry ctrl_bytes = %d after two jobs, session total %d", got, res.CtrlBytes)
	}
	if got := snap.Total("socket_bytes_out"); got != res.SocketBytes || got == 0 {
		t.Errorf("registry socket_bytes_out = %d after two jobs, session total %d", got, res.SocketBytes)
	}
}

// scrape fetches one path from the introspection handler.
func scrape(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	return res.StatusCode, string(body)
}

// TestTCPTelemetryLiveScrape runs a multi-worker TCP job with the full
// observability stack attached — tracing, lineage, live introspection —
// scraping /metrics concurrently with the run (exercised under -race).
// Mid-run the exposition must already carry worker-labeled series; after
// the run the merged trace must hold one process lane per worker and the
// job view must report per-worker status.
func TestTCPTelemetryLiveScrape(t *testing.T) {
	const workers = 2
	c, cleanup, err := StartLocal(workers, CoordConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second, // frequent beats, but forgiving under -race load
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	o := obs.NewTracing().EnableLineage()
	srv := httpserve.NewHandler(o)
	opts := core.DefaultOptions()
	opts.Obs = o
	opts.HTTP = srv
	opts.BatchSize = 8 // more frames in flight -> longer run, more backlog

	spec := workload.VisitCountSpec{Days: 20, VisitsPerDay: 3000, Pages: 300, WithDiff: true, Seed: 5}
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Run(spec.Script(), st, opts)
		done <- err
	}()

	sawWorkerSeries := false
	running := true
	for running {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-time.After(5 * time.Millisecond):
			code, body := scrape(t, srv, "/metrics")
			if code != 200 {
				t.Fatalf("/metrics mid-run = %d", code)
			}
			if strings.Contains(body, `machine="m1"`) {
				sawWorkerSeries = true
			}
			scrape(t, srv, "/jobs/1") // concurrent status+dot rendering
		}
	}
	if !sawWorkerSeries {
		t.Error("no worker-labeled series appeared in /metrics while the job ran")
	}

	// Final exposition still carries every worker's series (the federation
	// keeps the final flush for post-mortem scrapes).
	_, body := scrape(t, srv, "/metrics")
	for _, label := range []string{`machine="m0"`, `machine="m1"`} {
		if !strings.Contains(body, label) {
			t.Errorf("final /metrics lost %s", label)
		}
	}

	// The job view reports per-worker queue/link status and a final state.
	code, body := scrape(t, srv, "/jobs/1")
	if code != 200 {
		t.Fatalf("/jobs/1 = %d", code)
	}
	var status struct {
		State   string `json:"state"`
		Workers []struct {
			Machine  int   `json:"machine"`
			BytesOut int64 `json:"bytes_out"`
		} `json:"workers"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/jobs/1 is not JSON: %v\n%s", err, body)
	}
	if status.State != "done" {
		t.Errorf("job state = %q, want done", status.State)
	}
	if len(status.Workers) != workers {
		t.Fatalf("job view has %d workers, want %d", len(status.Workers), workers)
	}

	// The merged Chrome trace has one process lane per worker: worker
	// events were re-based and ingested into the coordinator's tracer.
	code, body = scrape(t, srv, "/trace")
	if code != 200 {
		t.Fatalf("/trace = %d", code)
	}
	var trace struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatal(err)
	}
	lanes := map[int]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Phase != "M" && ev.TS < 0 {
			t.Fatalf("event %q has negative timestamp %v after re-basing", ev.Name, ev.TS)
		}
		lanes[ev.PID] = true
	}
	if len(lanes) < workers {
		t.Errorf("merged trace has %d process lanes, want >= %d", len(lanes), workers)
	}

	// Cross-process critical path: worker bag lineage was absorbed into
	// the coordinator tracker, so the analysis attributes real wall time.
	code, body = scrape(t, srv, "/criticalpath")
	if code != 200 {
		t.Fatalf("/criticalpath = %d", code)
	}
	var cp lineage.CriticalPath
	if err := json.Unmarshal([]byte(body), &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Wall <= 0 || cp.Attributed <= 0 {
		t.Errorf("critical path attribution empty: wall %v attributed %v", cp.Wall, cp.Attributed)
	}
	if len(cp.Steps) == 0 {
		t.Error("critical path has no per-step spans")
	}
}

// TestTCPCriticalPathLineage runs a lineage-only observer (no tracing, no
// server) through the TCP backend and analyzes the absorbed lineage
// directly: the bags opened on remote workers must be in the coordinator's
// tracker with usable timestamps.
func TestTCPCriticalPathLineage(t *testing.T) {
	c, cleanup, err := StartLocal(3, CoordConfig{
		HeartbeatInterval: 20 * time.Millisecond, HeartbeatTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	o := obs.New().EnableLineage()
	opts := core.DefaultOptions()
	opts.Obs = o
	spec := workload.VisitCountSpec{Days: 5, VisitsPerDay: 150, Pages: 40, WithDiff: true, Seed: 3}
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(spec.Script(), st, opts); err != nil {
		t.Fatal(err)
	}

	snap := o.Lin().Snapshot()
	if len(snap.Bags) == 0 {
		t.Fatal("no bags in the coordinator tracker: worker lineage was not absorbed")
	}
	cp := lineage.Analyze(snap)
	if cp == nil || cp.Wall <= 0 {
		t.Fatalf("critical path = %+v", cp)
	}
	if cp.Attributed <= 0 || len(cp.Chain) == 0 {
		t.Errorf("no attributed time on a 3-worker run: %+v", cp)
	}
}
