package mitos

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/experiments"
)

// introScript is a loop long enough for lineage analysis and mid-run
// scraping to have something to look at.
const introScript = `
data = readFile("in")
total = newBag(0)
i = 1
while (i <= 8) {
  scaled = data.cross(newBag(i)).map(t => t.0 * t.1)
  total = total.union(scaled.sum()).sum()
  i = i + 1
}
total.writeFile("out")
`

func introStore(t *testing.T) Store {
	t.Helper()
	st := NewMemStore()
	vals := make([]Value, 50)
	for i := range vals {
		vals[i] = Int(int64(i))
	}
	if err := st.WriteDataset("in", vals); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCriticalPathAttribution runs the same program with pipelining on and
// off under calibrated cluster delays and checks the lineage-derived
// critical path: the attribution must explain (nearly) all of the wall
// time, the categories must sum exactly, and the barrier/overlap signature
// must flip with the pipelining ablation.
func TestCriticalPathAttribution(t *testing.T) {
	p, err := Compile(introScript)
	if err != nil {
		t.Fatal(err)
	}
	run := func(disablePipelining bool) *CriticalPath {
		cfg := DefaultClusterConfig(4)
		res, err := p.Run(introStore(t), Config{
			Cluster:           &cfg,
			DisablePipelining: disablePipelining,
			Observer:          NewLineageObserver(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.CriticalPath == nil {
			t.Fatal("Result.CriticalPath nil with a lineage observer")
		}
		return res.CriticalPath
	}
	pip, nopip := run(false), run(true)

	for name, cp := range map[string]*CriticalPath{"pipelined": pip, "not pipelined": nopip} {
		if cp.Wall <= 0 {
			t.Fatalf("%s: wall = %v", name, cp.Wall)
		}
		if got := cp.Compute + cp.Shuffle + cp.Barrier + cp.Stall; got != cp.Attributed {
			t.Fatalf("%s: categories sum to %v, attributed %v", name, got, cp.Attributed)
		}
		if cp.Attributed > cp.Wall {
			t.Fatalf("%s: attributed %v exceeds wall %v", name, cp.Attributed, cp.Wall)
		}
		if cp.AttributedFraction < 0.90 {
			t.Fatalf("%s: attribution explains only %.1f%% of wall time",
				name, 100*cp.AttributedFraction)
		}
		if len(cp.Steps) == 0 || len(cp.Chain) == 0 {
			t.Fatalf("%s: no steps/chain", name)
		}
		// Per-step attribution partitions the totals.
		var c, s, b, st time.Duration
		for _, step := range cp.Steps {
			c += step.Compute
			s += step.Shuffle
			b += step.Barrier
			st += step.Stall
		}
		if c != cp.Compute || s != cp.Shuffle || b != cp.Barrier || st != cp.Stall {
			t.Fatalf("%s: per-step attribution does not partition the totals", name)
		}
		// The chain is contiguous and ends at the wall clock.
		for i := 1; i < len(cp.Chain); i++ {
			if cp.Chain[i].Start != cp.Chain[i-1].End {
				t.Fatalf("%s: chain gap at %d", name, i)
			}
		}
		if cp.Chain[len(cp.Chain)-1].End != cp.Wall {
			t.Fatalf("%s: chain ends at %v, wall %v", name, cp.Chain[len(cp.Chain)-1].End, cp.Wall)
		}
	}

	// The ablation signature: superstep barriers only without pipelining.
	if nopip.Barrier == 0 {
		t.Error("non-pipelined run attributed no barrier time")
	}
	if pip.Barrier != 0 {
		t.Errorf("pipelined run attributed barrier time %v, want 0", pip.Barrier)
	}
}

// TestLiveIntrospectionServer runs a job registered with a caller-owned
// server, scrapes /jobs/{id} and /metrics while the run is in flight
// (exercising the handler/engine concurrency under -race), and checks
// every endpoint's payload after the run completes.
func TestLiveIntrospectionServer(t *testing.T) {
	p, err := Compile(introScript)
	if err != nil {
		t.Fatal(err)
	}
	obsv := NewLineageObserver()
	srv, err := ServeIntrospection("127.0.0.1:0", obsv)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	cli := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := cli.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// Slow the control plane down so the run outlives a few scrapes.
	cfg := DefaultClusterConfig(2)
	cfg.CtrlDelay = 2 * time.Millisecond
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	st := introStore(t)
	go func() {
		res, err := p.Run(st, Config{Cluster: &cfg, Observer: obsv, HTTP: srv})
		done <- outcome{res, err}
	}()

	// Scrape while the job runs; the job registers itself shortly after
	// Start, so 404s are only expected in the first instants.
	sawRunning := false
	var fin outcome
poll:
	for {
		select {
		case fin = <-done:
			break poll
		case <-time.After(time.Millisecond):
			code, body := get("/jobs/1")
			if code != http.StatusOK {
				continue
			}
			var js struct {
				State string `json:"state"`
				Ops   []struct {
					Name string `json:"name"`
				} `json:"ops"`
			}
			if err := json.Unmarshal([]byte(body), &js); err != nil {
				t.Fatalf("mid-run /jobs/1: %v (%q)", err, body)
			}
			if js.State == "running" && len(js.Ops) > 0 {
				sawRunning = true
			}
			get("/metrics") // concurrent snapshotting under -race
		}
	}
	if fin.err != nil {
		t.Fatal(fin.err)
	}
	if !sawRunning {
		t.Log("note: run finished before a scrape observed state=running (timing)")
	}

	// Post-run, every endpoint reports the finished execution.
	code, body := get("/jobs/1")
	if code != http.StatusOK || !strings.Contains(body, `"state": "done"`) {
		t.Fatalf("/jobs/1 after run: %d %s", code, body)
	}
	if code, body = get("/jobs"); code != http.StatusOK || !strings.Contains(body, `"id": 1`) {
		t.Fatalf("/jobs: %d %s", code, body)
	}
	if code, body = get("/jobs/1/dot"); code != http.StatusOK || !strings.HasPrefix(body, "digraph") {
		t.Fatalf("/jobs/1/dot: %d %.60s", code, body)
	}
	if code, body = get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "# TYPE mitos_elements_in counter") ||
		!strings.Contains(body, "_bucket{") {
		t.Fatalf("/metrics missing expected families: %d", code)
	}
	if code, body = get("/lineage"); code != http.StatusOK || !strings.Contains(body, "@") {
		t.Fatalf("/lineage: %d %.80s", code, body)
	}
	var cp struct {
		AttributedFraction float64 `json:"attributed_fraction"`
		Steps              []any   `json:"steps"`
	}
	code, body = get("/criticalpath")
	if code != http.StatusOK {
		t.Fatalf("/criticalpath: %d", code)
	}
	if err := json.Unmarshal([]byte(body), &cp); err != nil {
		t.Fatal(err)
	}
	if cp.AttributedFraction <= 0 || len(cp.Steps) == 0 {
		t.Fatalf("/criticalpath = fraction %v, %d steps", cp.AttributedFraction, len(cp.Steps))
	}
	if code, _ = get("/jobs/2"); code != http.StatusNotFound {
		t.Fatalf("/jobs/2 = %d, want 404", code)
	}

	// A second run on the same server gets id 2.
	if _, err := p.Run(introStore(t), Config{Cluster: &cfg, Observer: obsv, HTTP: srv}); err != nil {
		t.Fatal(err)
	}
	if code, _ = get("/jobs/2"); code != http.StatusOK {
		t.Fatalf("/jobs/2 after second run = %d", code)
	}
}

// TestCritPathExperiment pins the acceptance criterion on the benchmark
// figure itself: the quick critpath table must attribute ≥95% of the wall
// time in both columns and show strictly more pipelining overlap with
// pipelining on.
func TestCritPathExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-scale experiment")
	}
	tab, err := experiments.CritPath(experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Cells) == 0 || len(tab.Cells[0]) != 2 || tab.XLabels[0] != "total" {
		t.Fatalf("unexpected table shape: %v", tab.XLabels)
	}
	nopip, pip := tab.Cells[0][0], tab.Cells[0][1]
	for name, c := range map[string]experiments.Cell{"Mitos (not pipelined)": nopip, "Mitos": pip} {
		if c.Counters["attributed_permille"] < 950 {
			t.Errorf("%s: attribution %d‰ of wall, want ≥950‰", name, c.Counters["attributed_permille"])
		}
		if c.Counters["wall_ns"] <= 0 || c.Counters["steps"] <= 0 {
			t.Errorf("%s: empty analysis: %v", name, c.Counters)
		}
	}
	if pip.Counters["overlap_ns"] <= nopip.Counters["overlap_ns"] {
		t.Errorf("pipelining overlap %dns not above non-pipelined %dns",
			pip.Counters["overlap_ns"], nopip.Counters["overlap_ns"])
	}
	if fmt.Sprint(tab.XLabels[1:]) == "[]" {
		t.Error("no per-step rows")
	}
}
