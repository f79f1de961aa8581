package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/val"
)

// declared mirrors ../BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesCode checks that BENCHMARK.json and the code
// declare the same workloads and the same metrics, name by name.
func TestDeclarationMatchesCode(t *testing.T) {
	d := readDeclared(t)
	if len(d.Command) < 2 || d.Command[1] != "benchmark/run.sh" || len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("command %v and paths %v do not name this directory", d.Command, d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", d.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the code %d", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := d.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(d.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the code %d (at most 128)", len(d.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		got := d.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload at tiny scale through both passes: the
// oracle must pass on every job, and every declared metric must be printed
// exactly once per workload with its unit.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	cfg := config{workloads: workloads, seed: 7, rounds: 2, jobs: 2, trace: -1, sc: tinyScale,
		out: filepath.Join(t.TempDir(), "result.json")}
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	d := readDeclared(t)
	lines := strings.Split(out.String(), "\n")
	for _, wr := range res.Workloads {
		if wr.Failed != 0 || wr.Samples != cfg.rounds*cfg.jobs || wr.Attempted != wr.Samples+2*tracedPairs {
			t.Errorf("%s: %d attempted, %d failed, %d samples", wr.Name, wr.Attempted, wr.Failed, wr.Samples)
		}
		units := map[string]string{}
		for _, m := range d.EndToEnd {
			units[m.Name] = m.Unit
		}
		for _, m := range d.PerLayer {
			units[m.Name] = m.Unit
		}
		for metric, unit := range units {
			n := 0
			for _, l := range lines {
				if f := strings.Fields(l); len(f) >= 4 && f[0] == wr.Name && f[1] == metric {
					n++
					if f[3] != unit {
						t.Errorf("%s %s printed with unit %q, declared %q", wr.Name, metric, f[3], unit)
					}
				}
			}
			if n != 1 {
				t.Errorf("%s %s printed %d times, want once", wr.Name, metric, n)
			}
		}
		if wr.EndToEnd["job_s_p50"].Value <= 0 || wr.EndToEnd["setup_s"].Value <= 0 {
			t.Errorf("%s: end-to-end timings not positive: %+v", wr.Name, wr.EndToEnd)
		}
		if got := wr.PerLayer["core.steps"]; got.Value <= 0 || got.Stability != "exact" {
			t.Errorf("%s: core.steps = %+v, want a positive exact count", wr.Name, got)
		}
		if got := wr.PerLayer["dataflow.mailbox_dropped"].Value; got != 0 {
			t.Errorf("%s: dataflow.mailbox_dropped = %g", wr.Name, got)
		}
		if _, err := os.Stat(wr.Trace); err != nil {
			t.Errorf("%s: span trace: %v", wr.Name, err)
		}
	}
	tcp := res.Workloads[len(res.Workloads)-1].PerLayer
	if tcp["netcluster.attempts"].Value != 1 || tcp["netcluster.socket_bytes"].Value <= 0 {
		t.Errorf("visitcount_tcp: attempts %+v, socket bytes %+v", tcp["netcluster.attempts"], tcp["netcluster.socket_bytes"])
	}

	// The file just written compares as unchanged against itself, and
	// -compare refuses a file from another environment.
	var cmp bytes.Buffer
	ok, err := compareFiles(&cmp, cfg.out, cfg.out)
	if err != nil || !ok || strings.Contains(cmp.String(), "regression") {
		t.Errorf("self-comparison: ok=%v err=%v\n%s", ok, err, cmp.String())
	}
	res.Env.GOMAXPROCS++
	other := filepath.Join(t.TempDir(), "other.json")
	buf, _ := json.Marshal(res)
	if err := os.WriteFile(other, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&cmp, cfg.out, other); err == nil {
		t.Error("comparison across environments was not refused")
	}
}

// TestCompareVerdicts pins the three verdicts of -compare on job_s_p50
// (bound 25%): a 40% slowdown is a regression, a 3% one within quiet rounds
// is unchanged, and the same 3% with rounds that disagree by more than the
// bound times the root of their number is unresolved.
func TestCompareVerdicts(t *testing.T) {
	file := func(p50 float64, rounds []float64) string {
		wr := &workloadResult{Name: "steploop", RoundValues: map[string][]float64{}, EndToEnd: map[string]metricValue{}}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = metricValue{Value: 1, Unit: d.Unit}
			wr.RoundValues[d.Name] = rounds
		}
		wr.EndToEnd["job_s_p50"] = metricValue{Value: p50, Unit: "s"}
		buf, _ := json.Marshal(resultFile{Workloads: []*workloadResult{wr}})
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	quiet := []float64{1, 1.01, 0.99, 1, 1.02}
	loud := []float64{0.4, 1, 2.2, 0.5, 2}
	for _, c := range []struct {
		p50     float64
		rounds  []float64
		verdict string
		ok      bool
	}{
		{1.4, quiet, "regression", false},
		{1.03, quiet, "unchanged", true},
		{1.03, loud, "unresolved", true},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, file(1, quiet), file(c.p50, c.rounds))
		if err != nil {
			t.Fatal(err)
		}
		var row string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, " job_s_p50 ") {
				row = l
			}
		}
		if ok != c.ok || !strings.HasSuffix(row, c.verdict) {
			t.Errorf("p50 1 -> %g: ok=%v, row %q, want verdict %s", c.p50, ok, row, c.verdict)
		}
	}
}

// TestInputsFollowTheSeed checks that a seed fixes the inputs and that the
// seeded workloads change with it.
func TestInputsFollowTheSeed(t *testing.T) {
	same := func(a, b []dataset) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].name != b[i].name || len(a[i].elems) != len(b[i].elems) {
				return false
			}
			for j := range a[i].elems {
				if !a[i].elems[j].Equal(b[i].elems[j]) {
					return false
				}
			}
		}
		return true
	}
	for _, w := range workloads {
		_, a, err := w.build(1, true)
		if err != nil {
			t.Fatal(err)
		}
		_, b, _ := w.build(1, true)
		_, c, _ := w.build(2, true)
		if !same(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if len(a) > 0 && same(a, c) {
			t.Errorf("%s: two seeds gave the same inputs", w.name)
		}
	}
}

// TestVerifyNamesTheDifference checks the oracle comparison on a wrong
// output: the error names the dataset and the first differing element.
func TestVerifyNamesTheDifference(t *testing.T) {
	in, err := setUp(workloads[1], 1, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	st, err := in.newStore()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range in.want {
		if err := st.WriteDataset(w.name, w.elems); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.verify(st); err != nil {
		t.Fatalf("the oracle's own outputs do not verify: %v", err)
	}
	if err := st.WriteDataset("diff2", []val.Value{val.Int(-1)}); err != nil {
		t.Fatal(err)
	}
	err = in.verify(st)
	if err == nil || !strings.Contains(err.Error(), `"diff2"`) || !strings.Contains(err.Error(), "-1") {
		t.Errorf("verify on a wrong diff2 = %v, want an error naming the dataset and the element", err)
	}
}
