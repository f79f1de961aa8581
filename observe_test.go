package mitos

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/mitos-project/mitos/internal/ir"
)

// obsTestInput seeds st with the "in" dataset the test script reads.
func obsTestInput(t *testing.T, st Store) {
	t.Helper()
	if err := st.WriteDataset("in", []Value{Int(1), Int(2), Int(3), Int(4)}); err != nil {
		t.Fatal(err)
	}
}

// TestObserverDifferentialCounts runs a quickstart-style iterative program
// on the sequential reference interpreter with per-instruction element
// counting, then on the distributed runtime with an observer, and checks
// that every operator's elements_out (summed over machines) matches the
// interpreter's ground truth exactly.
func TestObserverDifferentialCounts(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}

	ref := NewMemStore()
	obsTestInput(t, ref)
	counts := map[string]int64{}
	it := &ir.Interp{Store: ref, OpCounts: counts}
	if err := it.Run(p.ssa); err != nil {
		t.Fatal(err)
	}

	st := NewMemStore()
	obsTestInput(t, st)
	o := NewObserver()
	res, err := p.Run(st, Config{Machines: 3, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Snapshot()

	// A clean completion must not have raced its own shutdown: no envelope
	// may have been dropped into a closed mailbox, and every byte the
	// transport sent must have been received.
	if got := snap.Total("mailbox_dropped"); got != 0 {
		t.Errorf("mailbox_dropped = %d on clean completion, want 0", got)
	}
	if res.Job.BytesSent != res.Job.BytesReceived {
		t.Errorf("BytesSent = %d != BytesReceived = %d on clean completion", res.Job.BytesSent, res.Job.BytesReceived)
	}
	if res.Job.BytesSent == 0 {
		t.Error("no remote bytes recorded on a 3-machine run")
	}

	nonzero := 0
	for v, want := range counts {
		got := snap.TotalFor(v, "elements_out")
		if got != want {
			t.Errorf("operator %s: distributed elements_out = %d, interpreter = %d", v, got, want)
		}
		if want > 0 {
			nonzero++
		}
	}
	if nonzero < 5 {
		t.Fatalf("only %d operators produced elements; differential check is vacuous", nonzero)
	}

	// The distributed store must agree with the reference too.
	refOut, err := ref.ReadDataset("out")
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.ReadDataset("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(refOut) != 1 || len(out) != 1 || !refOut[0].Equal(out[0]) {
		t.Fatalf("results disagree: distributed %v, reference %v", out, refOut)
	}
}

const ctrlFlowScript = `
x = 0
while (x < 5) {
  x = x + 1
}
newBag(x).writeFile("out")
`

// branchVisits runs the reference interpreter and counts how many visited
// blocks end in a conditional branch — the ground-truth number of
// control-flow decisions.
func branchVisits(t *testing.T, p *Program, st Store) (decisions, visits int) {
	t.Helper()
	var trace []ir.BlockID
	it := &ir.Interp{Store: st, Trace: &trace}
	if err := it.Run(p.ssa); err != nil {
		t.Fatal(err)
	}
	for _, b := range trace {
		if p.ssa.Blocks[b].Term.Kind == ir.TermBranch {
			decisions++
		}
	}
	return decisions, len(trace)
}

// TestControlFlowCounters checks the paper's coordination invariants
// through the metrics: an N-step loop makes one decision per conditional
// block visit, the control-flow manager broadcasts every execution-path
// position to every machine, and pipelined execution pays zero barriers
// (non-pipelined: one per step after the first).
func TestControlFlowCounters(t *testing.T) {
	p, err := Compile(ctrlFlowScript)
	if err != nil {
		t.Fatal(err)
	}
	wantDecisions, wantVisits := branchVisits(t, p, NewMemStore())
	if wantDecisions == 0 {
		t.Fatal("test program has no conditional branches")
	}

	const machines = 3
	for _, tc := range []struct {
		name   string
		noPipe bool
	}{
		{"pipelined", false},
		{"non-pipelined", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := NewObserver()
			res, err := p.Run(NewMemStore(), Config{
				Machines:          machines,
				DisablePipelining: tc.noPipe,
				Observer:          o,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != wantVisits {
				t.Fatalf("Steps = %d, interpreter visited %d blocks", res.Steps, wantVisits)
			}
			snap := o.Snapshot()

			if got := snap.Total("decisions"); got != int64(wantDecisions) {
				t.Errorf("decisions = %d, want %d", got, wantDecisions)
			}
			bcast := snap.PerMachine("broadcasts")
			if len(bcast) != machines {
				t.Errorf("broadcasts recorded for %d machines, want %d", len(bcast), machines)
			}
			// Pipelined execution uses execution templates: one broadcast
			// per path *segment* (installs + instantiations), covering every
			// position. Non-pipelined execution broadcasts each position.
			wantBcast := int64(res.Steps)
			if !tc.noPipe {
				wantBcast = int64(res.TemplateInstalls + res.TemplateInstantiations)
				if res.TemplateInstalls == 0 || wantBcast >= int64(res.Steps) {
					t.Errorf("templates: installs=%d instantiations=%d over %d steps, want a compressed segment schedule",
						res.TemplateInstalls, res.TemplateInstantiations, res.Steps)
				}
			}
			for m, n := range bcast {
				if n != wantBcast {
					t.Errorf("machine %d received %d broadcasts, want one per control frame (%d)", m, n, wantBcast)
				}
			}
			wantBarriers := int64(0)
			if tc.noPipe {
				wantBarriers = int64(res.Steps - 1)
			}
			if got := snap.Total("barriers"); got != wantBarriers {
				t.Errorf("barriers = %d, want %d", got, wantBarriers)
			}
			if got := snap.Total("mailbox_dropped"); got != 0 {
				t.Errorf("mailbox_dropped = %d on clean completion, want 0", got)
			}
		})
	}
}

// TestTraceExport runs a traced execution and validates the exported
// Chrome trace_event JSON: well-formed, non-empty, only known phase types,
// and containing both control-flow broadcast instants and bag spans.
func TestTraceExport(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	obsTestInput(t, st)
	o := NewTracingObserver()
	if _, err := p.Run(st, Config{Machines: 3, Observer: o}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteTrace(o, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Cat  string   `json:"cat"`
			Ph   string   `json:"ph"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	seen := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("complete event %q has invalid dur", ev.Name)
			}
		case "i", "M":
		default:
			t.Fatalf("unknown phase %q in event %q", ev.Ph, ev.Name)
		}
		seen[ev.Cat]++
		seen[ev.Cat+"/"+ev.Name]++
	}
	// Bag spans are named after their operator, so check the category;
	// control-flow events have fixed names. Templated (default) execution
	// emits segment broadcasts instead of per-position ones.
	if seen["cfm/broadcast"] == 0 && seen["cfm/broadcast_segment"] == 0 {
		t.Fatalf("trace missing control-flow broadcast events")
	}
	for _, want := range []string{"bag", "cfm/decision"} {
		if seen[want] == 0 {
			keys := make([]string, 0, len(seen))
			for k := range seen {
				keys = append(keys, k)
			}
			t.Fatalf("trace missing %q events; saw %v", want, keys)
		}
	}
}
