package experiments

import (
	"math"
	"slices"
	"testing"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/workload"
)

// TestTCPCellCountersPerRep: the reps of a TCP cell share one session, whose
// socket, credit and control counters accumulate, yet a cell reports one
// rep's counts, so two reps read what one does. The control counts are
// exact; how the data plane batches its frames, and with it socket_bytes,
// moves a little with timing.
func TestTCPCellCountersPerRep(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 3, VisitsPerDay: 200, Pages: 50, Seed: 5}
	cell := func(reps int) Cell {
		c, err := measureTCP(Options{Reps: reps}, spec.Script(), spec.Generate, 2, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	one, two := cell(1), cell(2)
	if one.Counters["socket_bytes"] == 0 || one.Counters["ctrl_messages"] == 0 {
		t.Fatalf("one rep moved no bytes or control frames: %v", one.Counters)
	}
	for _, k := range []string{"steps", "ctrl_messages", "ctrl_bytes"} {
		if one.Counters[k] != two.Counters[k] {
			t.Errorf("%s: %d at one rep, %d at two", k, one.Counters[k], two.Counters[k])
		}
	}
	if a, b := one.Counters["socket_bytes"], two.Counters["socket_bytes"]; 4*b < 3*a || 4*b > 5*a {
		t.Errorf("socket_bytes: %d at one rep, %d at two", a, b)
	}
}

// TestSlopeCancelsFixedCost: a cost paid once per job drops out of a
// Fig. 7 TCP cell; only what each step adds is left.
func TestSlopeCancelsFixedCost(t *testing.T) {
	const fixed, perStep = 5e-3, 40e-6
	run := func(steps int, jitter float64) float64 { return fixed + jitter + float64(steps)*perStep }
	short := Cell{Reps: []float64{run(100, 0), run(100, 1e-4)}}
	long := Cell{Reps: []float64{run(400, 0), run(400, 1e-4)}, Counters: map[string]int64{"steps": 803}}
	got := slope(short, long, 300)
	for i, r := range got.Reps {
		if math.Abs(r-perStep) > 1e-12 {
			t.Errorf("rep %d: %g s/step, want %g", i, r, perStep)
		}
	}
	if math.Abs(got.Median-perStep) > 1e-12 || math.Abs(got.Seconds-perStep) > 1e-12 || got.Counters["steps"] != 803 {
		t.Errorf("cell %+v", got)
	}
}

// TestFig7TCPColumn: Fig. 7 carries a real-socket Mitos column just before
// the simulated one, every cell a positive slope whose control messages per
// step are a whole number, the same whether the cell ran one rep or two.
func TestFig7TCPColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("quick Fig. 7 still takes seconds")
	}
	column := func(reps int) []Cell {
		tbl, err := Fig7(Options{Quick: true, Reps: reps})
		if err != nil {
			t.Fatal(err)
		}
		c := slices.Index(tbl.Columns, "Mitos (TCP)")
		if c < 0 || c != len(tbl.Columns)-2 || tbl.Columns[c+1] != "Mitos" {
			t.Fatalf("columns %q: want Mitos (TCP) just before Mitos, last", tbl.Columns)
		}
		var cells []Cell
		for r, row := range tbl.Cells {
			cell := row[c]
			if cell.Seconds <= 0 || len(cell.Reps) != reps {
				t.Errorf("%s machines, %d reps: cell %+v", tbl.XLabels[r], reps, cell)
			}
			if _, ok := cell.Counters["ctrl_messages_per_step"]; !ok {
				t.Errorf("%s machines, %d reps: no whole ctrl_messages_per_step in %v", tbl.XLabels[r], reps, cell.Counters)
			}
			cells = append(cells, cell)
		}
		return cells
	}
	one, two := column(1), column(2)
	for r := range one {
		if a, b := one[r].Counters["ctrl_messages_per_step"], two[r].Counters["ctrl_messages_per_step"]; a <= 0 || a != b {
			t.Errorf("row %d: ctrl_messages_per_step %d at one rep, %d at two", r, a, b)
		}
	}
}
