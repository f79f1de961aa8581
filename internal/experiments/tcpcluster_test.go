package experiments

import (
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
