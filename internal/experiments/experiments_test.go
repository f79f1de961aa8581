package experiments

import (
	"slices"
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/store"
)

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		XAxis:   "machines",
		Columns: []string{"Spark", "Mitos"},
		XLabels: []string{"1", "2"},
		Cells: [][]Cell{
			{{Seconds: 2.0}, {Seconds: 1.0}},
			{{Skipped: true}, {Seconds: 0.5}},
		},
	}
	out := tbl.Format()
	for _, want := range []string{"demo", "machines", "Spark", "Mitos", "2.0x", "1.000s", "-", "0.500s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

// TestTableFormatSubMillisecond: per-step overheads (Fig. 7) are a few
// microseconds; they print in µs, not as 0.000s, and keep their factors.
func TestTableFormatSubMillisecond(t *testing.T) {
	tbl := &Table{
		Title:   "per step",
		XAxis:   "steps",
		Columns: []string{"Spark", "Flink", "Mitos"},
		XLabels: []string{"100"},
		Cells:   [][]Cell{{{Seconds: 0.0123}, {Seconds: 600e-6}, {Seconds: 6e-6}}},
	}
	out := tbl.Format()
	for _, want := range []string{"0.012s (2050.0x)", "600.0µs (100.0x)", "6.0µs"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "0.000s") {
		t.Errorf("a sub-millisecond cell printed as 0.000s:\n%s", out)
	}
}

func TestOptionsReps(t *testing.T) {
	if (Options{}).reps() != 1 {
		t.Error("default reps != 1")
	}
	if (Options{Reps: 3}).reps() != 3 {
		t.Error("explicit reps ignored")
	}
}

// TestMeasureRowOrder: a row's reps run its columns forward on even reps
// and backward on odd ones, each run on a store its seed filled first.
func TestMeasureRowOrder(t *testing.T) {
	var order []int
	seeds := 0
	seed := func(store.Store) error { seeds++; return nil }
	run := func(c int) runFunc {
		return func(*cluster.Cluster, store.Store) (*core.Result, error) {
			if seeds != len(order)+1 {
				t.Errorf("run %d of column %d after %d seeds", len(order), c, seeds)
			}
			order = append(order, c)
			return nil, nil
		}
	}
	row, _, err := measureRow(Options{Reps: 3}, 1, seed, run(0), run(1), run(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 2, 1, 0, 0, 1, 2}; !slices.Equal(order, want) {
		t.Errorf("run order %v, want %v", order, want)
	}
	for c, cell := range row {
		if len(cell.Reps) != 3 {
			t.Errorf("column %d: %d reps, want 3", c, len(cell.Reps))
		}
	}
}

// TestFig1QuickSmoke runs the cheapest experiment end to end at quick
// scale, validating the whole harness wiring. Skipped with -short.
func TestFig1QuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment still takes ~1s")
	}
	tbl, err := Fig1(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Cells) != 1 || len(tbl.Cells[0]) != 2 {
		t.Fatalf("unexpected table shape: %+v", tbl)
	}
	spark, flink := tbl.Cells[0][0].Seconds, tbl.Cells[0][1].Seconds
	if spark <= flink {
		t.Errorf("Spark (%0.3fs) not slower than Flink (%0.3fs): per-step job launches not modeled?", spark, flink)
	}
}

// TestChainQuickSmoke runs the chaining ablation at quick scale and checks
// the mechanism counters: the chained column must report fused edges,
// direct-call element deliveries, and fewer mailbox batches; the unchained
// column must report none.
func TestChainQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment still takes ~1s")
	}
	tbl, err := Chain(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Cells) != 3 || len(tbl.Cells[0]) != 2 {
		t.Fatalf("unexpected table shape: %+v", tbl)
	}
	for r, label := range tbl.XLabels {
		off, on := tbl.Cells[r][0], tbl.Cells[r][1]
		if off.Counters["chained_edges"] != 0 || off.Counters["elements_chained"] != 0 {
			t.Errorf("%s: unchained column fused %d edges / %d elements",
				label, off.Counters["chained_edges"], off.Counters["elements_chained"])
		}
		if on.Counters["chained_edges"] == 0 || on.Counters["elements_chained"] == 0 {
			t.Errorf("%s: chained column fused nothing", label)
		}
		if on.Counters["batches_sent"] >= off.Counters["batches_sent"] {
			t.Errorf("%s: batches_sent %d (chained) >= %d (unchained)",
				label, on.Counters["batches_sent"], off.Counters["batches_sent"])
		}
	}
}

// TestAblationGridQuickSmoke checks the optimization ordering: both
// optimizations together must not be slower than neither.
func TestAblationGridQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment still takes ~2s")
	}
	tbl, err := AblationGrid(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	neither := tbl.Cells[0][0].Seconds
	both := tbl.Cells[3][0].Seconds
	if both > neither*1.5 {
		t.Errorf("both optimizations (%0.3fs) much slower than neither (%0.3fs)", both, neither)
	}
}
