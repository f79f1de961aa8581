package core

import (
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/dataflow"
)

// TestForwardKeyedEdgeRules pins the plan rules of a forward keyed edge: a
// keyed operator reads a producer already placed by key at its parallelism
// over a forward edge, with no combiner in front; the edge chains inside
// one block, not across blocks and not into a join's probe side, and an
// edge into a copy in another block does not chain either; a
// tuple-literal map in front of a chained keyed reader lends its pair; and
// Plan.String and Dot name the edge forward(keyed).
func TestForwardKeyedEdgeRules(t *testing.T) {
	const src = `r = readFile("p").reduceByKey((a, b) => a + b)
f = r.filter(t => t.1 > 1)
s = r.map(t => (t.0, t.1 * 2)).reduceByKey((a, b) => max(a, b))
j = s.join(f)
i = 0
while (i < 2) {
  l = f.reduceByKey((a, b) => a + b)
  l.writeFile("l")
  c = f
  c.writeFile("c")
  i = i + 1
}
j.writeFile("j")
`
	p, err := Compile(compile(t, src), 4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op      string
		slot    int
		chained bool
	}{
		{"s.1", 0, true},  // same block, from r's pair-building stage
		{"j.1", 0, true},  // a join's build side, same block
		{"j.1", 1, false}, // a join's probe side
		{"l.1", 0, false}, // across blocks
	} {
		op := p.ByVar[c.op]
		in := &op.Inputs[c.slot]
		if !keyedForward(in, op) || in.Combined || in.Chained != c.chained {
			t.Errorf("%s input %d: %s combined=%t chained=%t, want forward(keyed) combined=false chained=%t\n%s",
				c.op, c.slot, in.Part, in.Combined, in.Chained, c.chained, p)
		}
	}
	if c := p.ByVar["c.1"]; c.Inputs[0].Part != dataflow.PartForward || c.Inputs[0].Chained {
		t.Errorf("a copy in another block reads over %s chained=%t, want an unchained forward edge\n%s", c.Inputs[0].Part, c.Inputs[0].Chained, p)
	}
	if r := p.ByVar["r.1"]; r.Lends || len(r.Stages) != 0 {
		t.Errorf("r.1 has two readers, so it carves and fuses nothing: lends=%t, %d stages\n%s", r.Lends, len(r.Stages), p)
	}
	if m := p.ByVar["$t5.1"]; m == nil || !m.Lends || m.Inputs[0].Part != dataflow.PartForward {
		t.Errorf("the pair-building map in front of the chained s.1 does not lend\n%s", p)
	}
	if n := strings.Count(p.String(), "forward(keyed)"); n != 4 {
		t.Errorf("Plan.String names %d forward(keyed) edges, want 4\n%s", n, p)
	}
	if !strings.Contains(p.Dot(), `label="1:forward(keyed)"`) {
		t.Errorf("Dot does not name the probe side's edge forward(keyed):\n%s", p.Dot())
	}
}

// TestPlacementsFixpoint checks the placement labels on a loop whose
// carried bag takes a keyed output around the back edge: the greatest
// fixpoint keeps the phi by key when its entry is empty() or keyed, and
// lowers it to none when the entry is a plain read.
func TestPlacementsFixpoint(t *testing.T) {
	for _, c := range []struct {
		entry string
		want  placement
	}{
		{`empty()`, placeByKey},
		{`readFile("p").reduceByKey((a, b) => a + b)`, placeByKey},
		{`readFile("p").distinct()`, placeNone},
		{`readFile("p")`, placeNone},
	} {
		src := `c = ` + c.entry + `
i = 0
while (i < 3) {
  c = c.union(readFile("p")).reduceByKey((a, b) => max(a, b)).filter(t => t.1 > 0)
  i = i + 1
}
c.writeFile("c")
`
		p, err := BuildPlan(compile(t, src), 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.placements()[p.ByVar["c.2"].ID]; got != c.want {
			t.Errorf("entry %s: the loop phi is placed %d, want %d\n%s", c.entry, got, c.want, p)
		}
	}
}
