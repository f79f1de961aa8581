package mitos

import (
	"strings"
	"testing"
)

const testScript = `
data = readFile("in")
total = newBag(0)
i = 1
while (i <= 3) {
  scaled = data.cross(newBag(i)).map(t => t.0 * t.1)
  total = total.union(scaled.sum()).sum()
  i = i + 1
}
total.writeFile("out")
`

func TestCompileAndRun(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	st.WriteDataset("in", []Value{Int(1), Int(2), Int(3)})
	res, err := p.Run(st, Config{Machines: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.ReadDataset("out")
	if err != nil {
		t.Fatal(err)
	}
	// sum over i of i*(1+2+3) = 6*(1+2+3) = 36
	if len(out) != 1 || out[0].AsInt() != 36 {
		t.Errorf("out = %v, want [36]", out)
	}
	if res.Steps < 4 {
		t.Errorf("Steps = %d", res.Steps)
	}
	if res.Job.ElementsSent == 0 {
		t.Error("no elements transferred")
	}
}

func TestRunSequentialMatchesDistributed(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewMemStore()
	seq.WriteDataset("in", []Value{Int(5), Int(7)})
	if err := p.RunSequential(seq); err != nil {
		t.Fatal(err)
	}
	dist := NewMemStore()
	dist.WriteDataset("in", []Value{Int(5), Int(7)})
	if _, err := p.Run(dist, Config{Machines: 2, DisablePipelining: true}); err != nil {
		t.Fatal(err)
	}
	a, _ := seq.ReadDataset("out")
	b, _ := dist.ReadDataset("out")
	if len(a) != 1 || len(b) != 1 || !a[0].Equal(b[0]) {
		t.Errorf("sequential %v vs distributed %v", a, b)
	}
}

// TestDisableChaining checks the public chaining toggle on both backends:
// by default forward edges fuse (ChainedEdges and ElementsChained nonzero),
// with DisableChaining both stay zero, and the outputs agree either way.
// Run on two machines and RunTCP on two workers plan at the same
// parallelism, so their counters must agree exactly — RunTCP used to
// report ChainedEdges 0 because the TCP result never carried the field.
func TestDisableChaining(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}
	coord, cleanup, err := StartLocalTCP(2, TCPCoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	run := func(tcp, disable bool) (*Result, []Value) {
		st := NewMemStore()
		st.WriteDataset("in", []Value{Int(1), Int(2), Int(3)})
		cfg := Config{Machines: 2, DisableChaining: disable}
		var res *Result
		var err error
		if tcp {
			res, err = p.RunTCP(coord, st, cfg)
		} else {
			res, err = p.Run(st, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		out, err := st.ReadDataset("out")
		if err != nil {
			t.Fatal(err)
		}
		return res, out
	}
	chained, outOn := run(false, false)
	for _, tcp := range []bool{false, true} {
		on, _ := run(tcp, false)
		off, outOff := run(tcp, true)
		if on.ChainedEdges == 0 || on.Job.ElementsChained == 0 {
			t.Errorf("tcp=%v: default run fused nothing: %d edges, %d elements",
				tcp, on.ChainedEdges, on.Job.ElementsChained)
		}
		if on.ChainedEdges != chained.ChainedEdges || on.Job.ElementsChained != chained.Job.ElementsChained {
			t.Errorf("tcp=%v: %d edges, %d elements chained; Run reports %d, %d",
				tcp, on.ChainedEdges, on.Job.ElementsChained, chained.ChainedEdges, chained.Job.ElementsChained)
		}
		if off.ChainedEdges != 0 || off.Job.ElementsChained != 0 {
			t.Errorf("tcp=%v: DisableChaining run fused: %d edges, %d elements",
				tcp, off.ChainedEdges, off.Job.ElementsChained)
		}
		if len(outOn) != 1 || len(outOff) != 1 || !outOn[0].Equal(outOff[0]) {
			t.Errorf("tcp=%v: chained %v vs unchained %v", tcp, outOn, outOff)
		}
	}
}

func TestBuilderProgram(t *testing.T) {
	b := NewBuilder()
	b.Assign("data", ReadFile(StrLit("in")))
	b.Assign("doubled", MapBag(Var("data"), Native("double", 1, func(args []Value) Value {
		return Int(args[0].AsInt() * 2)
	})))
	b.WriteFile(SumBag(Var("doubled")), StrLit("out"))
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	st.WriteDataset("in", []Value{Int(1), Int(2), Int(3)})
	if _, err := p.Run(st, Config{Machines: 2}); err != nil {
		t.Fatal(err)
	}
	out, _ := st.ReadDataset("out")
	if len(out) != 1 || out[0].AsInt() != 12 {
		t.Errorf("out = %v, want [12]", out)
	}
}

func TestRunOnDFS(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}
	st := NewDFS(DFSConfig{BlockSize: 2})
	st.WriteDataset("in", []Value{Int(1), Int(2), Int(3), Int(4), Int(5)})
	if _, err := p.Run(st, Config{Machines: 3}); err != nil {
		t.Fatal(err)
	}
	out, err := st.ReadDataset("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].AsInt() != 90 { // 6 * 15
		t.Errorf("out = %v, want [90]", out)
	}
}

func TestProgramIntrospection(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}
	if src := p.Source(); !strings.Contains(src, "while") {
		t.Errorf("Source missing loop:\n%s", src)
	}
	if ssa := p.SSA(); !strings.Contains(ssa, "phi(") {
		t.Errorf("SSA missing phi:\n%s", ssa)
	}
	dot, err := p.Dot(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "cluster_b", "fillcolor=black", "fillcolor=lightblue"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot missing %q", want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		"x = ",                        // parse error
		"x = y",                       // check error: undefined
		`b = readFile(readFile("x"))`, // check error: bag where scalar expected
	}
	for _, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded", src)
		}
	}
}

func TestTextDatasetRoundtrip(t *testing.T) {
	in := `page7
page8,3
1.5,true,x

42
`
	elems, err := ReadTextDataset(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 4 {
		t.Fatalf("parsed %d elements", len(elems))
	}
	if !elems[0].Equal(Str("page7")) {
		t.Errorf("elems[0] = %v", elems[0])
	}
	if !elems[1].Equal(Pair(Str("page8"), Int(3))) {
		t.Errorf("elems[1] = %v", elems[1])
	}
	if !elems[2].Equal(Tuple(Float(1.5), Bool(true), Str("x"))) {
		t.Errorf("elems[2] = %v", elems[2])
	}
	if !elems[3].Equal(Int(42)) {
		t.Errorf("elems[3] = %v", elems[3])
	}
	var sb strings.Builder
	if err := WriteTextDataset(&sb, elems); err != nil {
		t.Fatal(err)
	}
	again, err := ReadTextDataset(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(elems) {
		t.Fatalf("reparse got %d elements", len(again))
	}
	for i := range elems {
		if !again[i].Equal(elems[i]) {
			t.Errorf("roundtrip elem %d: %v vs %v", i, elems[i], again[i])
		}
	}
}

func TestConfigClusterOverride(t *testing.T) {
	p, err := Compile(`a = readFile("in")
a.sum().writeFile("out")`)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	st.WriteDataset("in", []Value{Int(4)})
	cfg := DefaultClusterConfig(2)
	if _, err := p.Run(st, Config{Cluster: &cfg}); err != nil {
		t.Fatal(err)
	}
	out, _ := st.ReadDataset("out")
	if len(out) != 1 || out[0].AsInt() != 4 {
		t.Errorf("out = %v", out)
	}
}

func TestAnalyzeLoops(t *testing.T) {
	p, err := Compile(`
static = readFile("static")
i = 1
while (i <= 3) {
  dyn = readFile("dyn" + i)
  j = static.join(dyn)
  j.count().writeFile("c" + i)
  k = 1
  while (k <= 2) {
    k = k + 1
  }
  i = i + 1
}
`)
	if err != nil {
		t.Fatal(err)
	}
	r := p.AnalyzeLoops()
	if r.Loops != 2 || r.MaxDepth != 2 {
		t.Errorf("loops=%d depth=%d, want 2/2", r.Loops, r.MaxDepth)
	}
	if len(r.HoistedJoins) != 1 || r.HoistedJoins[0] != "j" {
		t.Errorf("HoistedJoins = %v, want [j]", r.HoistedJoins)
	}
	if r.InvariantInputs == 0 {
		t.Error("no invariant inputs found")
	}
	if s := r.String(); !strings.Contains(s, "hoisted join") {
		t.Errorf("String() = %q", s)
	}

	flat, err := Compile(`a = readFile("x")
a.writeFile("y")`)
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.AnalyzeLoops().String(); got != "no loops" {
		t.Errorf("flat report = %q", got)
	}
}

func TestBreakContinueEndToEnd(t *testing.T) {
	p, err := Compile(`
sum = 0
i = 0
while (i < 20) {
  i = i + 1
  if (i % 2 == 0) {
    continue
  }
  if (i > 9) {
    break
  }
  sum = sum + i
}
newBag((sum, i)).writeFile("out")
`)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	if _, err := p.Run(st, Config{Machines: 3}); err != nil {
		t.Fatal(err)
	}
	out, err := st.ReadDataset("out")
	if err != nil {
		t.Fatal(err)
	}
	// odd i in 1..9 summed = 25; loop exits with i = 11.
	if len(out) != 1 || !out[0].Equal(Tuple(Int(25), Int(11))) {
		t.Errorf("out = %v, want [(25, 11)]", out)
	}
}
