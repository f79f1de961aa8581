package lang_test

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/testprog"
	"github.com/mitos-project/mitos/internal/val"
	"github.com/mitos-project/mitos/internal/workload"
)

// TestReadSet checks lang.ReadSet on hand cases, on every lambda
// testprog.GenProgram emits for seeds 0–59 and on the four benchmark
// scripts. The generated and benchmark lambdas are checked against a
// second, textual reading of the printed lambda: delete every projection of
// the parameter (p.i, fst(p), snd(p)); the parameter is read whole iff its
// name is still there, and the projections deleted are the fields.
func TestReadSet(t *testing.T) {
	for _, c := range []struct {
		src    string
		whole  bool
		fields []int
	}{
		{"t => t", true, nil},
		{"t => (t, 1)", true, nil},
		{"t => cond(t.0 > 1, t, (1, 2))", true, nil},
		{"t => t.0.0", false, []int{0}},
		{"t => fst(t)", false, []int{0}},
		{"t => snd(t) + t.1", false, []int{1}},
		{"t => (t.2, t.0 + 1)", false, []int{0, 2}},
		{"t => t.1 == \"article\"", false, []int{1}},
		{"t => 7", false, nil},
		{"t => str(t)", true, nil},
		{"(a, b) => a.0 + b", false, []int{0}},
	} {
		l := lambdaOf(t, "x = readFile(\"in\").map("+c.src+")")
		got := lang.ReadSet(l)
		if got.Whole != c.whole || (!c.whole && !slices.Equal(got.Fields, c.fields)) {
			t.Errorf("ReadSet(%s) = %+v, want whole=%t fields=%v", c.src, got, c.whole, c.fields)
		}
	}
	if got := lang.ReadSet(lang.Native("id", 1, func(a []val.Value) val.Value { return a[0] })); !got.Whole {
		t.Errorf("ReadSet(native) = %+v, want whole", got)
	}

	scripts := map[string]string{
		"steploop":        workload.StepLoopScript(10),
		"visitcount_bulk": workload.VisitCountSpec{Days: 6, WithDiff: true, WithPageTypes: true}.Script(),
		"connected_delta": workload.ConnectedScript,
		"visitcount_tcp":  workload.VisitCountSpec{Days: 60, WithDiff: true}.Script(),
	}
	for seed := int64(0); seed < 60; seed++ {
		src, err := testprog.GenProgram(store.NewMemStore(), seed)
		if err != nil {
			t.Fatal(err)
		}
		scripts[fmt.Sprintf("seed%d", seed)] = src
	}
	var whole, projected int
	for name, src := range scripts {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, l := range lambdas(prog) {
			got, want := lang.ReadSet(l), textReads(t, l)
			if got.Whole != want.Whole || (!got.Whole && !slices.Equal(got.Fields, want.Fields)) {
				t.Errorf("%s: ReadSet(%s) = %+v, the printed lambda reads %+v", name, lang.Format(progOf(l)), got, want)
			}
			if got.Whole {
				whole++
			} else {
				projected++
			}
		}
	}
	if whole == 0 || projected == 0 {
		t.Errorf("%d whole and %d projection-only lambdas: a set is missing", whole, projected)
	}
}

// textReads is the textual reading of l's first parameter described at
// TestReadSet.
func textReads(t *testing.T, l *lang.Lambda) lang.Reads {
	t.Helper()
	body := lang.Format(progOf(l))
	p := regexp.QuoteMeta(l.Params[0])
	proj := regexp.MustCompile(`\b` + p + `\.(\d+)|\b(fst|snd)\(` + p + `\)`)
	var r lang.Reads
	for _, m := range proj.FindAllStringSubmatch(body, -1) {
		switch m[2] {
		case "fst":
			r.Fields = append(r.Fields, 0)
		case "snd":
			r.Fields = append(r.Fields, 1)
		default:
			i, _ := strconv.Atoi(m[1])
			r.Fields = append(r.Fields, i)
		}
	}
	// The binding itself, "p =>" or "(p, q) =>", is not a use.
	rest := proj.ReplaceAllString(body[len("x = in.map("):], "")
	rest = regexp.MustCompile(`^\(?[\w, ]*\)? =>`).ReplaceAllString(rest, "")
	if regexp.MustCompile(`\b` + p + `\b`).MatchString(rest) {
		return lang.Reads{Whole: true}
	}
	slices.Sort(r.Fields)
	return lang.Reads{Fields: slices.Compact(r.Fields)}
}

// progOf wraps a lambda into a one-statement program, for lang.Format.
func progOf(l *lang.Lambda) *lang.Program {
	return &lang.Program{Stmts: []lang.Stmt{&lang.AssignStmt{Name: "x", RHS: &lang.Method{Recv: &lang.Ident{Name: "in"}, Name: "map", Args: []lang.Expr{l}}}}}
}

// lambdaOf parses a one-statement program and returns its only lambda.
// TestKeyFlow checks lang.KeyFlowOf on every shape it recognises, spelled
// with p.0 and with fst(p), and on near misses that move the key: a deeper
// or another field, the parameter in a later field, a computed key.
func TestKeyFlow(t *testing.T) {
	for _, c := range []struct {
		src  string
		want lang.KeyFlow
	}{
		{"p => p", lang.FlowSame},
		{"p => (p.0, 1)", lang.FlowFirstToKey},
		{"p => (fst(p), p.1 + 1, p)", lang.FlowFirstToKey},
		{"p => (p, 1)", lang.FlowWholeToKey},
		{"p => (p, p.0)", lang.FlowWholeToKey},
		{"p => p.0", lang.FlowFirstToWhole},
		{"p => fst(p)", lang.FlowFirstToWhole},
		{"p => (p.1, p.0)", lang.FlowNone},
		{"p => (p.0.0, p.1)", lang.FlowNone},
		{"p => (1, p)", lang.FlowNone},
		{"p => (p.0 + 1, p.1)", lang.FlowNone},
		{"p => snd(p)", lang.FlowNone},
		{"p => p.0.0", lang.FlowNone},
		{"p => (str(p), 1)", lang.FlowNone},
		{"p => 7", lang.FlowNone},
		{"(a, b) => a", lang.FlowNone},
	} {
		if got := lang.KeyFlowOf(lambdaOf(t, "x = readFile(\"in\").map("+c.src+")")); got != c.want {
			t.Errorf("KeyFlowOf(%s) = %d, want %d", c.src, got, c.want)
		}
	}
	if got := lang.KeyFlowOf(lang.Native("id", 1, func(a []val.Value) val.Value { return a[0] })); got != lang.FlowNone {
		t.Errorf("KeyFlowOf(native) = %d, want FlowNone", got)
	}
}

func lambdaOf(t *testing.T, src string) *lang.Lambda {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ls := lambdas(prog)
	if len(ls) != 1 {
		t.Fatalf("%s has %d lambdas", src, len(ls))
	}
	return ls[0]
}

// lambdas returns every lambda of prog, in source order.
func lambdas(prog *lang.Program) []*lang.Lambda {
	var out []*lang.Lambda
	var expr func(e lang.Expr)
	expr = func(e lang.Expr) {
		switch e := e.(type) {
		case *lang.Lambda:
			out = append(out, e)
		case *lang.Method:
			expr(e.Recv)
			for _, a := range e.Args {
				expr(a)
			}
		case *lang.Call:
			for _, a := range e.Args {
				expr(a)
			}
		case *lang.Binary:
			expr(e.X)
			expr(e.Y)
		case *lang.Unary:
			expr(e.X)
		}
	}
	var stmts func([]lang.Stmt)
	stmts = func(ss []lang.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *lang.AssignStmt:
				expr(s.RHS)
			case *lang.ExprStmt:
				expr(s.X)
			case *lang.IfStmt:
				expr(s.Cond)
				stmts(s.Then)
				stmts(s.Else)
			case *lang.WhileStmt:
				expr(s.Cond)
				stmts(s.Body)
			case *lang.ForStmt:
				stmts(s.Body)
			}
		}
	}
	stmts(prog.Stmts)
	return out
}
