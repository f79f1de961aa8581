package lang

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/val"
)

// randomScalarExpr builds a random well-formed scalar expression over
// integer/float parameters p0, p1.
func randomScalarExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return &Lit{V: val.Int(r.Int63n(100) - 50)}
		case 1:
			return &Lit{V: val.Float(r.NormFloat64())}
		case 2:
			return &Ident{Name: "p0"}
		default:
			return &Ident{Name: "p1"}
		}
	}
	switch r.Intn(10) {
	case 0:
		return &Unary{Op: TokMinus, X: randomScalarExpr(r, depth-1)}
	case 1:
		ops := []TokKind{TokPlus, TokMinus, TokStar}
		return &Binary{Op: ops[r.Intn(len(ops))], X: randomScalarExpr(r, depth-1), Y: randomScalarExpr(r, depth-1)}
	case 2:
		cmps := []TokKind{TokEq, TokNeq, TokLt, TokLeq, TokGt, TokGeq}
		cmp := &Binary{Op: cmps[r.Intn(len(cmps))], X: randomScalarExpr(r, depth-1), Y: randomScalarExpr(r, depth-1)}
		return &Call{Fn: "cond", Args: []Expr{cmp, randomScalarExpr(r, depth-1), randomScalarExpr(r, depth-1)}}
	case 3:
		return &Call{Fn: "abs", Args: []Expr{randomScalarExpr(r, depth-1)}}
	case 4:
		return &Call{Fn: "min", Args: []Expr{randomScalarExpr(r, depth-1), randomScalarExpr(r, depth-1)}}
	case 5:
		return &Call{Fn: "max", Args: []Expr{randomScalarExpr(r, depth-1), randomScalarExpr(r, depth-1)}}
	case 6:
		return &Field{X: &TupleExpr{Elems: []Expr{randomScalarExpr(r, depth-1), randomScalarExpr(r, depth-1)}}, Index: r.Intn(2)}
	case 7, 8:
		// fst/snd of a 0-, 1- or 2-tuple, or of a non-tuple: snd of a 1-tuple
		// and either of a scalar are errors both forms must report.
		fn := []string{"fst", "snd"}[r.Intn(2)]
		if r.Intn(4) == 0 {
			return &Call{Fn: fn, Args: []Expr{randomScalarExpr(r, depth-1)}}
		}
		elems := make([]Expr, r.Intn(3))
		for i := range elems {
			elems[i] = randomScalarExpr(r, depth-1)
		}
		return &Call{Fn: fn, Args: []Expr{&TupleExpr{Elems: elems}}}
	default:
		return &Call{Fn: "str", Args: []Expr{randomScalarExpr(r, depth-1)}}
	}
}

// TestCompiledMatchesInterpreter is the differential property test of the
// UDF closure compiler: for random expressions and arguments, the compiled
// form must produce exactly what the AST interpreter produces (value or
// error).
func TestCompiledMatchesInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	params := []string{"p0", "p1"}
	failed := map[string]bool{} // builtins whose own error case the trials reached
	for trial := 0; trial < 2000; trial++ {
		e := randomScalarExpr(r, 1+r.Intn(4))
		compiled, err := compileExpr(e, params)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		args := []val.Value{val.Int(r.Int63n(20) - 10), val.Float(r.NormFloat64())}
		env := func(name string) (val.Value, bool) {
			switch name {
			case "p0":
				return args[0], true
			case "p1":
				return args[1], true
			}
			return val.Value{}, false
		}
		want, wantErr := EvalScalar(e, env)
		got, gotErr := compiled(&Frame{Args: args})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: interp=%v compiled=%v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			for _, fn := range []string{"min", "max", "fst", "snd"} {
				if strings.Contains(wantErr.Error(), fn+" on ") {
					failed[fn] = true
				}
			}
		} else if !got.Equal(want) {
			var b strings.Builder
			formatExpr(&b, e, 0)
			t.Fatalf("trial %d: %s with %v: interp=%v compiled=%v", trial, b.String(), args, want, got)
		}
	}
	if len(failed) != 4 {
		t.Errorf("trials reached the error cases of %v only, want min, max, fst and snd", failed)
	}
}

// TestBuiltinArity: a builtin call with an argument too few or too many is an
// error in both forms — when compiled, and when the interpreter reaches it —
// not an index out of range.
func TestBuiltinArity(t *testing.T) {
	for fn, sig := range builtins {
		if sig.result != TypeScalar {
			continue
		}
		for _, n := range []int{len(sig.args) - 1, len(sig.args) + 1} {
			e := &Call{Fn: fn, Args: make([]Expr, n)}
			for i := range e.Args {
				e.Args[i] = &Lit{V: val.Int(int64(i))}
			}
			_, compileErr := compileExpr(e, nil)
			_, evalErr := EvalScalar(e, nil)
			if compileErr == nil || evalErr == nil || compileErr.Error() != evalErr.Error() {
				t.Errorf("%s with %d args: compile error %v, eval error %v", fn, n, compileErr, evalErr)
			}
		}
	}
}

func TestCompiledShortCircuit(t *testing.T) {
	// (p0 == 0) || (10 / p0 > 1): compiled form must not divide by zero
	// when the left side is true.
	e := &Binary{Op: TokOr,
		X: &Binary{Op: TokEq, X: &Ident{Name: "p0"}, Y: &Lit{V: val.Int(0)}},
		Y: &Binary{Op: TokGt, X: &Binary{Op: TokSlash, X: &Lit{V: val.Int(10)}, Y: &Ident{Name: "p0"}}, Y: &Lit{V: val.Int(1)}},
	}
	f, err := compileExpr(e, []string{"p0"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f(&Frame{Args: []val.Value{val.Int(0)}})
	if err != nil || !got.AsBool() {
		t.Errorf("short-circuit broken: %v, %v", got, err)
	}
	got, err = f(&Frame{Args: []val.Value{val.Int(2)}})
	if err != nil || !got.AsBool() {
		t.Errorf("10/2 > 1 = %v, %v", got, err)
	}
	if _, err := f(&Frame{Args: []val.Value{val.Int(100)}}); err != nil {
		t.Errorf("10/100 > 1 errored: %v", err)
	}
}

func TestCompileRejectsFreeVariables(t *testing.T) {
	e := &Ident{Name: "free"}
	if _, err := compileExpr(e, []string{"p0"}); err == nil {
		t.Error("free variable compiled")
	}
}

func TestCompileRejectsBagConstructs(t *testing.T) {
	e := &Call{Fn: "readFile", Args: []Expr{&Lit{V: val.Str("f")}}}
	if _, err := compileExpr(e, nil); err == nil {
		t.Error("bag construct compiled")
	}
}

func TestUDFLabelTruncated(t *testing.T) {
	long := Expr(&Ident{Name: "x"})
	for i := 0; i < 30; i++ {
		long = &Binary{Op: TokPlus, X: long, Y: &Ident{Name: "x"}}
	}
	u, err := MakeUDF(&Lambda{Params: []string{"x"}, Body: long})
	if err != nil {
		t.Fatal(err)
	}
	if len(u.label) > 64 {
		t.Errorf("label length = %d", len(u.label))
	}
}

func BenchmarkUDFCompiled(b *testing.B) {
	p, err := Parse("y = b.map(x => (x.0, abs(x.1 - x.2) * 2 + 1))")
	if err != nil {
		b.Fatal(err)
	}
	m := p.Stmts[0].(*AssignStmt).RHS.(*Method)
	u, err := MakeUDF(m.Args[0])
	if err != nil {
		b.Fatal(err)
	}
	arg := val.Tuple(val.Str("k"), val.Int(10), val.Int(25))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.Call(arg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUDFInterpreted(b *testing.B) {
	p, err := Parse("y = b.map(x => (x.0, abs(x.1 - x.2) * 2 + 1))")
	if err != nil {
		b.Fatal(err)
	}
	m := p.Stmts[0].(*AssignStmt).RHS.(*Method)
	body := m.Args[0].(*Lambda).Body
	arg := val.Tuple(val.Str("k"), val.Int(10), val.Int(25))
	env := func(name string) (val.Value, bool) {
		if name == "x" {
			return arg, true
		}
		return val.Value{}, false
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalScalar(body, env); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleUDF() {
	p, _ := Parse("y = b.map(x => x * 2 + 1)")
	m := p.Stmts[0].(*AssignStmt).RHS.(*Method)
	u, _ := MakeUDF(m.Args[0])
	v, _ := u.Call(val.Int(20))
	fmt.Println(v)
	// Output: 41
}
