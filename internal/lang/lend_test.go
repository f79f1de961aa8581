package lang

import (
	"math/rand"
	"testing"

	"github.com/mitos-project/mitos/internal/val"
)

// aliases reports whether the tuple v's fields live in out.
func aliases(v val.Value, out []val.Value) bool {
	return v.Kind() == val.KindTuple && v.Len() > 0 && &v.Fields()[0] == &out[0]
}

// TestLentOut: a UDF whose body is a tuple literal fills a lent Frame.Out
// wide enough to hold it, and its result aliases Out; a nested tuple, a
// literal wider than Out, a body that only returns a literal from a branch,
// and a call with no Out carve. TupleWidth reports the literal's width, 0
// for any other body.
func TestLentOut(t *testing.T) {
	x := val.Str("page")
	var out [3]val.Value
	for _, c := range []struct {
		body  Expr
		width int
		lent  bool
	}{
		{TupleOf(Var("x"), IntLit(1)), 2, true},
		{TupleOf(Var("x"), TupleOf(Var("x"), IntLit(1)), IntLit(2)), 3, true},
		{TupleOf(Var("x"), IntLit(1), IntLit(2), IntLit(3)), 4, false},
		{&Call{Fn: "cond", Args: []Expr{&Lit{V: val.Bool(true)}, TupleOf(Var("x"), IntLit(1)), TupleOf(IntLit(2))}}, 0, false},
		{Var("x"), 0, false},
	} {
		u, err := MakeUDF(Fn1("x", c.body))
		if err != nil {
			t.Fatal(err)
		}
		if got := u.TupleWidth(); got != c.width {
			t.Errorf("%s: TupleWidth %d, want %d", u, got, c.width)
		}
		want, err := u.Call(x)
		if err != nil {
			t.Fatal(err)
		}
		if aliases(want, out[:]) {
			t.Errorf("%s: Call with no Out filled the lent tuple", u)
		}
		var slab val.Slab
		got, err := u.Apply(&Frame{Args: []val.Value{x}, Slab: &slab, Out: out[:]})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: lent result %v, want %v", u, got, want)
		}
		if lent := aliases(got, out[:]); lent != c.lent {
			t.Errorf("%s: result in the lent tuple %t, want %t", u, lent, c.lent)
		}
		if c.width == 3 && aliases(got.Field(1), out[:]) {
			t.Errorf("%s: the nested tuple was built in the lent tuple", u)
		}
		out = [3]val.Value{}
	}
}

// TestLentOutMatchesInterpreter: for random tuple-literal bodies, the result
// built in a lent Frame.Out is the value the AST interpreter computes, or the
// same error.
func TestLentOutMatchesInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	params := []string{"p0", "p1"}
	var out [3]val.Value
	for trial := 0; trial < 500; trial++ {
		elems := make([]Expr, 1+r.Intn(3))
		for i := range elems {
			elems[i] = randomScalarExpr(r, r.Intn(3))
		}
		body := &TupleExpr{Elems: elems}
		u, err := MakeUDF(&Lambda{Params: params, Body: body})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		args := []val.Value{val.Int(r.Int63n(20) - 10), val.Float(r.NormFloat64())}
		want, wantErr := EvalScalar(body, func(name string) (val.Value, bool) {
			switch name {
			case "p0":
				return args[0], true
			case "p1":
				return args[1], true
			}
			return val.Value{}, false
		})
		got, gotErr := u.Apply(&Frame{Args: args, Out: out[:]})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: %s: error mismatch: interp=%v lent=%v", trial, u, wantErr, gotErr)
		}
		if wantErr == nil && (!got.Equal(want) || !aliases(got, out[:])) {
			t.Fatalf("trial %d: %s with %v: interp=%v lent=%v", trial, u, args, want, got)
		}
	}
}
