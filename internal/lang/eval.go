package lang

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/mitos-project/mitos/internal/val"
)

// Env resolves variable references during scalar evaluation.
type Env func(name string) (val.Value, bool)

// EvalScalar evaluates a scalar expression (no bag operations). Identifiers
// are resolved through env. Bag-typed constructs (readFile, only, bag
// methods, ...) are rejected: the compiler lowers them to dataflow operators
// before any evaluation happens.
func EvalScalar(e Expr, env Env) (val.Value, error) {
	switch e := e.(type) {
	case *Lit:
		return e.V, nil
	case *Ident:
		v, ok := env(e.Name)
		if !ok {
			return val.Value{}, errf(e.Pos, "undefined variable %s", e.Name)
		}
		return v, nil
	case *Unary:
		x, err := EvalScalar(e.X, env)
		if err != nil {
			return val.Value{}, err
		}
		return evalUnary(e.Pos, e.Op, x)
	case *Binary:
		return evalBinary(e, env)
	case *Call:
		return evalCall(e, env)
	case *TupleExpr:
		fields := make([]val.Value, len(e.Elems))
		for i, el := range e.Elems {
			v, err := EvalScalar(el, env)
			if err != nil {
				return val.Value{}, err
			}
			fields[i] = v
		}
		return val.Tuple(fields...), nil
	case *Field:
		x, err := EvalScalar(e.X, env)
		if err != nil {
			return val.Value{}, err
		}
		if x.Kind() != val.KindTuple {
			return val.Value{}, errf(e.Pos, "field access on %s value", x.Kind())
		}
		if e.Index >= x.Len() {
			return val.Value{}, errf(e.Pos, "field index %d out of range for %d-tuple", e.Index, x.Len())
		}
		return x.Field(e.Index), nil
	default:
		return val.Value{}, errf(e.ExprPos(), "cannot evaluate %T as a scalar expression", e)
	}
}

func evalUnary(pos Pos, op TokKind, x val.Value) (val.Value, error) {
	switch op {
	case TokMinus:
		switch x.Kind() {
		case val.KindInt:
			return val.Int(-x.AsInt()), nil
		case val.KindFloat:
			return val.Float(-x.AsFloat()), nil
		}
		return val.Value{}, errf(pos, "unary '-' on %s value", x.Kind())
	case TokNot:
		if x.Kind() != val.KindBool {
			return val.Value{}, errf(pos, "'!' on %s value", x.Kind())
		}
		return val.Bool(!x.AsBool()), nil
	default:
		return val.Value{}, errf(pos, "unknown unary operator %s", op)
	}
}

func evalBinary(e *Binary, env Env) (val.Value, error) {
	// Short-circuit boolean operators.
	if e.Op == TokAnd || e.Op == TokOr {
		x, err := EvalScalar(e.X, env)
		if err != nil {
			return val.Value{}, err
		}
		if x.Kind() != val.KindBool {
			return val.Value{}, errf(e.Pos, "%s on %s value", e.Op, x.Kind())
		}
		if e.Op == TokAnd && !x.AsBool() {
			return val.Bool(false), nil
		}
		if e.Op == TokOr && x.AsBool() {
			return val.Bool(true), nil
		}
		y, err := EvalScalar(e.Y, env)
		if err != nil {
			return val.Value{}, err
		}
		if y.Kind() != val.KindBool {
			return val.Value{}, errf(e.Pos, "%s on %s value", e.Op, y.Kind())
		}
		return y, nil
	}
	x, err := EvalScalar(e.X, env)
	if err != nil {
		return val.Value{}, err
	}
	y, err := EvalScalar(e.Y, env)
	if err != nil {
		return val.Value{}, err
	}
	switch e.Op {
	case TokPlus:
		// String + anything (or anything + string) concatenates.
		if x.Kind() == val.KindString || y.Kind() == val.KindString {
			return val.Str(Render(x) + Render(y)), nil
		}
		return arith(e.Pos, "+", x, y,
			func(a, b int64) int64 { return a + b },
			func(a, b float64) float64 { return a + b })
	case TokMinus:
		return arith(e.Pos, "-", x, y,
			func(a, b int64) int64 { return a - b },
			func(a, b float64) float64 { return a - b })
	case TokStar:
		return arith(e.Pos, "*", x, y,
			func(a, b int64) int64 { return a * b },
			func(a, b float64) float64 { return a * b })
	case TokSlash:
		if bothInt(x, y) {
			if y.AsInt() == 0 {
				return val.Value{}, errf(e.Pos, "integer division by zero")
			}
			return val.Int(x.AsInt() / y.AsInt()), nil
		}
		return arith(e.Pos, "/", x, y, nil,
			func(a, b float64) float64 { return a / b })
	case TokPercent:
		if bothInt(x, y) {
			if y.AsInt() == 0 {
				return val.Value{}, errf(e.Pos, "integer modulo by zero")
			}
			return val.Int(x.AsInt() % y.AsInt()), nil
		}
		return arith(e.Pos, "%", x, y, nil, math.Mod)
	case TokEq, TokNeq:
		eq, err := scalarEqual(e.Pos, x, y)
		if err != nil {
			return val.Value{}, err
		}
		if e.Op == TokNeq {
			eq = !eq
		}
		return val.Bool(eq), nil
	case TokLt, TokLeq, TokGt, TokGeq:
		c, err := scalarCompare(e.Pos, x, y)
		if err != nil {
			return val.Value{}, err
		}
		var out bool
		switch e.Op {
		case TokLt:
			out = c < 0
		case TokLeq:
			out = c <= 0
		case TokGt:
			out = c > 0
		case TokGeq:
			out = c >= 0
		}
		return val.Bool(out), nil
	default:
		return val.Value{}, errf(e.Pos, "unknown binary operator %s", e.Op)
	}
}

func bothInt(x, y val.Value) bool {
	return x.Kind() == val.KindInt && y.Kind() == val.KindInt
}

func isNumeric(v val.Value) bool {
	return v.Kind() == val.KindInt || v.Kind() == val.KindFloat
}

func arith(pos Pos, op string, x, y val.Value, fi func(a, b int64) int64, ff func(a, b float64) float64) (val.Value, error) {
	if !isNumeric(x) || !isNumeric(y) {
		return val.Value{}, errf(pos, "'%s' on %s and %s values", op, x.Kind(), y.Kind())
	}
	if fi != nil && bothInt(x, y) {
		return val.Int(fi(x.AsInt(), y.AsInt())), nil
	}
	return val.Float(ff(x.AsNumber(), y.AsNumber())), nil
}

// scalarEqual compares with numeric coercion: Int(1) == Float(1.0).
func scalarEqual(pos Pos, x, y val.Value) (bool, error) {
	if isNumeric(x) && isNumeric(y) {
		return x.AsNumber() == y.AsNumber(), nil
	}
	if x.Kind() != y.Kind() {
		return false, nil
	}
	return x.Equal(y), nil
}

func scalarCompare(pos Pos, x, y val.Value) (int, error) {
	if isNumeric(x) && isNumeric(y) {
		a, b := x.AsNumber(), y.AsNumber()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if x.Kind() != y.Kind() {
		return 0, errf(pos, "cannot order %s and %s values", x.Kind(), y.Kind())
	}
	switch x.Kind() {
	case val.KindString, val.KindBool, val.KindTuple:
		return x.Compare(y), nil
	default:
		return 0, errf(pos, "cannot order %s values", x.Kind())
	}
}

func evalCall(e *Call, env Env) (val.Value, error) {
	if err := callArity(e); err != nil {
		return val.Value{}, err
	}
	// cond is lazy: only the selected branch is evaluated.
	if e.Fn == "cond" {
		c, err := EvalScalar(e.Args[0], env)
		if err != nil {
			return val.Value{}, err
		}
		if c.Kind() != val.KindBool {
			return val.Value{}, errf(e.Pos, "cond condition is %s, want bool", c.Kind())
		}
		if c.AsBool() {
			return EvalScalar(e.Args[1], env)
		}
		return EvalScalar(e.Args[2], env)
	}
	args := make([]val.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := EvalScalar(a, env)
		if err != nil {
			return val.Value{}, err
		}
		args[i] = v
	}
	switch e.Fn {
	case "abs":
		x := args[0]
		switch x.Kind() {
		case val.KindInt:
			n := x.AsInt()
			if n < 0 {
				n = -n
			}
			return val.Int(n), nil
		case val.KindFloat:
			return val.Float(math.Abs(x.AsFloat())), nil
		}
		return val.Value{}, errf(e.Pos, "abs on %s value", x.Kind())
	case "str":
		return val.Str(Render(args[0])), nil
	case "num":
		return parseNum(e.Pos, args[0])
	case "len":
		if args[0].Kind() != val.KindString {
			return val.Value{}, errf(e.Pos, "len on %s value", args[0].Kind())
		}
		return val.Int(int64(len(args[0].AsStr()))), nil
	case "min", "max":
		return minMax(e.Pos, e.Fn, args[0], args[1])
	case "fst", "snd":
		return fstSnd(e.Pos, e.Fn, args[0])
	default:
		return val.Value{}, errf(e.Pos, "%s cannot be evaluated as a scalar (bag operations are compiled, not evaluated)", e.Fn)
	}
}

// minMax is the min and max builtins: strings by bytes, numbers by value
// (an int and a float compare numerically); ties keep x.
func minMax(pos Pos, fn string, x, y val.Value) (val.Value, error) {
	c := 0
	switch {
	case x.Kind() == val.KindString && y.Kind() == val.KindString:
		c = strings.Compare(x.AsStr(), y.AsStr())
	case isNumeric(x) && isNumeric(y):
		switch {
		case x.AsNumber() < y.AsNumber():
			c = -1
		case x.AsNumber() > y.AsNumber():
			c = 1
		}
	default:
		return val.Value{}, errf(pos, "%s on %s and %s values", fn, x.Kind(), y.Kind())
	}
	if (fn == "min") == (c <= 0) {
		return x, nil
	}
	return y, nil
}

// fstSnd is the fst and snd builtins: field 0 or 1 of a tuple.
func fstSnd(pos Pos, fn string, x val.Value) (val.Value, error) {
	if x.Kind() != val.KindTuple {
		return val.Value{}, errf(pos, "%s on %s value", fn, x.Kind())
	}
	idx := 0
	if fn == "snd" {
		idx = 1
	}
	if x.Len() <= idx {
		return val.Value{}, errf(pos, "%s on %d-tuple", fn, x.Len())
	}
	return x.Field(idx), nil
}

func parseNum(pos Pos, x val.Value) (val.Value, error) {
	switch x.Kind() {
	case val.KindInt, val.KindFloat:
		return x, nil
	case val.KindString:
		s := strings.TrimSpace(x.AsStr())
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return val.Int(i), nil
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return val.Float(f), nil
		}
		return val.Value{}, errf(pos, "num: cannot parse %q", s)
	default:
		return val.Value{}, errf(pos, "num on %s value", x.Kind())
	}
}

// Render converts a value to its display string: strings render without
// quotes (so that "file" + day works as in the paper), all other values use
// their literal syntax.
func Render(v val.Value) string {
	switch v.Kind() {
	case val.KindString:
		return v.AsStr()
	case val.KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	default:
		return v.String()
	}
}

// UDF is a callable user-defined function: either a script lambda evaluated
// by the interpreter, or a native Go function. UDFs are pure functions of
// their arguments.
type UDF struct {
	arity    int
	label    string
	lambda   *Lambda
	compiled compiledFn
	native   func(args []val.Value) val.Value
}

// MakeUDF wraps a Lambda or GoFunc expression into a UDF. Any other
// expression is an error.
func MakeUDF(e Expr) (*UDF, error) {
	switch e := e.(type) {
	case *Lambda:
		u := &UDF{arity: len(e.Params), label: udfLabel(e), lambda: e}
		if err := u.ensureCompiled(); err != nil {
			return nil, err
		}
		return u, nil
	case *GoFunc:
		return &UDF{arity: e.Arity, label: e.Label, native: e.Fn}, nil
	default:
		return nil, errf(e.ExprPos(), "expected a function, got %T", e)
	}
}

// Arity returns the number of parameters the UDF takes.
func (u *UDF) Arity() int { return u.arity }

// Call applies the UDF to args. The number of args must equal Arity. It
// builds a frame per call; a caller with many calls to make keeps one Frame
// and uses Apply.
func (u *UDF) Call(args ...val.Value) (val.Value, error) {
	return u.Apply(&Frame{Args: args})
}

// Apply applies the UDF to fr.Args, whose number must equal Arity. Tuples the
// body constructs are carved from fr.Slab.
func (u *UDF) Apply(fr *Frame) (val.Value, error) {
	if len(fr.Args) != u.arity {
		return val.Value{}, fmt.Errorf("lang: UDF %s called with %d args, takes %d", u.label, len(fr.Args), u.arity)
	}
	if u.native != nil {
		return u.native(fr.Args), nil
	}
	return u.compiled(fr)
}

// String describes the UDF for debugging.
func (u *UDF) String() string {
	if u.native != nil {
		return fmt.Sprintf("native:%s/%d", u.label, u.arity)
	}
	var b strings.Builder
	formatExpr(&b, u.lambda, 0)
	return b.String()
}
