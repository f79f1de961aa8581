package lang

import (
	"math"
	"strings"

	"github.com/mitos-project/mitos/internal/val"
)

// Frame is the activation record of a UDF call: the arguments, and the slab
// the body's tuple constructors carve from (nil: each tuple is its own
// allocation). A caller on a hot path owns one Frame and one Slab and reuses
// them call after call (core's operator host), so a call allocates nothing and
// a tuple-building body one chunk per ~128 calls.
//
// Out, when set, is a tuple the caller lends: a body that is a tuple literal
// fills its fields into Out instead of carving them, and the result aliases
// Out, so it is valid only until the caller fills Out again. Nested tuples,
// and a literal wider than Out, still carve.
type Frame struct {
	Args []val.Value
	Slab *val.Slab
	Out  []val.Value
}

// compiledFn evaluates a compiled expression in a call's frame.
type compiledFn func(fr *Frame) (val.Value, error)

// compileExpr compiles a scalar expression into a closure tree: all
// dispatch on node and operator kinds happens once, at compile time, so
// per-element UDF evaluation costs a few nested calls instead of an AST
// walk. params maps lambda parameter names to argument indices.
//
// UDFs run this compiled form (see MakeUDF); the AST-walking EvalScalar
// remains the readable specification and is used for whole-statement
// evaluation in the reference interpreter.
func compileExpr(e Expr, params []string) (compiledFn, error) {
	switch e := e.(type) {
	case *Lit:
		v := e.V
		return func(*Frame) (val.Value, error) { return v, nil }, nil
	case *Ident:
		idx := -1
		for i, p := range params {
			if p == e.Name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, errf(e.Pos, "undefined variable %s", e.Name)
		}
		return func(fr *Frame) (val.Value, error) { return fr.Args[idx], nil }, nil
	case *Unary:
		x, err := compileExpr(e.X, params)
		if err != nil {
			return nil, err
		}
		pos, op := e.Pos, e.Op
		return func(fr *Frame) (val.Value, error) {
			v, err := x(fr)
			if err != nil {
				return val.Value{}, err
			}
			return evalUnary(pos, op, v)
		}, nil
	case *Binary:
		return compileBinary(e, params)
	case *Call:
		return compileCall(e, params)
	case *TupleExpr:
		return compileTuple(e, params, false)
	case *Field:
		x, err := compileExpr(e.X, params)
		if err != nil {
			return nil, err
		}
		pos, idx := e.Pos, e.Index
		return func(fr *Frame) (val.Value, error) {
			v, err := x(fr)
			if err != nil {
				return val.Value{}, err
			}
			if v.Kind() != val.KindTuple {
				return val.Value{}, errf(pos, "field access on %s value", v.Kind())
			}
			if idx >= v.Len() {
				return val.Value{}, errf(pos, "field index %d out of range for %d-tuple", idx, v.Len())
			}
			return v.Field(idx), nil
		}, nil
	default:
		return nil, errf(e.ExprPos(), "cannot compile %T in a UDF body", e)
	}
}

// compileTuple compiles a tuple constructor. The body's root constructor
// (root) fills a lent Frame.Out wide enough to hold it; every other one
// carves its fields from the slab.
func compileTuple(e *TupleExpr, params []string, root bool) (compiledFn, error) {
	fields := make([]compiledFn, len(e.Elems))
	for i, el := range e.Elems {
		f, err := compileExpr(el, params)
		if err != nil {
			return nil, err
		}
		fields[i] = f
	}
	n := len(fields)
	return func(fr *Frame) (val.Value, error) {
		var out []val.Value
		if root && len(fr.Out) >= n {
			out = fr.Out[:n:n]
		} else {
			out = fr.Slab.Make(n)
		}
		for i, f := range fields {
			v, err := f(fr)
			if err != nil {
				return val.Value{}, err
			}
			out[i] = v
		}
		return val.Tuple(out...), nil
	}, nil
}

func compileBinary(e *Binary, params []string) (compiledFn, error) {
	x, err := compileExpr(e.X, params)
	if err != nil {
		return nil, err
	}
	y, err := compileExpr(e.Y, params)
	if err != nil {
		return nil, err
	}
	pos := e.Pos
	// Short-circuit boolean operators.
	switch e.Op {
	case TokAnd, TokOr:
		isAnd := e.Op == TokAnd
		return func(fr *Frame) (val.Value, error) {
			a, err := x(fr)
			if err != nil {
				return val.Value{}, err
			}
			if a.Kind() != val.KindBool {
				return val.Value{}, errf(pos, "boolean operator on %s value", a.Kind())
			}
			if isAnd && !a.AsBool() {
				return val.Bool(false), nil
			}
			if !isAnd && a.AsBool() {
				return val.Bool(true), nil
			}
			b, err := y(fr)
			if err != nil {
				return val.Value{}, err
			}
			if b.Kind() != val.KindBool {
				return val.Value{}, errf(pos, "boolean operator on %s value", b.Kind())
			}
			return b, nil
		}, nil
	}
	type binOp func(a, b val.Value) (val.Value, error)
	var op binOp
	switch e.Op {
	case TokPlus:
		op = func(a, b val.Value) (val.Value, error) {
			if a.Kind() == val.KindInt && b.Kind() == val.KindInt {
				return val.Int(a.AsInt() + b.AsInt()), nil
			}
			if a.Kind() == val.KindString || b.Kind() == val.KindString {
				return val.Str(Render(a) + Render(b)), nil
			}
			return arith(pos, "+", a, b,
				func(x, y int64) int64 { return x + y },
				func(x, y float64) float64 { return x + y })
		}
	case TokMinus:
		op = func(a, b val.Value) (val.Value, error) {
			if a.Kind() == val.KindInt && b.Kind() == val.KindInt {
				return val.Int(a.AsInt() - b.AsInt()), nil
			}
			return arith(pos, "-", a, b, nil,
				func(x, y float64) float64 { return x - y })
		}
	case TokStar:
		op = func(a, b val.Value) (val.Value, error) {
			if a.Kind() == val.KindInt && b.Kind() == val.KindInt {
				return val.Int(a.AsInt() * b.AsInt()), nil
			}
			return arith(pos, "*", a, b, nil,
				func(x, y float64) float64 { return x * y })
		}
	case TokSlash:
		op = func(a, b val.Value) (val.Value, error) {
			if bothInt(a, b) {
				if b.AsInt() == 0 {
					return val.Value{}, errf(pos, "integer division by zero")
				}
				return val.Int(a.AsInt() / b.AsInt()), nil
			}
			return arith(pos, "/", a, b, nil,
				func(x, y float64) float64 { return x / y })
		}
	case TokPercent:
		op = func(a, b val.Value) (val.Value, error) {
			if bothInt(a, b) {
				if b.AsInt() == 0 {
					return val.Value{}, errf(pos, "integer modulo by zero")
				}
				return val.Int(a.AsInt() % b.AsInt()), nil
			}
			return arith(pos, "%", a, b, nil, math.Mod)
		}
	case TokEq, TokNeq:
		negate := e.Op == TokNeq
		op = func(a, b val.Value) (val.Value, error) {
			eq, err := scalarEqual(pos, a, b)
			if err != nil {
				return val.Value{}, err
			}
			return val.Bool(eq != negate), nil
		}
	case TokLt, TokLeq, TokGt, TokGeq:
		kind := e.Op
		op = func(a, b val.Value) (val.Value, error) {
			c, err := scalarCompare(pos, a, b)
			if err != nil {
				return val.Value{}, err
			}
			var out bool
			switch kind {
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
		}
	default:
		return nil, errf(pos, "unknown binary operator %s", e.Op)
	}
	return func(fr *Frame) (val.Value, error) {
		a, err := x(fr)
		if err != nil {
			return val.Value{}, err
		}
		b, err := y(fr)
		if err != nil {
			return val.Value{}, err
		}
		return op(a, b)
	}, nil
}

func compileCall(e *Call, params []string) (compiledFn, error) {
	if err := callArity(e); err != nil {
		return nil, err
	}
	fns := make([]compiledFn, len(e.Args))
	for i, a := range e.Args {
		f, err := compileExpr(a, params)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	pos := e.Pos
	switch e.Fn {
	case "cond":
		c, a, b := fns[0], fns[1], fns[2]
		return func(fr *Frame) (val.Value, error) {
			cv, err := c(fr)
			if err != nil {
				return val.Value{}, err
			}
			if cv.Kind() != val.KindBool {
				return val.Value{}, errf(pos, "cond condition is %s, want bool", cv.Kind())
			}
			if cv.AsBool() {
				return a(fr)
			}
			return b(fr)
		}, nil
	case "abs":
		f := fns[0]
		return func(fr *Frame) (val.Value, error) {
			v, err := f(fr)
			if err != nil {
				return val.Value{}, err
			}
			switch v.Kind() {
			case val.KindInt:
				n := v.AsInt()
				if n < 0 {
					n = -n
				}
				return val.Int(n), nil
			case val.KindFloat:
				return val.Float(math.Abs(v.AsFloat())), nil
			}
			return val.Value{}, errf(pos, "abs on %s value", v.Kind())
		}, nil
	case "str":
		f := fns[0]
		return func(fr *Frame) (val.Value, error) {
			v, err := f(fr)
			if err != nil {
				return val.Value{}, err
			}
			return val.Str(Render(v)), nil
		}, nil
	case "num":
		f := fns[0]
		return func(fr *Frame) (val.Value, error) {
			v, err := f(fr)
			if err != nil {
				return val.Value{}, err
			}
			return parseNum(pos, v)
		}, nil
	case "len":
		f := fns[0]
		return func(fr *Frame) (val.Value, error) {
			v, err := f(fr)
			if err != nil {
				return val.Value{}, err
			}
			if v.Kind() != val.KindString {
				return val.Value{}, errf(pos, "len on %s value", v.Kind())
			}
			return val.Int(int64(len(v.AsStr()))), nil
		}, nil
	case "min", "max":
		x, y, fn := fns[0], fns[1], e.Fn
		return func(fr *Frame) (val.Value, error) {
			a, err := x(fr)
			if err != nil {
				return val.Value{}, err
			}
			b, err := y(fr)
			if err != nil {
				return val.Value{}, err
			}
			return minMax(pos, fn, a, b)
		}, nil
	case "fst", "snd":
		f, fn := fns[0], e.Fn
		return func(fr *Frame) (val.Value, error) {
			v, err := f(fr)
			if err != nil {
				return val.Value{}, err
			}
			return fstSnd(pos, fn, v)
		}, nil
	default:
		return nil, errf(pos, "%s cannot be compiled (bag operations are planned, not evaluated)", e.Fn)
	}
}

// Compile-aware UDF support: MakeUDF compiles lambda bodies once so that
// Call costs closure invocations, not AST walks.
func (u *UDF) ensureCompiled() error {
	if u.compiled != nil || u.native != nil {
		return nil
	}
	var f compiledFn
	var err error
	if t, ok := u.lambda.Body.(*TupleExpr); ok {
		f, err = compileTuple(t, u.lambda.Params, true)
	} else {
		f, err = compileExpr(u.lambda.Body, u.lambda.Params)
	}
	if err != nil {
		return err
	}
	u.compiled = f
	return nil
}

// TupleWidth is the number of fields of the tuple literal the UDF's body is,
// and 0 when the body is anything else or the UDF is native: a UDF of width n
// fills a lent Frame.Out of at least n Values instead of carving its result.
func (u *UDF) TupleWidth() int {
	if u.lambda == nil {
		return 0
	}
	if t, ok := u.lambda.Body.(*TupleExpr); ok {
		return len(t.Elems)
	}
	return 0
}

// udfLabel builds a short display label for a lambda.
func udfLabel(l *Lambda) string {
	var b strings.Builder
	formatExpr(&b, l, 0)
	s := b.String()
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}
