package lang

import "slices"

// Reads is what a UDF reads of its first parameter: the read set of
// Hueske et al.'s operator-reordering analysis, derived from the lambda's
// code, which here is a checked Expr, so the analysis is a tree walk.
type Reads struct {
	// Whole marks a parameter the body may use as a value of its own —
	// return it, embed it in a tuple, compare it, pass it to a builtin other
	// than fst and snd — or whose body cannot be read (a native function).
	Whole bool
	// Fields lists, ascending, the top-level fields the body projects
	// (t.i, fst(t), snd(t)). It is meaningful only when Whole is false.
	Fields []int
}

// ReadSet reports what fn, a *Lambda or *GoFunc, reads of its first
// parameter. A lambda whose every use of the parameter sits directly under a
// field projection never lets the parameter itself escape the call: its
// result may hold a projected field, never the tuple. That is the property
// core relies on to hand such a lambda a tuple it overwrites afterwards.
func ReadSet(fn Expr) Reads {
	l, ok := fn.(*Lambda)
	if !ok || len(l.Params) == 0 {
		return Reads{Whole: true}
	}
	w := readWalk{param: l.Params[0]}
	w.walk(l.Body)
	if w.r.Whole {
		return Reads{Whole: true}
	}
	slices.Sort(w.r.Fields)
	w.r.Fields = slices.Compact(w.r.Fields)
	return w.r
}

// Reads is ReadSet of the UDF's lambda; a native function reads its
// argument whole.
func (u *UDF) Reads() Reads {
	if u.lambda == nil {
		return Reads{Whole: true}
	}
	return ReadSet(u.lambda)
}

// Native reports whether the UDF is a native Go function (GoFunc) rather
// than a script lambda.
func (u *UDF) Native() bool { return u.native != nil }

// KeyFlow is where a map lambda puts its parameter's key in its result,
// for the body shapes that keep a placement by key or by value knowable:
// core's key-partitioning pass (Plan.placements) reads it to tell whether a
// map's output still sits where a shuffle would have put it. Key(p) is p.0
// for a tuple p, which p.0 and fst(p) succeed only on.
type KeyFlow uint8

// The key flows.
const (
	// FlowNone is every other body, and a native function.
	FlowNone KeyFlow = iota
	// FlowSame is p => p.
	FlowSame
	// FlowFirstToKey is p => (p.0, …): the result's key is p's key.
	FlowFirstToKey
	// FlowWholeToKey is p => (p, …): the result's key is p itself.
	FlowWholeToKey
	// FlowFirstToWhole is p => p.0: the result is p's key.
	FlowFirstToWhole
)

// KeyFlowOf reports the key flow of fn, a *Lambda or *GoFunc. A projection
// of the parameter's first field is written p.0 or fst(p).
func KeyFlowOf(fn Expr) KeyFlow {
	l, ok := fn.(*Lambda)
	if !ok || len(l.Params) != 1 {
		return FlowNone
	}
	p := l.Params[0]
	if t, ok := l.Body.(*TupleExpr); ok {
		switch {
		case len(t.Elems) == 0:
		case isIdent(t.Elems[0], p):
			return FlowWholeToKey
		case isFirst(t.Elems[0], p):
			return FlowFirstToKey
		}
		return FlowNone
	}
	switch {
	case isIdent(l.Body, p):
		return FlowSame
	case isFirst(l.Body, p):
		return FlowFirstToWhole
	}
	return FlowNone
}

// KeyFlow is KeyFlowOf the UDF's lambda; a native function's is FlowNone.
func (u *UDF) KeyFlow() KeyFlow {
	if u.lambda == nil {
		return FlowNone
	}
	return KeyFlowOf(u.lambda)
}

func isIdent(e Expr, name string) bool {
	id, ok := e.(*Ident)
	return ok && id.Name == name
}

// isFirst reports whether e is p.0 or fst(p) for the variable p.
func isFirst(e Expr, p string) bool {
	switch e := e.(type) {
	case *Field:
		return e.Index == 0 && isIdent(e.X, p)
	case *Call:
		return e.Fn == "fst" && len(e.Args) == 1 && isIdent(e.Args[0], p)
	}
	return false
}

type readWalk struct {
	param string
	r     Reads
}

func (w *readWalk) isParam(e Expr) bool { return isIdent(e, w.param) }

func (w *readWalk) walk(e Expr) {
	switch e := e.(type) {
	case *Lit:
	case *Ident:
		if e.Name == w.param {
			w.r.Whole = true
		}
	case *Field:
		if w.isParam(e.X) {
			w.r.Fields = append(w.r.Fields, e.Index)
			return
		}
		w.walk(e.X)
	case *Unary:
		w.walk(e.X)
	case *Binary:
		w.walk(e.X)
		w.walk(e.Y)
	case *TupleExpr:
		for _, x := range e.Elems {
			w.walk(x)
		}
	case *Call:
		if (e.Fn == "fst" || e.Fn == "snd") && len(e.Args) == 1 && w.isParam(e.Args[0]) {
			idx := 0
			if e.Fn == "snd" {
				idx = 1
			}
			w.r.Fields = append(w.r.Fields, idx)
			return
		}
		for _, x := range e.Args {
			w.walk(x)
		}
	default:
		// Nothing else compiles in a UDF body; an unknown node is read whole.
		w.r.Whole = true
	}
}
