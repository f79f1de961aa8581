package lang

import "fmt"

// Type classifies an expression as scalar (a single value such as a loop
// counter or a file name) or bag (a scalable collection). Only this
// distinction matters to the compiler; scalar values are dynamically typed.
type Type uint8

// The two expression types.
const (
	TypeScalar Type = iota
	TypeBag
)

// String returns "scalar" or "bag".
func (t Type) String() string {
	if t == TypeBag {
		return "bag"
	}
	return "scalar"
}

// Info holds the results of Check: the inferred Type of every expression.
type Info struct {
	Types map[Expr]Type
}

// TypeOf returns the inferred type of e. It panics if e was not part of the
// checked program.
func (in *Info) TypeOf(e Expr) Type {
	t, ok := in.Types[e]
	if !ok {
		panic(fmt.Sprintf("lang: TypeOf on unchecked expression %T", e))
	}
	return t
}

// Builtin call signatures: argument types and result type.
type builtinSig struct {
	args   []Type
	result Type
}

var builtins = map[string]builtinSig{
	"readFile": {[]Type{TypeScalar}, TypeBag},
	"newBag":   {[]Type{TypeScalar}, TypeBag},
	"empty":    {nil, TypeBag},
	"only":     {[]Type{TypeBag}, TypeScalar},
	"abs":      {[]Type{TypeScalar}, TypeScalar},
	"str":      {[]Type{TypeScalar}, TypeScalar},
	"num":      {[]Type{TypeScalar}, TypeScalar},
	"len":      {[]Type{TypeScalar}, TypeScalar},
	"min":      {[]Type{TypeScalar, TypeScalar}, TypeScalar},
	"max":      {[]Type{TypeScalar, TypeScalar}, TypeScalar},
	"fst":      {[]Type{TypeScalar}, TypeScalar},
	"snd":      {[]Type{TypeScalar}, TypeScalar},
	"cond":     {[]Type{TypeScalar, TypeScalar, TypeScalar}, TypeScalar},
}

// callArity rejects a builtin call with the wrong number of arguments. The
// checker reports it; so do compileCall and evalCall, because MakeUDF and
// EvalScalar also take ASTs no checker saw.
func callArity(e *Call) error {
	if sig, ok := builtins[e.Fn]; ok && len(e.Args) != len(sig.args) {
		return errf(e.Pos, "%s expects %d argument(s), got %d", e.Fn, len(sig.args), len(e.Args))
	}
	return nil
}

// Bag method signatures: number of lambda args (with given arities, -1
// meaning a bag argument, -2 meaning a scalar argument) — encoded simply.
type methodSig struct {
	lambdaArity int  // arity of a lambda argument, 0 if none
	bagArg      bool // takes another bag as the (only) argument
	scalarArg   bool // takes a scalar argument (writeFile name)
	result      Type
}

var bagMethods = map[string]methodSig{
	"map":         {lambdaArity: 1, result: TypeBag},
	"flatMap":     {lambdaArity: 1, result: TypeBag},
	"filter":      {lambdaArity: 1, result: TypeBag},
	"reduceByKey": {lambdaArity: 2, result: TypeBag},
	"reduce":      {lambdaArity: 2, result: TypeBag},
	"join":        {bagArg: true, result: TypeBag},
	"deltaMerge":  {bagArg: true, lambdaArity: 2, result: TypeBag},
	"solution":    {result: TypeBag},
	"union":       {bagArg: true, result: TypeBag},
	"cross":       {bagArg: true, result: TypeBag},
	"sum":         {result: TypeBag},
	"count":       {result: TypeBag},
	"distinct":    {result: TypeBag},
	"writeFile":   {scalarArg: true, result: TypeBag}, // result unused; statement-only
}

// StaticType classifies e as scalar or bag from its syntactic shape and the
// types of the variables it references (resolved through varType). It
// assumes e is well-formed (see Check); unknown constructs classify as
// scalar. The lowering pass in internal/ir uses it to type synthetic
// expressions it creates during desugaring.
func StaticType(e Expr, varType func(name string) Type) Type {
	switch e := e.(type) {
	case *Ident:
		return varType(e.Name)
	case *Method:
		return TypeBag
	case *Call:
		if sig, ok := builtins[e.Fn]; ok {
			return sig.result
		}
		return TypeScalar
	default:
		return TypeScalar
	}
}

// Check resolves names and infers scalar/bag types for prog. It returns
// type information used by the compiler, or the first error found.
//
// The rules it enforces:
//   - every variable is assigned before use on every control-flow path;
//   - a variable has one type (scalar or bag) throughout the program;
//   - conditions of if/while/do-while are scalar;
//   - bag operations are applied to bags with correctly shaped arguments;
//   - lambda bodies reference only their own parameters (all data reaching a
//     UDF must flow through bag edges, as required by the dataflow model);
//   - writeFile is the only expression usable as a statement;
//   - break and continue appear only inside loops, as the last statement of
//     their block (code after them would be unreachable).
func Check(prog *Program) (*Info, error) {
	c := &checker{
		info:     &Info{Types: make(map[Expr]Type)},
		varTypes: make(map[string]Type),
	}
	assigned := make(map[string]bool)
	if _, err := c.checkStmts(prog.Stmts, assigned); err != nil {
		return nil, err
	}
	return c.info, nil
}

type checker struct {
	info      *Info
	varTypes  map[string]Type // flow-insensitive: one type per variable
	loopDepth int
	// loopJumps marks loop nesting levels containing a break or continue,
	// so do-while bodies that may exit early do not contribute to the
	// definitely-assigned set.
	loopJumps map[int]bool
}

// checkStmts threads the definitely-assigned set through a statement list.
// terminated reports that the list ends in break or continue: any further
// statements would be unreachable, and the list contributes nothing to the
// surrounding definite-assignment analysis.
func (c *checker) checkStmts(stmts []Stmt, assigned map[string]bool) (terminated bool, err error) {
	for i, s := range stmts {
		term, err := c.checkStmt(s, assigned)
		if err != nil {
			return false, err
		}
		if term {
			if i != len(stmts)-1 {
				return false, errf(stmts[i+1].StmtPos(), "unreachable code after break/continue")
			}
			return true, nil
		}
	}
	return false, nil
}

func (c *checker) checkStmt(s Stmt, assigned map[string]bool) (terminated bool, err error) {
	switch s := s.(type) {
	case *AssignStmt:
		t, err := c.checkExpr(s.RHS, assigned)
		if err != nil {
			return false, err
		}
		if old, ok := c.varTypes[s.Name]; ok && old != t {
			return false, errf(s.Pos, "variable %s was %s, cannot reassign as %s", s.Name, old, t)
		}
		c.varTypes[s.Name] = t
		assigned[s.Name] = true
		return false, nil
	case *IfStmt:
		if err := c.checkCond(s.Cond, assigned); err != nil {
			return false, err
		}
		thenSet := cloneSet(assigned)
		thenTerm, err := c.checkStmts(s.Then, thenSet)
		if err != nil {
			return false, err
		}
		elseSet := cloneSet(assigned)
		elseTerm, err := c.checkStmts(s.Else, elseSet)
		if err != nil {
			return false, err
		}
		// Definitely assigned after the if: contributions only from
		// branches that fall through.
		switch {
		case thenTerm && elseTerm:
			return true, nil
		case thenTerm:
			for k := range elseSet {
				assigned[k] = true
			}
		case elseTerm:
			for k := range thenSet {
				assigned[k] = true
			}
		default:
			for k := range thenSet {
				if elseSet[k] {
					assigned[k] = true
				}
			}
		}
		return false, nil
	case *WhileStmt:
		if s.PostTest {
			return false, c.checkDoWhile(s, assigned)
		}
		if err := c.checkCond(s.Cond, assigned); err != nil {
			return false, err
		}
		// The body may not run; check it against a copy.
		bodySet := cloneSet(assigned)
		c.loopDepth++
		_, err := c.checkStmts(s.Body, bodySet)
		delete(c.loopJumps, c.loopDepth) // jumps exit this loop, not a later one at the same depth
		c.loopDepth--
		return false, err
	case *ForStmt:
		if _, err := c.checkExprOfType(s.From, TypeScalar, assigned); err != nil {
			return false, err
		}
		if _, err := c.checkExprOfType(s.To, TypeScalar, assigned); err != nil {
			return false, err
		}
		if old, ok := c.varTypes[s.Var]; ok && old != TypeScalar {
			return false, errf(s.Pos, "loop variable %s was %s", s.Var, old)
		}
		c.varTypes[s.Var] = TypeScalar
		assigned[s.Var] = true
		bodySet := cloneSet(assigned)
		c.loopDepth++
		_, err := c.checkStmts(s.Body, bodySet)
		delete(c.loopJumps, c.loopDepth)
		c.loopDepth--
		return false, err
	case *ExprStmt:
		m, ok := s.X.(*Method)
		if !ok || m.Name != "writeFile" {
			return false, errf(s.StmtPos(), "only writeFile may be used as a statement")
		}
		_, err := c.checkExpr(s.X, assigned)
		return false, err
	case *BreakStmt:
		if c.loopDepth == 0 {
			return false, errf(s.Pos, "break outside a loop")
		}
		c.markLoopJump()
		return true, nil
	case *ContinueStmt:
		if c.loopDepth == 0 {
			return false, errf(s.Pos, "continue outside a loop")
		}
		c.markLoopJump()
		return true, nil
	default:
		return false, errf(s.StmtPos(), "unknown statement type %T", s)
	}
}

func (c *checker) markLoopJump() {
	if c.loopJumps == nil {
		c.loopJumps = make(map[int]bool)
	}
	c.loopJumps[c.loopDepth] = true
}

// checkDoWhile handles post-test loops. Without break/continue the body
// definitely runs to its end before the condition, so its assignments flow
// through; with them, only a copy is checked (assignments after an early
// exit are not definite).
func (c *checker) checkDoWhile(s *WhileStmt, assigned map[string]bool) error {
	c.loopDepth++
	depth := c.loopDepth
	bodySet := cloneSet(assigned)
	_, err := c.checkStmts(s.Body, bodySet)
	c.loopDepth--
	if err != nil {
		return err
	}
	if !c.loopJumps[depth] {
		for k := range bodySet {
			assigned[k] = true
		}
		return c.checkCond(s.Cond, assigned)
	}
	delete(c.loopJumps, depth)
	return c.checkCond(s.Cond, bodySet)
}

func (c *checker) checkCond(e Expr, assigned map[string]bool) error {
	_, err := c.checkExprOfType(e, TypeScalar, assigned)
	return err
}

func (c *checker) checkExprOfType(e Expr, want Type, assigned map[string]bool) (Type, error) {
	t, err := c.checkExpr(e, assigned)
	if err != nil {
		return t, err
	}
	if t != want {
		return t, errf(e.ExprPos(), "expected %s expression, got %s", want, t)
	}
	return t, nil
}

func (c *checker) checkExpr(e Expr, assigned map[string]bool) (Type, error) {
	t, err := c.exprType(e, assigned)
	if err != nil {
		return t, err
	}
	c.info.Types[e] = t
	return t, nil
}

func (c *checker) exprType(e Expr, assigned map[string]bool) (Type, error) {
	switch e := e.(type) {
	case *Lit:
		return TypeScalar, nil
	case *Ident:
		if !assigned[e.Name] {
			return TypeScalar, errf(e.Pos, "variable %s used before assignment", e.Name)
		}
		return c.varTypes[e.Name], nil
	case *Unary:
		if _, err := c.checkExprOfType(e.X, TypeScalar, assigned); err != nil {
			return TypeScalar, err
		}
		return TypeScalar, nil
	case *Binary:
		if _, err := c.checkExprOfType(e.X, TypeScalar, assigned); err != nil {
			return TypeScalar, err
		}
		if _, err := c.checkExprOfType(e.Y, TypeScalar, assigned); err != nil {
			return TypeScalar, err
		}
		return TypeScalar, nil
	case *Call:
		sig, ok := builtins[e.Fn]
		if !ok {
			return TypeScalar, errf(e.Pos, "unknown function %s", e.Fn)
		}
		if err := callArity(e); err != nil {
			return TypeScalar, err
		}
		for i, a := range e.Args {
			if _, err := c.checkExprOfType(a, sig.args[i], assigned); err != nil {
				return TypeScalar, err
			}
		}
		return sig.result, nil
	case *Method:
		return c.checkMethod(e, assigned)
	case *Lambda:
		return TypeScalar, errf(e.Pos, "lambda is only allowed as an argument of a bag operation")
	case *GoFunc:
		return TypeScalar, errf(e.Pos, "native function is only allowed as an argument of a bag operation")
	case *TupleExpr:
		for _, el := range e.Elems {
			if _, err := c.checkExprOfType(el, TypeScalar, assigned); err != nil {
				return TypeScalar, err
			}
		}
		return TypeScalar, nil
	case *Field:
		if _, err := c.checkExprOfType(e.X, TypeScalar, assigned); err != nil {
			return TypeScalar, err
		}
		return TypeScalar, nil
	default:
		return TypeScalar, errf(e.ExprPos(), "unknown expression type %T", e)
	}
}

func (c *checker) checkMethod(e *Method, assigned map[string]bool) (Type, error) {
	sig, ok := bagMethods[e.Name]
	if !ok {
		return TypeScalar, errf(e.Pos, "unknown bag operation %s", e.Name)
	}
	if _, err := c.checkExprOfType(e.Recv, TypeBag, assigned); err != nil {
		return TypeScalar, err
	}
	switch {
	case sig.bagArg && sig.lambdaArity > 0:
		// deltaMerge(delta, merge): a bag argument followed by a
		// commutative+associative merge function.
		if len(e.Args) != 2 {
			return TypeScalar, errf(e.Pos, "%s expects a bag argument and a function argument", e.Name)
		}
		if _, err := c.checkExprOfType(e.Args[0], TypeBag, assigned); err != nil {
			return TypeScalar, err
		}
		return sig.result, c.checkUDF(e.Args[1], sig.lambdaArity, e.Name)
	case sig.lambdaArity > 0:
		if len(e.Args) != 1 {
			return TypeScalar, errf(e.Pos, "%s expects one function argument", e.Name)
		}
		return sig.result, c.checkUDF(e.Args[0], sig.lambdaArity, e.Name)
	case sig.bagArg:
		if len(e.Args) != 1 {
			return TypeScalar, errf(e.Pos, "%s expects one bag argument", e.Name)
		}
		if _, err := c.checkExprOfType(e.Args[0], TypeBag, assigned); err != nil {
			return TypeScalar, err
		}
		return sig.result, nil
	case sig.scalarArg:
		if len(e.Args) != 1 {
			return TypeScalar, errf(e.Pos, "%s expects one argument", e.Name)
		}
		if _, err := c.checkExprOfType(e.Args[0], TypeScalar, assigned); err != nil {
			return TypeScalar, err
		}
		return sig.result, nil
	default:
		if len(e.Args) != 0 {
			return TypeScalar, errf(e.Pos, "%s expects no arguments", e.Name)
		}
		return sig.result, nil
	}
}

// checkUDF validates a lambda or native function used as a UDF of op.
func (c *checker) checkUDF(arg Expr, arity int, op string) error {
	switch fn := arg.(type) {
	case *Lambda:
		if len(fn.Params) != arity {
			return errf(fn.Pos, "%s function must take %d parameter(s), has %d", op, arity, len(fn.Params))
		}
		seen := make(map[string]bool, arity)
		for _, p := range fn.Params {
			if seen[p] {
				return errf(fn.Pos, "duplicate lambda parameter %s", p)
			}
			seen[p] = true
		}
		// The body is checked in an environment containing only the
		// parameters: UDFs must not capture outer variables.
		env := make(map[string]bool, arity)
		saved := make(map[string]Type, arity)
		hadType := make(map[string]bool, arity)
		for _, p := range fn.Params {
			env[p] = true
			if t, ok := c.varTypes[p]; ok {
				saved[p], hadType[p] = t, true
			}
			c.varTypes[p] = TypeScalar
		}
		_, err := c.checkExprOfType(fn.Body, TypeScalar, env)
		for _, p := range fn.Params {
			if hadType[p] {
				c.varTypes[p] = saved[p]
			} else {
				delete(c.varTypes, p)
			}
		}
		if err != nil {
			if le, ok := err.(*Error); ok {
				return errf(le.Pos, "in %s function: %s (UDFs may reference only their parameters)", op, le.Msg)
			}
			return err
		}
		c.info.Types[fn] = TypeScalar
		return nil
	case *GoFunc:
		if fn.Arity != arity {
			return errf(fn.Pos, "%s function must take %d parameter(s), native %s takes %d", op, arity, fn.Label, fn.Arity)
		}
		c.info.Types[fn] = TypeScalar
		return nil
	default:
		return errf(arg.ExprPos(), "%s expects a function argument", op)
	}
}

func cloneSet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
