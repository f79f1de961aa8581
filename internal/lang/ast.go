package lang

import (
	"github.com/mitos-project/mitos/internal/val"
)

// Program is a parsed (or programmatically built) imperative program.
type Program struct {
	Stmts []Stmt
}

// Stmt is an imperative statement.
type Stmt interface {
	stmtNode()
	// StmtPos returns the statement's source position (zero for built ASTs).
	StmtPos() Pos
}

// AssignStmt assigns the value of RHS to the variable Name. Variables may be
// assigned more than once; SSA conversion in internal/ir introduces the
// versioning.
type AssignStmt struct {
	Pos  Pos
	Name string
	RHS  Expr
}

// IfStmt is an if/else statement. Else may be empty.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// WhileStmt is a pre-test loop (while) or post-test loop (do..while) when
// PostTest is set.
type WhileStmt struct {
	Pos      Pos
	Cond     Expr
	Body     []Stmt
	PostTest bool
}

// ForStmt is counted-loop sugar: `for v = from to to { body }` iterates v
// over the inclusive range. It desugars to assignments and a while loop
// during lowering.
type ForStmt struct {
	Pos      Pos
	Var      string
	From, To Expr
	Body     []Stmt
}

// ExprStmt evaluates an expression for its effect; the only effectful
// expressions are writeFile calls.
type ExprStmt struct {
	Pos Pos
	X   Expr
}

// BreakStmt exits the innermost enclosing loop. It must be the last
// statement of its block.
type BreakStmt struct {
	Pos Pos
}

// ContinueStmt jumps to the next iteration test of the innermost enclosing
// loop. It must be the last statement of its block.
type ContinueStmt struct {
	Pos Pos
}

func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*ExprStmt) stmtNode()     {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// StmtPos returns the statement's source position.
func (s *AssignStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *IfStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *WhileStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *ForStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *ExprStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *BreakStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's source position.
func (s *ContinueStmt) StmtPos() Pos { return s.Pos }

// Expr is an expression. Expressions are either scalar-typed or bag-typed;
// the Check pass infers which (see Type).
type Expr interface {
	exprNode()
	// ExprPos returns the expression's source position (zero for built ASTs).
	ExprPos() Pos
}

// Lit is a literal scalar value.
type Lit struct {
	Pos Pos
	V   val.Value
}

// Ident references a variable.
type Ident struct {
	Pos  Pos
	Name string
}

// Unary is a unary operation: TokMinus (negation) or TokNot.
type Unary struct {
	Pos Pos
	Op  TokKind
	X   Expr
}

// Binary is a binary operation over scalars.
type Binary struct {
	Pos  Pos
	Op   TokKind
	X, Y Expr
}

// Call invokes a top-level builtin: readFile, newBag, empty, only, abs, str,
// num, min, max, fst, snd.
type Call struct {
	Pos  Pos
	Fn   string
	Args []Expr
}

// Method invokes a bag operation on Recv: map, flatMap, filter, join,
// reduceByKey, reduce, sum, count, distinct, union, cross, writeFile.
type Method struct {
	Pos  Pos
	Recv Expr
	Name string
	Args []Expr
}

// Lambda is an anonymous function used as a UDF argument of bag operations.
// Its body may reference only its own parameters (enforced by Check): in the
// dataflow model all other data must arrive through bag edges.
type Lambda struct {
	Pos    Pos
	Params []string
	Body   Expr
}

// TupleExpr constructs a tuple value, e.g. `(x, 1)`.
type TupleExpr struct {
	Pos   Pos
	Elems []Expr
}

// Field selects tuple field Index of X, written `x.0`, `x.1`, ...
type Field struct {
	Pos   Pos
	X     Expr
	Index int
}

// GoFunc is a native Go UDF, available only through the builder API (it has
// no script syntax). Label is used for printing and debugging. Fn receives
// the lambda arguments and returns the result; callers may reuse the args
// slice between calls, so Fn must not retain it (the Values in it are fine).
type GoFunc struct {
	Pos   Pos
	Label string
	Arity int
	Fn    func(args []val.Value) val.Value
}

func (*Lit) exprNode()       {}
func (*Ident) exprNode()     {}
func (*Unary) exprNode()     {}
func (*Binary) exprNode()    {}
func (*Call) exprNode()      {}
func (*Method) exprNode()    {}
func (*Lambda) exprNode()    {}
func (*TupleExpr) exprNode() {}
func (*Field) exprNode()     {}
func (*GoFunc) exprNode()    {}

// ExprPos returns the expression's source position.
func (e *Lit) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Ident) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Unary) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Binary) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Call) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Method) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Lambda) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *TupleExpr) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *Field) ExprPos() Pos { return e.Pos }

// ExprPos returns the expression's source position.
func (e *GoFunc) ExprPos() Pos { return e.Pos }
