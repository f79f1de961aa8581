package mitos

import (
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/val"
)

// This file is the programmatic front end: a fluent builder producing the
// same AST the script parser does. Use it when embedding Mitos in a Go
// application; use Compile with script text otherwise.

// Builder accumulates the statements of a program or block.
type Builder = lang.Builder

// Expr is an expression of the Mitos language.
type Expr = lang.Expr

// NewBuilder returns an empty program builder. Finish with Build.
func NewBuilder() *Builder { return lang.NewBuilder() }

// Build compiles the builder's program.
func Build(b *Builder) (*Program, error) { return CompileAST(b.Program()) }

// Value is a dynamically typed element value (int, float, string, bool, or
// tuple).
type Value = val.Value

// Int returns an integer Value.
func Int(i int64) Value { return val.Int(i) }

// Float returns a floating-point Value.
func Float(f float64) Value { return val.Float(f) }

// Str returns a string Value.
func Str(s string) Value { return val.Str(s) }

// Bool returns a boolean Value.
func Bool(b bool) Value { return val.Bool(b) }

// Tuple returns a tuple Value.
func Tuple(fields ...Value) Value { return val.Tuple(fields...) }

// Pair returns a (key, value) tuple, the shape consumed by join and
// reduceByKey.
func Pair(k, v Value) Value { return val.Pair(k, v) }

// Expression constructors (see the lang package for the full set).

// Var references a program variable.
func Var(name string) Expr { return lang.Var(name) }

// IntLit returns an integer literal.
func IntLit(i int64) Expr { return lang.IntLit(i) }

// FloatLit returns a float literal.
func FloatLit(f float64) Expr { return lang.FloatLit(f) }

// StrLit returns a string literal.
func StrLit(s string) Expr { return lang.StrLit(s) }

// BoolLit returns a boolean literal.
func BoolLit(b bool) Expr { return lang.BoolLit(b) }

// Add returns x + y (numbers) or concatenation (strings).
func Add(x, y Expr) Expr { return lang.Add(x, y) }

// Sub returns x - y.
func Sub(x, y Expr) Expr { return lang.Sub(x, y) }

// Mul returns x * y.
func Mul(x, y Expr) Expr { return lang.Mul(x, y) }

// Div returns x / y.
func Div(x, y Expr) Expr { return lang.Div(x, y) }

// Eq returns x == y.
func Eq(x, y Expr) Expr { return lang.Eq(x, y) }

// Neq returns x != y.
func Neq(x, y Expr) Expr { return lang.Neq(x, y) }

// Lt returns x < y.
func Lt(x, y Expr) Expr { return lang.Lt(x, y) }

// Leq returns x <= y.
func Leq(x, y Expr) Expr { return lang.Leq(x, y) }

// Gt returns x > y.
func Gt(x, y Expr) Expr { return lang.Gt(x, y) }

// Geq returns x >= y.
func Geq(x, y Expr) Expr { return lang.Geq(x, y) }

// ReadFile returns readFile(name).
func ReadFile(name Expr) Expr { return lang.ReadFile(name) }

// NewBag returns newBag(x), a one-element bag.
func NewBag(x Expr) Expr { return lang.NewBag(x) }

// EmptyBag returns empty().
func EmptyBag() Expr { return lang.EmptyBag() }

// Only returns only(b): the single element of a singleton bag as a scalar.
func Only(b Expr) Expr { return lang.Only(b) }

// TupleOf returns the tuple expression (elems...).
func TupleOf(elems ...Expr) Expr { return lang.TupleOf(elems...) }

// FieldOf returns x.index.
func FieldOf(x Expr, index int) Expr { return lang.FieldOf(x, index) }

// Fn1 returns a one-parameter lambda.
func Fn1(param string, body Expr) Expr { return lang.Fn1(param, body) }

// Fn2 returns a two-parameter lambda.
func Fn2(p1, p2 string, body Expr) Expr { return lang.Fn2(p1, p2, body) }

// Native returns a native Go UDF usable wherever a lambda is. The engine
// reuses the args slice between calls: fn may keep the Values in it but not
// the slice itself (a tuple built over args... would alias it; copy first).
func Native(label string, arity int, fn func(args []Value) Value) Expr {
	return lang.Native(label, arity, fn)
}

// MapBag returns recv.map(f).
func MapBag(recv, f Expr) Expr { return lang.MapBag(recv, f) }

// FlatMapBag returns recv.flatMap(f).
func FlatMapBag(recv, f Expr) Expr { return lang.FlatMapBag(recv, f) }

// FilterBag returns recv.filter(p).
func FilterBag(recv, p Expr) Expr { return lang.FilterBag(recv, p) }

// JoinBags returns a.join(b).
func JoinBags(a, b Expr) Expr { return lang.JoinBags(a, b) }

// ReduceByKey returns recv.reduceByKey(f).
func ReduceByKey(recv, f Expr) Expr { return lang.ReduceByKey(recv, f) }

// ReduceBag returns recv.reduce(f).
func ReduceBag(recv, f Expr) Expr { return lang.ReduceBag(recv, f) }

// SumBag returns recv.sum().
func SumBag(recv Expr) Expr { return lang.SumBag(recv) }

// CountBag returns recv.count().
func CountBag(recv Expr) Expr { return lang.CountBag(recv) }

// DistinctBag returns recv.distinct().
func DistinctBag(recv Expr) Expr { return lang.DistinctBag(recv) }

// UnionBags returns a.union(b).
func UnionBags(a, b Expr) Expr { return lang.UnionBags(a, b) }

// CrossBags returns a.cross(b).
func CrossBags(a, b Expr) Expr { return lang.CrossBags(a, b) }

// DeltaMergeBags returns seed.deltaMerge(delta, f): the workset-iteration
// operator, merging delta into an indexed solution set by key with the
// commutative+associative f and emitting the changed pairs.
func DeltaMergeBags(seed, delta, f Expr) Expr { return lang.DeltaMergeBags(seed, delta, f) }

// SolutionBag returns recv.solution(): the full solution set held by the
// deltaMerge that produced recv.
func SolutionBag(recv Expr) Expr { return lang.SolutionBag(recv) }

// Cond returns the eager ternary cond(c, a, b).
func Cond(c, a, b Expr) Expr { return lang.Cond(c, a, b) }
