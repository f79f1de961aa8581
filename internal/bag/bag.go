// Package bag implements whole-bag semantics for every Mitos operation.
// A bag is an unordered multiset of values, represented as a slice whose
// order carries no meaning.
//
// These functions are the executable specification of the operations: the
// reference interpreters (internal/ir) call them directly, and the streaming
// distributed operators (internal/core) are differentially tested against them.
package bag

import (
	"fmt"

	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/val"
)

// Map applies f to every element.
func Map(in []val.Value, f *lang.UDF) ([]val.Value, error) {
	out := make([]val.Value, 0, len(in))
	for _, x := range in {
		y, err := f.Call(x)
		if err != nil {
			return nil, err
		}
		out = append(out, y)
	}
	return out, nil
}

// FlatMap applies f to every element; f must return a tuple, whose fields
// are emitted as individual output elements.
func FlatMap(in []val.Value, f *lang.UDF) ([]val.Value, error) {
	var out []val.Value
	for _, x := range in {
		y, err := f.Call(x)
		if err != nil {
			return nil, err
		}
		if y.Kind() != val.KindTuple {
			return nil, fmt.Errorf("bag: flatMap function returned %s, want tuple", y.Kind())
		}
		out = append(out, y.Fields()...)
	}
	return out, nil
}

// Filter keeps elements for which p returns true.
func Filter(in []val.Value, p *lang.UDF) ([]val.Value, error) {
	var out []val.Value
	for _, x := range in {
		keep, err := p.Call(x)
		if err != nil {
			return nil, err
		}
		if keep.Kind() != val.KindBool {
			return nil, fmt.Errorf("bag: filter predicate returned %s, want bool", keep.Kind())
		}
		if keep.AsBool() {
			out = append(out, x)
		}
	}
	return out, nil
}

// pairParts splits a (key, value) pair element, erroring otherwise.
func pairParts(x val.Value, op string) (k, v val.Value, err error) {
	k, v, ok := x.AsPair()
	if !ok {
		return val.Value{}, val.Value{}, fmt.Errorf("bag: %s requires (key, value) pairs, got %s", op, x)
	}
	return k, v, nil
}

// Join performs an inner equi-join of two bags of (key, value) pairs,
// producing (key, leftValue, rightValue) triples — one per matching pair
// combination. The left side is the hash build side.
func Join(left, right []val.Value) ([]val.Value, error) {
	build := val.NewMap[[]val.Value](len(left))
	for _, x := range left {
		k, v, err := pairParts(x, "join")
		if err != nil {
			return nil, err
		}
		build.Update(k, func(old []val.Value, _ bool) []val.Value { return append(old, v) })
	}
	var out []val.Value
	for _, x := range right {
		k, v, err := pairParts(x, "join")
		if err != nil {
			return nil, err
		}
		if matches, ok := build.Get(k); ok {
			for _, lv := range matches {
				out = append(out, val.Tuple(k, lv, v))
			}
		}
	}
	return out, nil
}

// ReduceByKey groups (key, value) pairs by key and folds each group's
// values with f, producing one (key, folded) pair per distinct key.
// f must be associative and commutative for distributed execution to agree
// with this specification.
func ReduceByKey(in []val.Value, f *lang.UDF) ([]val.Value, error) {
	groups := val.NewMap[val.Value](0)
	if err := foldByKey(groups, in, f, "reduceByKey"); err != nil {
		return nil, err
	}
	return pairs(groups), nil
}

// foldByKey folds each (key, value) pair of in into groups: a key's first
// value is stored, every later one folded into the stored value with f.
func foldByKey(groups *val.Map[val.Value], in []val.Value, f *lang.UDF, op string) error {
	for _, x := range in {
		k, v, err := pairParts(x, op)
		if err != nil {
			return err
		}
		if old, ok := groups.Get(k); ok {
			if v, err = f.Call(old, v); err != nil {
				return err
			}
		}
		groups.Put(k, v)
	}
	return nil
}

// pairs returns a table as (key, value) pairs, in first-insert key order.
func pairs(m *val.Map[val.Value]) []val.Value {
	out := make([]val.Value, 0, m.Len())
	m.Range(func(k, v val.Value) bool {
		out = append(out, val.Pair(k, v))
		return true
	})
	return out
}

// Reduce folds all elements with f into a singleton bag. The empty bag
// reduces to the empty bag.
func Reduce(in []val.Value, f *lang.UDF) ([]val.Value, error) {
	if len(in) == 0 {
		return nil, nil
	}
	acc := in[0]
	for _, x := range in[1:] {
		var err error
		acc, err = f.Call(acc, x)
		if err != nil {
			return nil, err
		}
	}
	return []val.Value{acc}, nil
}

// Sum adds all numeric elements into a singleton. The empty bag sums to
// Int(0). The result is Float if any element is a float, else Int.
func Sum(in []val.Value) ([]val.Value, error) {
	var i int64
	var fl float64
	isFloat := false
	for _, x := range in {
		switch x.Kind() {
		case val.KindInt:
			i += x.AsInt()
		case val.KindFloat:
			isFloat = true
			fl += x.AsFloat()
		default:
			return nil, fmt.Errorf("bag: sum of %s element", x.Kind())
		}
	}
	if isFloat {
		return []val.Value{val.Float(fl + float64(i))}, nil
	}
	return []val.Value{val.Int(i)}, nil
}

// Count counts elements into a singleton.
func Count(in []val.Value) []val.Value {
	return []val.Value{val.Int(int64(len(in)))}
}

// Distinct removes duplicate elements (by structural equality). The first
// occurrence of each element is kept.
func Distinct(in []val.Value) []val.Value {
	seen := val.NewMap[struct{}](len(in))
	out := make([]val.Value, 0, len(in))
	for _, x := range in {
		if _, ok := seen.Get(x); !ok {
			seen.Put(x, struct{}{})
			out = append(out, x)
		}
	}
	return out
}

// Union is multiset union: the concatenation of a and b.
func Union(a, b []val.Value) []val.Value {
	out := make([]val.Value, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// Cross is the cartesian product, as (left, right) pairs.
func Cross(a, b []val.Value) []val.Value {
	out := make([]val.Value, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			out = append(out, val.Tuple(x, y))
		}
	}
	return out
}

// Combine consumes the single element of each input bag and applies f,
// producing a singleton. Every input must hold exactly one element: inputs
// are the wrapped scalar variables of the source program.
func Combine(inputs [][]val.Value, f *lang.UDF) ([]val.Value, error) {
	args := make([]val.Value, len(inputs))
	for i, in := range inputs {
		if len(in) != 1 {
			return nil, fmt.Errorf("bag: combine input %d holds %d elements, want exactly 1 (scalar variable used with a non-singleton bag?)", i, len(in))
		}
		args[i] = in[0]
	}
	y, err := f.Call(args...)
	if err != nil {
		return nil, err
	}
	return []val.Value{y}, nil
}

// Only returns the single element of a singleton bag.
func Only(in []val.Value) (val.Value, error) {
	if len(in) != 1 {
		return val.Value{}, fmt.Errorf("bag: only() on a bag with %d elements", len(in))
	}
	return in[0], nil
}
