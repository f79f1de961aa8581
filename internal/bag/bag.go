// Package bag implements whole-bag semantics for every Mitos operation.
// A bag is an unordered multiset of values, represented as a slice whose
// order carries no meaning.
//
// These functions are the executable specification of the operations: the
// reference interpreters (internal/ir) call them directly, the Spark and
// Flink baselines (internal/baseline) call them once per partition, and the
// streaming distributed operators (internal/core) are differentially tested
// against them.
package bag

import (
	"fmt"

	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/val"
)

// caller applies one UDF call after call in one frame, the way core's
// operator host does: UDF.Call heap-allocates its variadic slice and a frame
// for every element, and gives a tuple-building body nowhere to carve from.
// A bag function makes one caller per call; what its slab carves is the
// function's output, and belongs to the collector.
type caller struct {
	f     *lang.UDF
	frame lang.Frame
	args  [2]val.Value
	slab  val.Slab
}

func newCaller(f *lang.UDF) *caller {
	c := &caller{f: f}
	c.frame.Slab = &c.slab
	return c
}

// call and call2 store their arguments one by one: a copy into the array
// would be a bulk write barrier per call while the collector runs.
func (c *caller) call(x val.Value) (val.Value, error) {
	c.args[0] = x
	c.frame.Args = c.args[:1]
	return c.f.Apply(&c.frame)
}

func (c *caller) call2(a, b val.Value) (val.Value, error) {
	c.args[0], c.args[1] = a, b
	c.frame.Args = c.args[:2]
	return c.f.Apply(&c.frame)
}

// Map applies f to every element.
func Map(in []val.Value, f *lang.UDF) ([]val.Value, error) {
	c := newCaller(f)
	out := make([]val.Value, 0, len(in))
	for _, x := range in {
		y, err := c.call(x)
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
	c := newCaller(f)
	var out []val.Value
	for _, x := range in {
		y, err := c.call(x)
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
	c := newCaller(p)
	var out []val.Value
	for _, x := range in {
		keep, err := c.call(x)
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
	c := newCaller(f)
	groups := val.NewMap[val.Value](0)
	if err := foldByKey(groups, in, c, "reduceByKey"); err != nil {
		return nil, err
	}
	return pairs(groups), nil
}

// foldByKey folds each (key, value) pair of in into groups: a key's first
// value is stored, every later one folded into the stored value with c.
func foldByKey(groups *val.Map[val.Value], in []val.Value, c *caller, op string) error {
	for _, x := range in {
		k, v, err := pairParts(x, op)
		if err != nil {
			return err
		}
		groups.Update(k, func(old val.Value, present bool) val.Value {
			if present {
				v, err = c.call2(old, v)
			}
			return v
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// pairs returns a table as (key, value) pairs, in first-insert key order.
// They are allocated one by one, not carved: a baseline partition holds a
// few keys, and a slab chunk per call would pin 6 KB for them.
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
	c := newCaller(f)
	acc := in[0]
	for _, x := range in[1:] {
		var err error
		acc, err = c.call2(acc, x)
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
	y, err := f.Apply(&lang.Frame{Args: args})
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
