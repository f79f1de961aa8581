package bag

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/val"
)

func udf(t *testing.T, arity int, src string) *lang.UDF {
	t.Helper()
	p, err := lang.Parse("x = b." + src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	m := p.Stmts[0].(*lang.AssignStmt).RHS.(*lang.Method)
	u, err := lang.MakeUDF(m.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	if u.Arity() != arity {
		t.Fatalf("arity = %d, want %d", u.Arity(), arity)
	}
	return u
}

func ints(ns ...int64) []val.Value {
	out := make([]val.Value, len(ns))
	for i, n := range ns {
		out[i] = val.Int(n)
	}
	return out
}

func TestMapFlatMapFilter(t *testing.T) {
	in := ints(1, 2, 3)
	got, err := Map(in, udf(t, 1, "map(x => x * 10)"))
	if err != nil || !Equal(got, ints(10, 20, 30)) {
		t.Errorf("map = %v, %v", got, err)
	}
	got, err = FlatMap(in, udf(t, 1, "flatMap(x => (x, -x))"))
	if err != nil || !Equal(got, ints(1, -1, 2, -2, 3, -3)) {
		t.Errorf("flatMap = %v, %v", got, err)
	}
	got, err = Filter(in, udf(t, 1, "filter(x => x % 2 == 1)"))
	if err != nil || !Equal(got, ints(1, 3)) {
		t.Errorf("filter = %v, %v", got, err)
	}
	if _, err = FlatMap(in, udf(t, 1, "map(x => x)")); err == nil || !strings.Contains(err.Error(), "tuple") {
		t.Errorf("flatMap non-tuple error = %v", err)
	}
	if _, err = Filter(in, udf(t, 1, "map(x => x)")); err == nil || !strings.Contains(err.Error(), "bool") {
		t.Errorf("filter non-bool error = %v", err)
	}
}

func TestJoinSemantics(t *testing.T) {
	left := []val.Value{
		val.Pair(val.Str("a"), val.Int(1)),
		val.Pair(val.Str("a"), val.Int(2)),
		val.Pair(val.Str("b"), val.Int(3)),
	}
	right := []val.Value{
		val.Pair(val.Str("a"), val.Int(10)),
		val.Pair(val.Str("c"), val.Int(30)),
	}
	got, err := Join(left, right)
	if err != nil {
		t.Fatal(err)
	}
	want := []val.Value{
		val.Tuple(val.Str("a"), val.Int(1), val.Int(10)),
		val.Tuple(val.Str("a"), val.Int(2), val.Int(10)),
	}
	if !Equal(got, want) {
		t.Errorf("join = %v", Sorted(got))
	}
	if _, err := Join(ints(1), right); err == nil {
		t.Error("join of non-pairs succeeded")
	}
}

func TestReduceByKeyAndReduce(t *testing.T) {
	in := []val.Value{
		val.Pair(val.Str("a"), val.Int(1)),
		val.Pair(val.Str("b"), val.Int(5)),
		val.Pair(val.Str("a"), val.Int(3)),
	}
	got, err := ReduceByKey(in, udf(t, 2, "reduceByKey((p, q) => p + q)"))
	if err != nil {
		t.Fatal(err)
	}
	want := []val.Value{val.Pair(val.Str("a"), val.Int(4)), val.Pair(val.Str("b"), val.Int(5))}
	if !Equal(got, want) {
		t.Errorf("reduceByKey = %v", Sorted(got))
	}
	r, err := Reduce(ints(5, 1, 9), udf(t, 2, "reduce((p, q) => max(p, q))"))
	if err != nil || len(r) != 1 || r[0].AsInt() != 9 {
		t.Errorf("reduce = %v, %v", r, err)
	}
	r, err = Reduce(nil, udf(t, 2, "reduce((p, q) => p)"))
	if err != nil || len(r) != 0 {
		t.Errorf("reduce of empty = %v, %v", r, err)
	}
}

func TestSumCountDistinct(t *testing.T) {
	s, err := Sum(ints(1, 2, 3))
	if err != nil || s[0].AsInt() != 6 {
		t.Errorf("sum = %v, %v", s, err)
	}
	s, err = Sum(nil)
	if err != nil || !s[0].Equal(val.Int(0)) {
		t.Errorf("empty sum = %v, %v", s, err)
	}
	s, err = Sum([]val.Value{val.Int(1), val.Float(0.5)})
	if err != nil || !s[0].Equal(val.Float(1.5)) {
		t.Errorf("mixed sum = %v, %v", s, err)
	}
	if _, err := Sum([]val.Value{val.Str("x")}); err == nil {
		t.Error("sum of string succeeded")
	}
	if c := Count(ints(1, 2)); c[0].AsInt() != 2 {
		t.Errorf("count = %v", c)
	}
	d := Distinct(ints(1, 2, 1, 3, 2))
	if !Equal(d, ints(1, 2, 3)) {
		t.Errorf("distinct = %v", Sorted(d))
	}
}

func TestUnionCrossOnly(t *testing.T) {
	u := Union(ints(1), ints(2, 3))
	if !Equal(u, ints(1, 2, 3)) {
		t.Errorf("union = %v", u)
	}
	c := Cross(ints(1, 2), ints(10))
	want := []val.Value{val.Tuple(val.Int(1), val.Int(10)), val.Tuple(val.Int(2), val.Int(10))}
	if !Equal(c, want) {
		t.Errorf("cross = %v", c)
	}
	if _, err := Only(ints(1, 2)); err == nil {
		t.Error("only on 2 elements succeeded")
	}
	v, err := Only(ints(7))
	if err != nil || v.AsInt() != 7 {
		t.Errorf("only = %v, %v", v, err)
	}
}

func TestCombine(t *testing.T) {
	got, err := Combine([][]val.Value{ints(3), ints(4)}, udf(t, 2, "reduce((p, q) => p * q)"))
	if err != nil || len(got) != 1 || got[0].AsInt() != 12 {
		t.Errorf("combine = %v, %v", got, err)
	}
	if _, err := Combine([][]val.Value{ints(1, 2)}, udf(t, 1, "map(p => p)")); err == nil {
		t.Error("combine with non-singleton succeeded")
	}
	if _, err := Combine([][]val.Value{nil}, udf(t, 1, "map(p => p)")); err == nil {
		t.Error("combine with empty input succeeded")
	}
}

func TestSortedEqualProperties(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := func() bool {
		n := r.Intn(20)
		a := make([]val.Value, n)
		for i := range a {
			a[i] = val.Int(r.Int63n(10))
		}
		// A shuffled copy is Equal; appending an element is not.
		b := append([]val.Value(nil), a...)
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		if !Equal(a, b) {
			return false
		}
		return !Equal(a, append(b, val.Int(99)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestJoinMatchesNestedLoopReference is a property test: the hash join must
// agree with the obvious O(n*m) nested-loop join.
func TestJoinMatchesNestedLoopReference(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	f := func() bool {
		mk := func(n int) []val.Value {
			out := make([]val.Value, n)
			for i := range out {
				out[i] = val.Pair(val.Int(r.Int63n(5)), val.Int(r.Int63n(100)))
			}
			return out
		}
		left, right := mk(r.Intn(15)), mk(r.Intn(15))
		got, err := Join(left, right)
		if err != nil {
			return false
		}
		var want []val.Value
		for _, l := range left {
			for _, x := range right {
				if l.Field(0).Equal(x.Field(0)) {
					want = append(want, val.Tuple(l.Field(0), l.Field(1), x.Field(1)))
				}
			}
		}
		return Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestUDFCallAllocs pins that a bag function applies its UDF in one reused
// frame and carves the tuples it builds from one slab: calling UDF.Call per
// element allocates twice for a scalar body and three times for a tuple
// body, which core's hosts never pay.
func TestUDFCallAllocs(t *testing.T) {
	const n = 1000
	xs := make([]val.Value, n)
	sums := make([]val.Value, n)   // (key, x) over 16 keys
	counts := make([]val.Value, n) // (key, (x, 1)) over 16 keys
	for i := range xs {
		x, k := val.Int(int64(i)), val.Int(int64(i%16))
		xs[i] = x
		sums[i] = val.Pair(k, x)
		counts[i] = val.Pair(k, val.Pair(x, val.Int(1)))
	}
	mapXs := func(f *lang.UDF) ([]val.Value, error) { return Map(xs, f) }
	filterXs := func(f *lang.UDF) ([]val.Value, error) { return Filter(xs, f) }
	for _, c := range []struct {
		name string
		f    *lang.UDF
		run  func(f *lang.UDF) ([]val.Value, error)
	}{
		{"map scalar", udf(t, 1, "map(x => x + 1)"), mapXs},
		{"map tuple", udf(t, 1, "map(x => (x, 1))"), mapXs},
		{"filter scalar", udf(t, 1, "filter(x => x % 2 == 0)"), filterXs},
		{"filter tuple", udf(t, 1, "filter(x => fst((x, 1)) == x)"), filterXs},
		{"reduceByKey scalar", udf(t, 2, "reduceByKey((a, b) => a + b)"),
			func(f *lang.UDF) ([]val.Value, error) { return ReduceByKey(sums, f) }},
		{"reduceByKey tuple", udf(t, 2, "reduceByKey((a, b) => (a.0 + b.0, a.1 + b.1))"),
			func(f *lang.UDF) ([]val.Value, error) { return ReduceByKey(counts, f) }},
	} {
		if _, err := c.run(c.f); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		per := testing.AllocsPerRun(20, func() { c.run(c.f) }) / n
		if per > 0.05 {
			t.Errorf("%s: %.3f allocations per element, want at most 0.05", c.name, per)
		} else {
			t.Logf("%s: %.3f allocations per element", c.name, per)
		}
	}
}
