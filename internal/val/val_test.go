package val

import (
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"testing"
	"testing/quick"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if got := Int(42).AsInt(); got != 42 {
		t.Errorf("Int(42).AsInt() = %d", got)
	}
	if got := Float(2.5).AsFloat(); got != 2.5 {
		t.Errorf("Float(2.5).AsFloat() = %g", got)
	}
	if got := Str("abc").AsStr(); got != "abc" {
		t.Errorf(`Str("abc").AsStr() = %q`, got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool roundtrip failed")
	}
	tup := Tuple(Int(1), Str("x"))
	if tup.Len() != 2 || tup.Field(0).AsInt() != 1 || tup.Field(1).AsStr() != "x" {
		t.Errorf("Tuple accessors broken: %v", tup)
	}
}

func TestKinds(t *testing.T) {
	cases := []struct {
		v Value
		k Kind
	}{
		{Int(0), KindInt},
		{Float(0), KindFloat},
		{Str(""), KindString},
		{Bool(false), KindBool},
		{Tuple(), KindTuple},
		{Value{}, KindInvalid},
	}
	for _, c := range cases {
		if c.v.Kind() != c.k {
			t.Errorf("Kind() of %v = %v, want %v", c.v, c.v.Kind(), c.k)
		}
	}
	if (Value{}).IsValid() {
		t.Error("zero Value reports valid")
	}
	if !Int(1).IsValid() {
		t.Error("Int(1) reports invalid")
	}
}

func TestAsNumber(t *testing.T) {
	if Int(3).AsNumber() != 3 {
		t.Error("Int AsNumber")
	}
	if Float(1.5).AsNumber() != 1.5 {
		t.Error("Float AsNumber")
	}
	defer func() {
		if recover() == nil {
			t.Error("AsNumber on string did not panic")
		}
	}()
	_ = Str("x").AsNumber()
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AsInt on string did not panic")
		}
	}()
	_ = Str("no").AsInt()
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		eq   bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1), false}, // kinds differ
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Tuple(Int(1), Str("a")), Tuple(Int(1), Str("a")), true},
		{Tuple(Int(1)), Tuple(Int(1), Int(2)), false},
		{Tuple(Tuple(Int(1))), Tuple(Tuple(Int(1))), true},
		{Value{}, Value{}, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.eq {
			t.Errorf("%v.Equal(%v) = %t, want %t", c.a, c.b, got, c.eq)
		}
		if got := c.b.Equal(c.a); got != c.eq {
			t.Errorf("Equal not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestCompareTotalOrderOnSamples(t *testing.T) {
	vs := []Value{
		Value{},
		Int(-5), Int(0), Int(7),
		Float(math.Inf(-1)), Float(-1), Float(0), Float(2.5), Float(math.Inf(1)), Float(math.NaN()),
		Str(""), Str("a"), Str("ab"), Str("b"),
		Bool(false), Bool(true),
		Tuple(), Tuple(Int(1)), Tuple(Int(1), Int(2)), Tuple(Int(2)),
	}
	for _, a := range vs {
		for _, b := range vs {
			ab, ba := a.Compare(b), b.Compare(a)
			if ab != -ba {
				t.Errorf("Compare not antisymmetric: %v vs %v: %d, %d", a, b, ab, ba)
			}
			if a.Equal(b) != (ab == 0 && a.Kind() == b.Kind()) && a.Kind() == b.Kind() {
				// Equal and Compare==0 must agree for same-kind values.
				if a.Equal(b) != (ab == 0) {
					t.Errorf("Equal/Compare disagree: %v vs %v", a, b)
				}
			}
		}
	}
	// Transitivity via sort: sorting must not panic and must be stable
	// under re-sorting.
	rnd := rand.New(rand.NewSource(1))
	shuffled := append([]Value(nil), vs...)
	rnd.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sort.Slice(shuffled, func(i, j int) bool { return shuffled[i].Compare(shuffled[j]) < 0 })
	for i := 1; i < len(shuffled); i++ {
		if shuffled[i-1].Compare(shuffled[i]) > 0 {
			t.Fatalf("sorted order violated at %d: %v > %v", i, shuffled[i-1], shuffled[i])
		}
	}
}

func TestCompareNaN(t *testing.T) {
	nan := Float(math.NaN())
	if nan.Compare(nan) != 0 {
		t.Error("NaN must compare equal to itself for total order")
	}
	if nan.Compare(Float(math.Inf(1))) != 1 {
		t.Error("NaN must be greatest float")
	}
}

func TestHashEqualValuesHashEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(5), Int(5)},
		{Str("hello"), Str("hello")},
		{Tuple(Int(1), Str("a")), Tuple(Int(1), Str("a"))},
		{Float(1.25), Float(1.25)},
	}
	for _, p := range pairs {
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values hash differently: %v", p[0])
		}
	}
}

func TestHashDistinguishesKinds(t *testing.T) {
	// Not a strict requirement of hashing, but these must be distinct for
	// the partitioner to behave sensibly on common data.
	a, b := Int(1).Hash(), Str("\x01").Hash()
	if a == b {
		t.Error("Int(1) and Str(\\x01) collide")
	}
	if Tuple(Int(1), Int(2)).Hash() == Tuple(Int(2), Int(1)).Hash() {
		t.Error("tuple hash ignores field order")
	}
}

func TestKey(t *testing.T) {
	if got := Pair(Str("k"), Int(1)).Key(); !got.Equal(Str("k")) {
		t.Errorf("Key of pair = %v", got)
	}
	if got := Int(9).Key(); !got.Equal(Int(9)) {
		t.Errorf("Key of scalar = %v", got)
	}
	if got := Tuple().Key(); !got.Equal(Tuple()) {
		t.Errorf("Key of empty tuple = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{Str("a\"b"), `"a\"b"`},
		{Bool(true), "true"},
		{Tuple(Int(1), Str("x"), Tuple()), `(1, "x", ())`},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindTuple.String() != "tuple" || KindInvalid.String() != "invalid" {
		t.Error("Kind.String broken")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown Kind.String broken")
	}
}

// randomValue builds an arbitrary Value with bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(5)
	if depth <= 0 && k == 4 {
		k = r.Intn(4)
	}
	switch k {
	case 0:
		return Int(r.Int63() - r.Int63())
	case 1:
		return Float(r.NormFloat64())
	case 2:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return Str(string(b))
	case 3:
		return Bool(r.Intn(2) == 0)
	default:
		n := r.Intn(4)
		fields := make([]Value, n)
		for i := range fields {
			fields[i] = randomValue(r, depth-1)
		}
		return Tuple(fields...)
	}
}

func TestQuickCodecRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		v := randomValue(r, 3)
		enc := AppendBinary(nil, v)
		got, n, err := DecodeBinary(enc)
		if err != nil || n != len(enc) {
			t.Logf("decode err=%v n=%d len=%d", err, n, len(enc))
			return false
		}
		if len(enc) != EncodedSize(v) {
			t.Logf("EncodedSize mismatch for %v: %d vs %d", v, EncodedSize(v), len(enc))
			return false
		}
		return got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickHashEqualConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := func() bool {
		v := randomValue(r, 3)
		// Re-decode to get a structurally equal but freshly built value.
		enc := AppendBinary(nil, v)
		w, _, err := DecodeBinary(enc)
		if err != nil {
			return false
		}
		return v.Hash() == w.Hash() && v.Compare(w) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func() bool {
		a, b := randomValue(r, 2), randomValue(r, 2)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{byte(KindFloat), 1, 2},             // truncated float
		{byte(KindString), 5, 'a'},          // truncated string
		{byte(KindBool)},                    // truncated bool
		{byte(KindTuple), 3, byte(KindInt)}, // truncated tuple
		{99},                                // unknown tag
		{byte(KindString), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // bad uvarint
	}
	for i, c := range cases {
		if _, _, err := DecodeBinary(c); err == nil {
			t.Errorf("case %d: expected error for % x", i, c)
		}
	}
}

func TestDecodeConcatenatedStream(t *testing.T) {
	vals := []Value{Int(1), Str("two"), Tuple(Int(3), Bool(false))}
	var buf []byte
	for _, v := range vals {
		buf = AppendBinary(buf, v)
	}
	for _, want := range vals {
		got, n, err := DecodeBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func BenchmarkHashPair(b *testing.B) {
	v := Pair(Str("page-123456"), Int(1))
	for i := 0; i < b.N; i++ {
		_ = v.Hash()
	}
}

func BenchmarkCodecRoundtrip(b *testing.B) {
	v := Tuple(Str("page-123456"), Int(42), Float(3.14))
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = AppendBinary(buf[:0], v)
		if _, _, err := DecodeBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScratchCycleAllocFree: a GetScratch/PutScratch cycle — one per remote
// batch on either transport — allocates nothing once the pool is warm: the
// boxes that carry buffers through the pool are recycled too.
func TestScratchCycleAllocFree(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := testing.AllocsPerRun(100, func() {
		b := GetScratch()
		b = AppendBinary(b, Int(7))
		PutScratch(b)
	})
	if allocs != 0 {
		t.Errorf("GetScratch/PutScratch cycle allocated %v times, want 0", allocs)
	}
}

// raceBuild reports whether the test binary runs under the race detector,
// whose sync.Pool drops a share of Puts at random: an allocation count
// there measures the detector, not the code.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
