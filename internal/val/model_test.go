package val

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// model is a Value spelled in plain Go — one field per kind, a Go string, a Go
// slice — with the package's algorithms written over it a second time. The
// packed layout (a length in num, one unsafe pointer) is checked against it.
type model struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
	t    []model
}

func (m model) build(tuple func(...Value) Value) Value {
	switch m.kind {
	case KindInt:
		return Int(m.i)
	case KindFloat:
		return Float(m.f)
	case KindString:
		return Str(m.s)
	case KindBool:
		return Bool(m.b)
	case KindTuple:
		fields := make([]Value, len(m.t))
		for i, f := range m.t {
			fields[i] = f.build(tuple)
		}
		return tuple(fields...)
	}
	return Value{}
}

func (m model) bits() uint64 {
	switch m.kind {
	case KindInt:
		return uint64(m.i)
	case KindFloat:
		return math.Float64bits(m.f)
	case KindBool:
		if m.b {
			return 1
		}
	}
	return 0
}

func (m model) equal(o model) bool {
	if m.kind != o.kind {
		return false
	}
	switch m.kind {
	case KindString:
		return m.s == o.s
	case KindTuple:
		if len(m.t) != len(o.t) {
			return false
		}
		for i := range m.t {
			if !m.t[i].equal(o.t[i]) {
				return false
			}
		}
		return true
	}
	return m.bits() == o.bits() // floats by bits: NaN equals itself, 0 differs from -0
}

func (m model) compare(o model) int {
	if m.kind != o.kind {
		return cmp.Compare(uint64(m.kind), uint64(o.kind))
	}
	switch m.kind {
	case KindInt:
		return cmp.Compare(m.i, o.i)
	case KindBool:
		return cmp.Compare(m.bits(), o.bits())
	case KindFloat:
		switch mn, on := math.IsNaN(m.f), math.IsNaN(o.f); {
		case mn && on:
			return 0
		case mn:
			return 1 // NaN is greatest
		case on:
			return -1
		}
		return cmp.Compare(m.f, o.f)
	case KindString:
		return strings.Compare(m.s, o.s)
	case KindTuple:
		for i := 0; i < len(m.t) && i < len(o.t); i++ {
			if c := m.t[i].compare(o.t[i]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(m.t), len(o.t))
	}
	return 0
}

func (m model) hash(h uint64) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(m.kind)) * prime
	switch m.kind {
	case KindInt, KindBool, KindFloat:
		var le [8]byte
		binary.LittleEndian.PutUint64(le[:], m.bits())
		for _, b := range le {
			h = (h ^ uint64(b)) * prime
		}
	case KindString:
		for _, b := range []byte(m.s) {
			h = (h ^ uint64(b)) * prime
		}
	case KindTuple:
		for _, f := range m.t {
			h = f.hash(h)
		}
	}
	return h
}

func (m model) String() string {
	switch m.kind {
	case KindInt:
		return strconv.FormatInt(m.i, 10)
	case KindFloat:
		return strconv.FormatFloat(m.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(m.s)
	case KindBool:
		return strconv.FormatBool(m.b)
	case KindTuple:
		parts := make([]string, len(m.t))
		for i, f := range m.t {
			parts[i] = f.String()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	return "<invalid>"
}

func (m model) encode(dst []byte) []byte {
	dst = append(dst, byte(m.kind))
	switch m.kind {
	case KindInt:
		dst = binary.AppendVarint(dst, m.i)
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.f))
	case KindString:
		dst = append(binary.AppendUvarint(dst, uint64(len(m.s))), m.s...)
	case KindBool:
		dst = append(dst, byte(m.bits()))
	case KindTuple:
		dst = binary.AppendUvarint(dst, uint64(len(m.t)))
		for _, f := range m.t {
			dst = f.encode(dst)
		}
	}
	return dst
}

// randomModel draws from the corners the layout has to get right: the empty
// string and the empty tuple (nil pointer, length 0), the zero Value, NaN and
// both zeros, strings that share bytes but not addresses, nesting up to depth.
func randomModel(r *rand.Rand, depth int) model {
	k := r.Intn(7)
	if depth == 0 && k == 5 {
		k = 0
	}
	switch k {
	case 0:
		return model{kind: KindInt, i: []int64{0, 1, -1, math.MaxInt64, math.MinInt64, r.Int63() - r.Int63()}[r.Intn(6)]}
	case 1:
		return model{kind: KindFloat, f: []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), r.NormFloat64()}[r.Intn(5)]}
	case 2, 3:
		// A fresh copy every time: equal strings at different addresses.
		s := []string{"", "a", "page0042", "héllo, wörld", strings.Repeat("x", r.Intn(600))}[r.Intn(5)]
		return model{kind: KindString, s: string(append([]byte(nil), s...))}
	case 4:
		return model{kind: KindBool, b: r.Intn(2) == 0}
	case 5:
		t := make([]model, r.Intn(4))
		if r.Intn(20) == 0 {
			t = make([]model, 70) // wider than a quarter chunk: allocated on its own
		}
		for i := range t {
			t[i] = randomModel(r, depth-1)
		}
		return model{kind: KindTuple, t: t}
	}
	return model{}
}

// checkAgainstModel compares every observable of v with m's.
func checkAgainstModel(t *testing.T, how string, v Value, m model) {
	t.Helper()
	if v.Kind() != m.kind || v.IsValid() != (m.kind != KindInvalid) {
		t.Fatalf("%s %s: kind %s, want %s", how, m, v.Kind(), m.kind)
	}
	switch m.kind {
	case KindInt:
		if v.AsInt() != m.i || v.AsNumber() != float64(m.i) {
			t.Fatalf("%s %s: AsInt %d", how, m, v.AsInt())
		}
	case KindFloat:
		if math.Float64bits(v.AsFloat()) != math.Float64bits(m.f) {
			t.Fatalf("%s %s: AsFloat %v", how, m, v.AsFloat())
		}
	case KindString:
		if v.AsStr() != m.s {
			t.Fatalf("%s %s: AsStr %q", how, m, v.AsStr())
		}
	case KindBool:
		if v.AsBool() != m.b {
			t.Fatalf("%s %s: AsBool %v", how, m, v.AsBool())
		}
	case KindTuple:
		if v.Len() != len(m.t) || len(v.Fields()) != len(m.t) || cap(v.Fields()) != len(m.t) {
			t.Fatalf("%s %s: Len %d, Fields len %d cap %d", how, m, v.Len(), len(v.Fields()), cap(v.Fields()))
		}
		for i, f := range m.t {
			checkAgainstModel(t, how, v.Field(i), f)
			checkAgainstModel(t, how, v.Fields()[i], f)
		}
		if k, x, ok := v.AsPair(); ok != (len(m.t) == 2) || ok && !(k.Equal(v.Field(0)) && x.Equal(v.Field(1))) {
			t.Fatalf("%s %s: AsPair ok=%v", how, m, ok)
		}
	}
	if v.Hash() != m.hash(14695981039346656037) {
		t.Fatalf("%s %s: Hash %#x, model %#x", how, m, v.Hash(), m.hash(14695981039346656037))
	}
	if v.String() != m.String() {
		t.Fatalf("%s: String %s, model %s", how, v, m)
	}
	enc := m.encode(nil)
	if got := AppendBinary(nil, v); !bytes.Equal(got, enc) || EncodedSize(v) != len(enc) {
		t.Fatalf("%s %s: AppendBinary %x (EncodedSize %d), model %x", how, m, got, EncodedSize(v), enc)
	}
}

// TestLayoutMatchesModel: random nested values, built once through the
// constructors, once through Slab.Tuple and once by decoding into a Slab,
// must be indistinguishable from the plain-Go model in every accessor,
// Equal, Compare, Hash, String, EncodedSize and AppendBinary — and from each
// other, whichever way each side of a comparison was built. Run under -race,
// checkptr vets every unsafe.String and unsafe.Slice the accessors make.
func TestLayoutMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var slab Slab
	type sample struct {
		m     model
		built [3]Value
	}
	var samples []sample
	for trial := 0; trial < 1500; trial++ {
		m := randomModel(r, 3)
		s := sample{m: m}
		s.built[0] = m.build(Tuple)
		s.built[1] = m.build(slab.Tuple)
		buf := m.encode(nil)
		v, n, err := Decode(buf, &slab)
		if err != nil || n != len(buf) {
			t.Fatalf("Decode(%x) of %s: consumed %d, err %v", buf, m, n, err)
		}
		for i := range buf {
			buf[i] = 0xAA // a decoded value keeps no reference to its frame
		}
		s.built[2] = v
		for i, v := range s.built {
			checkAgainstModel(t, [...]string{"constructed", "slab-built", "decoded"}[i], v, m)
		}
		samples = append(samples, s)
	}
	for trial := 0; trial < 20000; trial++ {
		a, b := samples[r.Intn(len(samples))], samples[r.Intn(len(samples))]
		av, bv := a.built[r.Intn(3)], b.built[r.Intn(3)]
		if got, want := av.Equal(bv), a.m.equal(b.m); got != want {
			t.Fatalf("%s Equal %s = %v, model %v", av, bv, got, want)
		}
		if got, want := av.Compare(bv), a.m.compare(b.m); got != want {
			t.Fatalf("%s Compare %s = %d, model %d", av, bv, got, want)
		}
	}
}

// TestGoldenHashes pins Hash on a fixed corpus to the numbers the 56-byte
// layout produced (commit b8aa964). Partition placement is Hash modulo the
// instance count, and placement is what keeps every exact count of the
// benchmark — elements per edge, bytes on the wire, skew — where it was.
func TestGoldenHashes(t *testing.T) {
	golden := []struct {
		v    Value
		hash uint64
	}{
		{Value{}, 0xaf63bd4c8601b7df},
		{Int(0), 0x529a2cdc8ff533ac},
		{Int(1), 0x7194f3e59ae47dcd},
		{Int(-1), 0x685cd83ad34b3424},
		{Int(math.MaxInt64), 0x685d583ad34c0da4},
		{Int(math.MinInt64), 0x5299acdc8ff45a2c},
		{Float(0), 0xcd92cf54dc615e5},
		{Float(math.Copysign(0, -1)), 0xcd9acf54dc6ef65},
		{Float(1.5), 0xdcdddf54e95fb20},
		{Float(math.NaN()), 0xf04f8cec44e9cb91},
		{Float(math.Inf(-1)), 0xde81df54eab7c98},
		{Bool(false), 0x985b2cc3d2245173},
		{Bool(true), 0x796065bac7350752},
		{Str(""), 0xaf63be4c8601b992},
		{Str("a"), 0x8364f07b4eef7e9},
		{Str("page0042"), 0x4bb07b34dde6af27},
		{Str("héllo, wörld"), 0xc25315cc5e5cd079},
		{Tuple(), 0xaf63b84c8601af60},
		{Tuple(Int(7)), 0xa0fe7f212ff08454},
		{Pair(Str("page0042"), Int(1)), 0x50e50669bf907eba},
		{Tuple(Str("k"), Str("article"), Int(3)), 0xabd29eb995d851f9},
		{Pair(Int(30512), Pair(Float(2.5), Tuple(Bool(true), Str("")))), 0xd9754ed86efcf536},
	}
	for _, g := range golden {
		if got := g.v.Hash(); got != g.hash {
			t.Errorf("Hash(%s) = %#x, want %#x", g.v, got, g.hash)
		}
	}
}

// TestValueSize pins the size every element buffer is a multiple of.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}
