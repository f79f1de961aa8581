// Package val implements the dynamic value system shared by the Mitos
// script language and the dataflow engine.
//
// Elements of a bag are Values: 64-bit integers, 64-bit floats, strings,
// booleans, or tuples of Values. Values are immutable once constructed and
// are safe to share between goroutines. The package also provides a total
// order, a stable hash (used by the shuffle partitioner), and a compact
// binary codec used when elements cross simulated machine boundaries.
package val

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The possible kinds of a Value. KindInvalid is the zero Value's kind.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTuple
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindTuple:
		return "tuple"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed immutable value.
//
// The zero Value is invalid; use the constructors. A Value is three words
// (24 bytes) and is passed by value: the kind, one number and one pointer.
// Scalars live in num and leave p nil; a string or tuple keeps its length in
// num and its first byte or field behind p. Every element buffer, batch and
// hash bucket in the engine is a multiple of this size, which is why the
// string and slice headers are not stored whole. All pointer arithmetic is
// in Str, Tuple, str and tup below; nothing else in the repository imports
// unsafe (DESIGN.md, "Element representation and lifetimes").
type Value struct {
	_    [0]func() // not comparable: == would compare strings and tuples by address; use Equal
	kind Kind
	num  uint64         // int64 bits, float64 bits, 0/1 for bool, or the length of a string or tuple
	p    unsafe.Pointer // first string byte or first tuple field; nil for scalars and for length 0
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// Str returns a string Value. It shares s's bytes.
func Str(s string) Value {
	if len(s) == 0 {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, num: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// Bool returns a boolean Value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Tuple returns a tuple Value holding the given fields. The slice is not
// copied; the caller must not mutate it afterwards.
func Tuple(fields ...Value) Value {
	if len(fields) == 0 {
		return Value{kind: KindTuple}
	}
	return Value{kind: KindTuple, num: uint64(len(fields)), p: unsafe.Pointer(unsafe.SliceData(fields))}
}

// str is the payload of a string Value. The caller has checked the kind: num
// is a length only for strings and tuples. A nil p carries length 0, for
// which unsafe.String and unsafe.Slice are defined.
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.num)) }

// tup is the payload of a tuple Value, capacity clipped to its length.
func (v Value) tup() []Value { return unsafe.Slice((*Value)(v.p), int(v.num)) }

// Pair returns a two-field tuple. It is the shape produced by map-to-pair
// operations and consumed by reduceByKey and join.
func Pair(k, v Value) Value { return Tuple(k, v) }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether v was produced by a constructor (not the zero Value).
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload. It panics if v is not an int.
func (v Value) AsInt() int64 {
	v.mustBe(KindInt)
	return int64(v.num)
}

// AsFloat returns the float payload. It panics if v is not a float.
func (v Value) AsFloat() float64 {
	v.mustBe(KindFloat)
	return math.Float64frombits(v.num)
}

// AsNumber returns the numeric payload of an int or float as float64.
// It panics for other kinds.
func (v Value) AsNumber() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.num))
	case KindFloat:
		return math.Float64frombits(v.num)
	default:
		panic(fmt.Sprintf("val: AsNumber on %s value", v.kind))
	}
}

// AsStr returns the string payload. It panics if v is not a string.
func (v Value) AsStr() string {
	v.mustBe(KindString)
	return v.str()
}

// AsBool returns the boolean payload. It panics if v is not a bool.
func (v Value) AsBool() bool {
	v.mustBe(KindBool)
	return v.num != 0
}

// Fields returns the tuple payload. It panics if v is not a tuple.
// The returned slice must not be mutated.
func (v Value) Fields() []Value {
	v.mustBe(KindTuple)
	return v.tup()
}

// Len returns the number of fields of a tuple. It panics if v is not a tuple.
func (v Value) Len() int {
	v.mustBe(KindTuple)
	return int(v.num)
}

// Field returns field i of a tuple. It panics if v is not a tuple or i is
// out of range.
func (v Value) Field(i int) Value {
	v.mustBe(KindTuple)
	return v.tup()[i]
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("val: %s value used as %s", v.kind, k))
	}
}

// Equal reports whether v and w are structurally equal. Values of different
// kinds are never equal (ints and floats are distinct even when numerically
// equal).
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindInt, KindBool, KindFloat:
		return v.num == w.num
	case KindString:
		return v.str() == w.str()
	case KindTuple:
		if v.num != w.num {
			return false
		}
		wf := w.tup()
		for i, f := range v.tup() {
			if !f.Equal(wf[i]) {
				return false
			}
		}
		return true
	default:
		return true // two invalid values are equal
	}
}

// Compare returns -1, 0, or +1 ordering v relative to w. The order is total:
// values are ordered first by kind, then by payload. Tuples compare
// lexicographically; floats compare by IEEE order with NaN greatest.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		return cmpInt64(int64(v.num), int64(w.num))
	case KindBool:
		return cmpUint64(v.num, w.num)
	case KindFloat:
		return cmpFloat(math.Float64frombits(v.num), math.Float64frombits(w.num))
	case KindString:
		return strings.Compare(v.str(), w.str())
	case KindTuple:
		vf, wf := v.tup(), w.tup()
		for i := 0; i < min(len(vf), len(wf)); i++ {
			if c := vf[i].Compare(wf[i]); c != 0 {
				return c
			}
		}
		return cmpInt64(int64(len(vf)), int64(len(wf)))
	default:
		return 0
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpUint64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// fnv-1a constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a stable 64-bit hash of v, suitable for partitioning.
// Equal values hash equally on every machine and in every process.
func (v Value) Hash() uint64 {
	return v.hash(fnvOffset)
}

func (v Value) hash(h uint64) uint64 {
	h = (h ^ uint64(v.kind)) * fnvPrime
	switch v.kind {
	case KindInt, KindBool, KindFloat:
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ (v.num >> shift & 0xff)) * fnvPrime
		}
	case KindString:
		s := v.str()
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime
		}
	case KindTuple:
		for _, f := range v.tup() {
			h = f.hash(h)
		}
	}
	return h
}

// AsPair returns the two fields of a (key, value) pair without the
// per-field kind checks — the fast path for join and reduceByKey inner
// loops. ok is false when v is not a 2-tuple.
func (v Value) AsPair() (k, val Value, ok bool) {
	if v.kind != KindTuple || v.num != 2 {
		return Value{}, Value{}, false
	}
	f := v.tup()
	return f[0], f[1], true
}

// Key returns the field used for key-based operations: the first field for
// tuples, and the value itself otherwise.
func (v Value) Key() Value {
	if v.kind == KindTuple && v.num > 0 {
		return v.tup()[0]
	}
	return v
}

// String renders v in a script-literal-like syntax, e.g. `(1, "a", true)`.
func (v Value) String() string {
	var b strings.Builder
	v.format(&b)
	return b.String()
}

func (v Value) format(b *strings.Builder) {
	switch v.kind {
	case KindInvalid:
		b.WriteString("<invalid>")
	case KindInt:
		b.WriteString(strconv.FormatInt(int64(v.num), 10))
	case KindFloat:
		b.WriteString(strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64))
	case KindString:
		b.WriteString(strconv.Quote(v.str()))
	case KindBool:
		if v.num != 0 {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case KindTuple:
		b.WriteByte('(')
		for i, f := range v.tup() {
			if i > 0 {
				b.WriteString(", ")
			}
			f.format(b)
		}
		b.WriteByte(')')
	}
}
