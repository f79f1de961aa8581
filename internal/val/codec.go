package val

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// scratchPool recycles encode buffers across AppendBinary call sites so
// that hot paths (the dataflow transport serializes every remote batch)
// stay allocation-free once buffers have grown to their working size.
var scratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// GetScratch returns a zero-length encode buffer from the pool, retaining
// whatever capacity a previous user grew it to. Return it with PutScratch.
func GetScratch() []byte {
	return (*scratchPool.Get().(*[]byte))[:0]
}

// PutScratch returns an encode buffer to the pool. The caller must not use
// b afterwards.
func PutScratch(b []byte) {
	scratchPool.Put(&b)
}

// AppendBinary appends the compact binary encoding of v to dst and returns
// the extended slice. The encoding is self-delimiting: a kind tag byte
// followed by a kind-specific payload (varints for ints and lengths, raw
// IEEE bits for floats, raw bytes for strings, recursively encoded fields
// for tuples).
func AppendBinary(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInt:
		dst = binary.AppendVarint(dst, int64(v.num))
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, v.num)
	case KindString:
		dst = binary.AppendUvarint(dst, v.num)
		dst = append(dst, v.str()...)
	case KindBool:
		dst = append(dst, byte(v.num))
	case KindTuple:
		dst = binary.AppendUvarint(dst, v.num)
		for _, f := range v.tup() {
			dst = AppendBinary(dst, f)
		}
	}
	return dst
}

// DecodeBinary is Decode for a one-off value: every decoded tuple and string
// is an allocation of its own.
func DecodeBinary(buf []byte) (Value, int, error) { return Decode(buf, nil) }

// Decode decodes one Value from the front of buf, returning the value and the
// number of bytes consumed. It returns an error for truncated or malformed
// input. The value keeps no reference to buf: its strings and tuples are
// carved from s, so a link that decodes frame after frame into one Slab
// allocates a chunk per ~128 pairs instead of twice per pair.
func Decode(buf []byte, s *Slab) (Value, int, error) { return decode(buf, s, true) }

// Skip validates the value at the front of buf and returns its length without
// building it: it runs Decode's grammar and checks, so it accepts exactly the
// inputs Decode accepts and consumes as many bytes, and it allocates nothing
// but an error. A receiver that keeps a message encoded and decodes it later
// rejects a corrupt one up front.
func Skip(buf []byte) (int, error) {
	_, n, err := decode(buf, nil, false)
	return n, err
}

// decode is Decode when build is set and Skip otherwise: one grammar, and in
// skip mode no string or tuple is made.
func decode(buf []byte, s *Slab, build bool) (Value, int, error) {
	if len(buf) == 0 {
		return Value{}, 0, fmt.Errorf("val: decode: empty buffer")
	}
	kind := Kind(buf[0])
	n := 1
	switch kind {
	case KindInvalid:
		return Value{kind: KindInvalid}, n, nil
	case KindInt:
		i, sz := binary.Varint(buf[n:])
		if sz <= 0 {
			return Value{}, 0, fmt.Errorf("val: decode: bad int varint")
		}
		return Int(i), n + sz, nil
	case KindFloat:
		if len(buf) < n+8 {
			return Value{}, 0, fmt.Errorf("val: decode: truncated float")
		}
		bits := binary.BigEndian.Uint64(buf[n:])
		return Float(math.Float64frombits(bits)), n + 8, nil
	case KindString:
		l, sz := binary.Uvarint(buf[n:])
		if sz <= 0 {
			return Value{}, 0, fmt.Errorf("val: decode: bad string length")
		}
		n += sz
		if uint64(len(buf)-n) < l {
			return Value{}, 0, fmt.Errorf("val: decode: truncated string")
		}
		if !build {
			return Value{}, n + int(l), nil
		}
		return Str(s.text(buf[n : n+int(l)])), n + int(l), nil
	case KindBool:
		if len(buf) < n+1 {
			return Value{}, 0, fmt.Errorf("val: decode: truncated bool")
		}
		return Bool(buf[n] != 0), n + 1, nil
	case KindTuple:
		l, sz := binary.Uvarint(buf[n:])
		if sz <= 0 {
			return Value{}, 0, fmt.Errorf("val: decode: bad tuple length")
		}
		n += sz
		if l > uint64(len(buf)) {
			return Value{}, 0, fmt.Errorf("val: decode: tuple length %d exceeds buffer", l)
		}
		var fields []Value
		if build {
			fields = s.Make(int(l))
		}
		for i := range int(l) {
			f, used, err := decode(buf[n:], s, build)
			if err != nil {
				return Value{}, 0, fmt.Errorf("val: decode: tuple field %d: %w", i, err)
			}
			if build {
				fields[i] = f
			}
			n += used
		}
		if !build {
			return Value{}, n, nil
		}
		return Tuple(fields...), n, nil
	default:
		return Value{}, 0, fmt.Errorf("val: decode: unknown kind tag %d", buf[0])
	}
}

// EncodedSize returns the number of bytes AppendBinary would produce for v.
// It is used by the cluster simulator to model network transfer volume
// without materializing the encoding.
func EncodedSize(v Value) int {
	n := 1
	switch v.kind {
	case KindInt:
		n += varintLen(int64(v.num))
	case KindFloat:
		n += 8
	case KindString:
		n += uvarintLen(v.num) + int(v.num)
	case KindBool:
		n++
	case KindTuple:
		n += uvarintLen(v.num)
		for _, f := range v.tup() {
			n += EncodedSize(f)
		}
	}
	return n
}

func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
