package val

import (
	"bytes"
	"math"
	"testing"
)

// FuzzBinaryRoundTrip feeds arbitrary bytes to DecodeBinary and checks the
// codec's invariants on every successfully decoded value:
//
//   - decoding into a Slab accepts and rejects exactly the same inputs, yields
//     an Equal value from the same number of bytes, and that value survives
//     the input buffer being overwritten (it keeps no reference to it),
//   - Skip accepts exactly the inputs Decode accepts and returns the same
//     length,
//   - re-encoding the value and decoding again yields an Equal value that
//     consumes the whole re-encoding (value-level round trip; byte-level
//     equality with the input is NOT required, since varints and bools
//     accept non-canonical encodings),
//   - EncodedSize agrees with the bytes AppendBinary actually produces,
//   - the encoding is self-delimiting: every strict prefix of a canonical
//     encoding must fail to decode rather than yield a value.
func FuzzBinaryRoundTrip(f *testing.F) {
	seed := []Value{
		Int(0), Int(-1), Int(1 << 40), Int(math.MinInt64),
		Float(0), Float(-3.25), Float(math.NaN()), Float(math.Inf(-1)),
		Str(""), Str("hello"), Str("héllo, wörld"),
		Bool(true), Bool(false),
		Tuple(),
		Tuple(Int(7), Str("x")),
		Tuple(Tuple(Bool(true), Float(2.5)), Str("nested"), Int(-9)),
	}
	for _, v := range seed {
		f.Add(AppendBinary(nil, v))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{byte(KindString), 0x80}) // truncated length varint
	f.Add([]byte{byte(KindTuple), 0x02, byte(KindInt)})
	// Hostile lengths: far more fields or bytes than the input holds, alone
	// and nested, and a length varint that overflows 64 bits.
	f.Add([]byte{byte(KindTuple), 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{byte(KindString), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 'x'})
	f.Add([]byte{byte(KindTuple), 0x05, byte(KindTuple), 0x04, byte(KindTuple), 0x03, byte(KindString), 0x02, 'a'})
	f.Add([]byte{byte(KindTuple), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	var slab Slab // shared by every input, as a link's is by every frame
	f.Fuzz(func(t *testing.T, data []byte) {
		v1, n1, err := DecodeBinary(data)
		frame := bytes.Clone(data) // the engine's buffer is not ours to overwrite
		vs, ns, errs := Decode(frame, &slab)
		if (err == nil) != (errs == nil) || ns != n1 {
			t.Fatalf("DecodeBinary: %d bytes, err %v; Decode into a slab: %d bytes, err %v", n1, err, ns, errs)
		}
		if nk, errk := Skip(data); (err == nil) != (errk == nil) || nk != n1 {
			t.Fatalf("DecodeBinary: %d bytes, err %v; Skip: %d bytes, err %v", n1, err, nk, errk)
		}
		if err != nil {
			return // malformed input is allowed to fail; it must not panic
		}
		if n1 <= 0 || n1 > len(data) {
			t.Fatalf("consumed %d bytes of %d", n1, len(data))
		}
		for i := range frame {
			frame[i] ^= 0xff
		}
		if !vs.Equal(v1) || vs.Hash() != v1.Hash() || vs.String() != v1.String() {
			t.Fatalf("slab-decoded %v differs from %v once the input is overwritten", vs, v1)
		}

		enc := AppendBinary(nil, v1)
		if got, want := len(enc), EncodedSize(v1); got != want {
			t.Fatalf("EncodedSize=%d but AppendBinary produced %d bytes for %v", want, got, v1)
		}
		v2, n2, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("re-decode of %v failed: %v (enc=%x)", v1, err, enc)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes (enc=%x)", n2, len(enc), enc)
		}
		if !v2.Equal(v1) {
			t.Fatalf("round trip changed value: %v -> %v", v1, v2)
		}
		if !bytes.Equal(AppendBinary(nil, v2), enc) {
			t.Fatalf("canonical encoding unstable for %v", v1)
		}

		// Self-delimiting: no strict prefix of the canonical encoding may
		// decode to a value.
		for i := 0; i < len(enc); i++ {
			if _, _, err := DecodeBinary(enc[:i]); err == nil {
				t.Fatalf("strict prefix enc[:%d]=%x of %v decoded without error", i, enc[:i], v1)
			}
		}
	})
}
