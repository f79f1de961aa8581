package val

import (
	"fmt"
	"testing"
)

// The hot loop of every shuffle and combiner is Hash, Map.Update, and the
// codec; these benchmarks guard their per-element cost and allocation
// behavior (Hash and Update must be allocation-free, codec encode must be
// amortized-free thanks to the scratch pool).

func BenchmarkHash(b *testing.B) {
	cases := []struct {
		name string
		v    Value
	}{
		{"int", Int(1234567)},
		{"string", Str("page17.example.com/index")},
		{"pair", Pair(Str("k17"), Int(42))},
		{"nested", Pair(Pair(Str("k3"), Int(9)), Pair(Int(-1), Str("v")))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= c.v.Hash()
			}
			_ = sink
		})
	}
}

// BenchmarkMapUpdate is the combiner inner loop: fold one element into the
// running per-key state. 64 keys keeps everything cache-resident, isolating
// the hash+probe+closure cost.
func BenchmarkMapUpdate(b *testing.B) {
	keys := make([]Value, 64)
	for i := range keys {
		keys[i] = Str(fmt.Sprintf("page%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	m := NewMap[Value](len(keys))
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		m.Update(k, func(old Value, present bool) Value {
			if !present {
				return Int(1)
			}
			return Int(old.AsInt() + 1)
		})
	}
}

// BenchmarkMapBuild is the growth path: one op inserts 8192 distinct keys
// into a fresh table, as a host's first bag does, where BenchmarkMapUpdate
// never leaves 64 warm entries.
func BenchmarkMapBuild(b *testing.B) {
	keys := make([]Value, 8192)
	for i := range keys {
		keys[i] = Int(int64(i) * 7919)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMap[Value](0)
		for _, k := range keys {
			m.Put(k, k)
		}
	}
}

// BenchmarkMapClear is the table a host keeps from bag to bag, grown to
// 8192 keys (a 16 384-slot index). sparse: one key put and cleared, which
// must cost a probe, not the index; dense: clearing all 8192 keys and
// putting 8192 others, what BenchmarkMapBuild does on a fresh table.
func BenchmarkMapClear(b *testing.B) {
	keys := make([]Value, 16384)
	for i := range keys {
		keys[i] = Int(int64(i) * 7919)
	}
	for _, c := range []struct {
		name string
		keys int
	}{{"sparse", 1}, {"dense", 8192}} {
		b.Run(c.name, func(b *testing.B) {
			m := NewMap[Value](0)
			for _, k := range keys[:8192] {
				m.Put(k, k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Clear()
				from := i % 2 * 8192 // a different key set each op
				for _, k := range keys[from : from+c.keys] {
					m.Put(k, k)
				}
			}
		})
	}
}

func BenchmarkCodecEncode(b *testing.B) {
	cases := []struct {
		name string
		v    Value
	}{
		{"int", Int(123456789)},
		{"pair", Pair(Str("page17"), Int(42))},
		{"nested", Pair(Pair(Str("k3"), Int(9)), Pair(Int(-1), Str("value")))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := GetScratch()
			defer PutScratch(buf)
			for i := 0; i < b.N; i++ {
				buf = AppendBinary(buf[:0], c.v)
			}
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	cases := []struct {
		name string
		v    Value
	}{
		{"int", Int(123456789)},
		{"pair", Pair(Str("page17"), Int(42))},
		{"nested", Pair(Pair(Str("k3"), Int(9)), Pair(Int(-1), Str("value")))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			buf := AppendBinary(nil, c.v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeBinary(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkip is the validating walk a worker makes over a shipped input
// partition instead of decoding it: the decode cases above, not built.
func BenchmarkSkip(b *testing.B) {
	cases := []struct {
		name string
		v    Value
	}{
		{"int", Int(123456789)},
		{"pair", Pair(Str("page17"), Int(42))},
		{"nested", Pair(Pair(Str("k3"), Int(9)), Pair(Int(-1), Str("value")))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			buf := AppendBinary(nil, c.v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Skip(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCodecRoundtripBatch(b *testing.B) {
	// A full 128-element batch, the engine's default transfer unit.
	elems := make([]Value, 128)
	for i := range elems {
		elems[i] = Pair(Str(fmt.Sprintf("page%d", i%8)), Int(int64(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := GetScratch()
		for _, v := range elems {
			buf = AppendBinary(buf, v)
		}
		rest := buf
		for len(rest) > 0 {
			_, n, err := DecodeBinary(rest)
			if err != nil {
				b.Fatal(err)
			}
			rest = rest[n:]
		}
		PutScratch(buf)
	}
}
