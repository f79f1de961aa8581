package val

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// TestSlabChunksAreNotReused: a tuple and a decoded string kept across 10 000
// later carves and a forced collection still read back intact — the slab never
// hands a chunk out twice, whatever became of the rest of it.
func TestSlabChunksAreNotReused(t *testing.T) {
	var s Slab
	kept := s.Tuple(Str("kept"), Int(42), Pair(Float(2.5), Bool(true)))
	keptText, _, err := Decode(AppendBinary(nil, Str("kept text")), &s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		s.Tuple(Int(int64(i)), Str("overwrite?"))
		if _, _, err := Decode(AppendBinary(nil, Str(fmt.Sprint("overwrite? ", i))), &s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if want := Tuple(Str("kept"), Int(42), Pair(Float(2.5), Bool(true))); !kept.Equal(want) {
		t.Errorf("kept tuple reads back %s, want %s", kept, want)
	}
	if keptText.AsStr() != "kept text" {
		t.Errorf("kept string reads back %q", keptText.AsStr())
	}
}

// TestSlabPinningBound: a survivor pins its own chunk and nothing more. Of
// 100 000 carved pairs, retaining 1 in 100 (nearly every chunk has one) or 1
// in 1000 (most chunks have none) keeps at most one chunk per survivor live,
// and dropping the survivors frees those too.
func TestSlabPinningBound(t *testing.T) {
	const carved = 100000
	const chunkBytes = 6144 // slabChunk Values and the allocation header, as the size class rounds them
	const slack = 64 << 10  // the survivors slice and the runtime's own churn
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, keepEvery := range []int{100, 1000} {
		base := live()
		var s Slab
		var survivors []Value
		for i := 0; i < carved; i++ {
			v := s.Tuple(Int(int64(i)), Int(1))
			if i%keepEvery == 0 {
				survivors = append(survivors, v)
			}
		}
		bound := int64(len(survivors)+1)*chunkBytes + slack
		if held := live() - base; held > bound {
			t.Errorf("%d survivors of %d pairs hold %d bytes live, want <= %d (a chunk each)", len(survivors), carved, held, bound)
		}
		for i, v := range survivors {
			if v.Field(0).AsInt() != int64(i*keepEvery) {
				t.Fatalf("survivor %d reads back %s", i, v)
			}
		}
		survivors, s = nil, Slab{}
		if held := live() - base; held > slack {
			t.Errorf("with no survivor left, %d bytes stay live", held)
		}
	}
	// A cleared table keeps its own storage and nothing it held: the
	// carved keys' chunks are free after a collection.
	base := live()
	var s Slab
	var m Map[struct{}]
	for i := 0; i < carved; i++ {
		m.Put(s.Tuple(Int(int64(i)), Int(1)), struct{}{})
	}
	m.Clear()
	s = Slab{}
	table := int64(len(m.index)) * 4
	for _, c := range m.chunks {
		table += int64(len(c)) * int64(unsafe.Sizeof(c[0]))
	}
	if held := live() - base; held > table+slack {
		t.Errorf("a cleared table of %d slab-carved keys holds %d bytes live, want <= %d (its own storage)", carved, held, table+slack)
	}
	runtime.KeepAlive(&m)
}

// TestSlabAllocations: carving is one allocation per chunk, a nil slab one
// per tuple, and a tuple too wide to share a chunk does not disturb it.
func TestSlabAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	var s Slab
	if a := testing.AllocsPerRun(10000, func() { s.Tuple(Int(1), Int(2)) }); a > 0.01 {
		t.Errorf("Slab.Tuple: %.4f allocs per pair, want one per %d", a, slabChunk/2)
	}
	var none *Slab
	if a := testing.AllocsPerRun(1000, func() { none.Tuple(Int(1), Int(2)) }); a != 1 {
		t.Errorf("nil Slab.Tuple: %.2f allocs per pair, want 1", a)
	}
	before := len(s.free)
	wide := s.Make(slabChunk)
	if len(wide) != slabChunk || len(s.free) != before {
		t.Errorf("a chunk-wide tuple took %d Values from the shared chunk", before-len(s.free))
	}
}
