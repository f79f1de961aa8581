package core

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"testing"

	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// fill adds the ints from, ..., to-1 to b.
func fill(b *bagBuf, from, to int) {
	for i := from; i < to; i++ {
		b.add(val.Int(int64(i)))
	}
}

// TestBagBufCursorResumes adds elements in runs of uneven length, so that
// cursors fall on, just before and just after chunk boundaries, and checks
// that walking the spans from each run's cursor yields every element once,
// in order.
func TestBagBufCursorResumes(t *testing.T) {
	var b bagBuf
	var got []val.Value
	cursor, n := 0, 0
	for run := 1; n < 3000; run = run*3%17 + 1 {
		fill(&b, n, n+run)
		n += run
		for cursor < b.len() {
			s := b.span(cursor)
			got = append(got, s...)
			cursor += len(s)
		}
	}
	if want := ints(seq(n)...); !bag.Equal(got, want) || !equalInOrder(got, want) {
		t.Fatalf("resumed walks yielded %d elements, want 0..%d in order", len(got), n-1)
	}
	if flat := b.flatten(); !equalInOrder(flat, ints(seq(n)...)) {
		t.Errorf("flatten = %d elements out of order", len(flat))
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func equalInOrder(a, b []val.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestBagBufChunksNeverMove: growing a bag allocates a new chunk and leaves
// the earlier ones, and so every element already buffered, where they are.
func TestBagBufChunksNeverMove(t *testing.T) {
	var b bagBuf
	var addrs []*val.Value // the first element of each chunk, once made
	for i := 0; i < 5000; i++ {
		b.add(val.Int(int64(i)))
		if k, off := chunkOf(i); off == 0 {
			addrs = append(addrs, &b.chunk(k)[0])
		}
		if i%97 == 0 || i == 4999 {
			for k, p := range addrs {
				if &b.chunk(k)[0] != p {
					t.Fatalf("after %d adds chunk %d moved", i+1, k)
				}
			}
		}
	}
	for k := 1; k < len(addrs); k++ {
		if got, want := len(b.chunk(k)), bagChunk0<<(k-1); got != want {
			t.Errorf("chunk %d holds %d elements, want %d (all earlier chunks together)", k, got, want)
		}
	}
}

// TestBagBufResetKeepsBoundedCapacity: a recycled buffer keeps chunks for at
// most bagKeepCap elements, every one of them zeroed so it pins nothing, and
// a refill to that size allocates nothing.
func TestBagBufResetKeepsBoundedCapacity(t *testing.T) {
	for _, n := range []int{1, bagChunk0, bagKeepCap - 1, bagKeepCap, bagKeepCap + 1, 5000} {
		var b bagBuf
		for i := 0; i < n; i++ {
			b.add(val.Str(fmt.Sprint("elem", i)))
		}
		b.reset()
		kept := len(b.head)
		for _, c := range b.tail {
			kept += len(c)
		}
		if kept > bagKeepCap {
			t.Errorf("n=%d: reset kept room for %d elements, want at most %d", n, kept, bagKeepCap)
		}
		for k := 0; k <= len(b.tail); k++ {
			for j, v := range b.chunk(k) {
				if !reflect.ValueOf(v).IsZero() {
					t.Fatalf("n=%d: kept chunk %d element %d is %v, want the zero Value", n, k, j, v)
				}
			}
		}
		if b.len() != 0 || len(b.flatten()) != 0 {
			t.Errorf("n=%d: buffer not empty after reset", n)
		}
	}
	var b bagBuf
	fill(&b, 0, 5000)
	b.reset()
	if allocs := testing.AllocsPerRun(100, func() {
		fill(&b, 0, bagKeepCap)
		b.reset()
	}); allocs != 0 {
		t.Errorf("refilling a recycled buffer with %d elements: %v allocs, want 0", bagKeepCap, allocs)
	}
}

// TestBagBufAllocBytes bounds what buffering n elements allocates: less
// than 2n elements plus the first chunk and the chunk list. Growing one
// slice by append allocates 4-6n past 256 elements and fails it.
func TestBagBufAllocBytes(t *testing.T) {
	elem := uint64(reflect.TypeOf(val.Value{}).Size())
	for _, n := range []int{100, 1000, 10_000, 50_000} {
		bound := (2*uint64(n)+bagChunk0)*elem + 1024 // + the chunk list
		// The smallest of a few fills: TotalAlloc also counts other
		// goroutines' allocations.
		least := ^uint64(0)
		for range 3 {
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			var b bagBuf
			fill(&b, 0, n)
			goruntime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
			goruntime.KeepAlive(&b)
		}
		if least > bound {
			t.Errorf("buffering %d elements allocated %d bytes, want at most %d (%.1f elements each)", n, least, bound, float64(least)/float64(n)/float64(elem))
		}
	}
}

// TestHostCursorAcrossChunks feeds a re-readable bag to the live output in
// uneven batches, so the output's cursor into it crosses chunk boundaries
// mid-batch, and checks that the output reads each element once — and that
// the next step re-reads the whole bag from its start.
func TestHostCursorAcrossChunks(t *testing.T) {
	sink := &collector{}
	h := handFedHost(t, ir.OpUnion, nil, store.NewMemStore(), []ir.BlockID{0, 1}, sink)
	visit(t, h, 0)
	visit(t, h, 1)
	visit(t, h, 1)
	var invariant []val.Value
	for n, run := 0, 1; n < 300; run = run*5%23 + 1 {
		piece := ints(seq(n + run)[n:]...)
		feed(t, h, 0, 1, piece...)
		invariant = append(invariant, piece...)
		n += run
		if h.cur == nil || h.cur.pos != 2 || h.cur.cursor[0] != n {
			t.Fatalf("after %d elements the live output's cursor is not at their end", n)
		}
	}
	eob(t, h, 0, 1)
	for pos := 2; pos <= 3; pos++ {
		feed(t, h, 1, pos, val.Int(-1))
		eob(t, h, 1, pos)
		if want := append(ints(-1), invariant...); !bag.Equal(sink.bags[pos], want) {
			t.Errorf("output bag %d: %d elements, want the %d of the re-readable bag and -1", pos, len(sink.bags[pos]), len(invariant))
		}
	}
}

// TestHostCrossOverChunks: cross re-reads its broadcast side, here a bag
// spanning four chunks, for every left element of every step.
func TestHostCrossOverChunks(t *testing.T) {
	sink := &collector{}
	h := handFedHost(t, ir.OpCross, nil, store.NewMemStore(), []ir.BlockID{1, 0}, sink)
	right := ints(seq(50)...)
	visit(t, h, 0)
	feed(t, h, 1, 1, right...)
	eob(t, h, 1, 1)
	for pos := 2; pos <= 3; pos++ {
		visit(t, h, 1)
		left := ints(100*pos, 100*pos+1, 100*pos+2)
		feed(t, h, 0, pos, left...)
		eob(t, h, 0, pos)
		var want []val.Value
		for _, x := range left {
			for _, r := range right {
				want = append(want, val.Pair(x, r))
			}
		}
		if !bag.Equal(sink.bags[pos], want) {
			t.Errorf("step %d: cross emitted %d tuples, want %d", pos, len(sink.bags[pos]), len(want))
		}
	}
}

// bufferedBag feeds one whole bag before its output bag starts — a
// pipelined producer running ahead of the path — so that every element is
// buffered, then starts the output, which consumes them.
func (fd *bagFeeder) bufferedBag(tb testing.TB, batches int) {
	pos := fd.h.pathLen + 1
	for i := range fd.batch {
		fd.batch[i].Tag = dataflow.Tag(pos)
	}
	for i := 0; i < batches; i++ {
		if err := fd.h.OnBatch(0, 0, fd.batch); err != nil {
			tb.Fatal(err)
		}
	}
	eob(tb, fd.h, 0, pos)
	if n := bufferedAt(fd.h, 0, pos); n != batches*len(fd.batch) {
		tb.Fatalf("bag %d: %d elements buffered ahead of the path, want %d", pos, n, batches*len(fd.batch))
	}
	visit(tb, fd.h, 1)
}

// BenchmarkHostBufferedBag is one 64-element batch buffered ahead of its
// output bag and consumed once the bag starts. A bag of bagKeepCap elements
// refills a recycled buffer and allocates nothing; a longer one allocates
// its chunks past bagKeepCap, each element's slot once.
func BenchmarkHostBufferedBag(b *testing.B) {
	for _, batches := range []int{bagKeepCap / 64, 256} {
		b.Run(fmt.Sprintf("bag=%d", 64*batches), func(b *testing.B) {
			fd := mapFeeder(b)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batches {
				fd.bufferedBag(b, batches)
			}
		})
	}
}
