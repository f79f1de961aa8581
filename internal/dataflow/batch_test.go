package dataflow

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"github.com/mitos-project/mitos/internal/val"
)

// TestElementSize pins the size every batch buffer, mailbox envelope and
// early-arrival bag is a multiple of.
func TestElementSize(t *testing.T) {
	if got := unsafe.Sizeof(Element{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Element{}) = %d, want 32", got)
	}
}

// assertPooledZero takes the next buffer from the job's pool and fails if any
// slot of its whole capacity still holds a tag or a value: recycle clears
// only the length it is handed, so this is the invariant it lives on.
func assertPooledZero(t *testing.T, j *Job, after string) {
	t.Helper()
	b := j.getBatch()
	if len(b) != 0 || cap(b) < j.batchSize {
		t.Fatalf("after %s: pooled buffer has len %d cap %d, want 0 and >= %d", after, len(b), cap(b), j.batchSize)
	}
	for i, e := range b[:cap(b)] {
		if e.Tag != 0 || e.Val.IsValid() {
			t.Fatalf("after %s: pooled buffer slot %d of %d still holds (%d, %v)", after, i, cap(b), e.Tag, e.Val)
		}
	}
	j.recycle(&envelope{batch: b}, false)
}

// TestRecycledBatchIsZero: whatever path a buffer came back on — a full batch,
// a one-element batch, a remote frame that failed to decode after some of its
// elements had been appended — the next taker finds no Value anywhere in it.
func TestRecycledBatchIsZero(t *testing.T) {
	var g Graph
	g.AddOp("sink", 1, func(int) Vertex { return &baseVertex{} })
	j, err := NewPartitionedJob(&g, 1, 0, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	elem := Element{Tag: 3, Val: val.Pair(val.Str("k"), val.Int(1))}

	full := j.getBatch()
	for len(full) < cap(full) {
		full = append(full, elem)
	}
	j.recycle(&envelope{batch: full}, false)
	assertPooledZero(t, j, "a full batch")

	j.recycle(&envelope{batch: append(j.getBatch(), elem)}, false)
	assertPooledZero(t, j, "a one-element batch")

	// Three good elements, then a truncated fourth: DeliverData must hand
	// back the buffer at the length decodeBatch reached, not at zero.
	payload := frameOf([]Element{elem, elem, elem, elem})
	if err := j.DeliverData(RemoteHeader{}, payload[:len(payload)-1], 4, nil, nil); err == nil {
		t.Fatal("truncated frame accepted")
	}
	assertPooledZero(t, j, "a frame that failed to decode")
}

// stringPairs returns n elements shaped like a key shuffle's: (string, int).
func stringPairs(n int) []Element {
	batch := make([]Element, n)
	for i := range batch {
		batch[i] = Element{Tag: 7, Val: val.Pair(val.Str(fmt.Sprintf("page%04d", i)), val.Int(int64(i)))}
	}
	return batch
}

// TestDecodeBatchAllocs guards what the link slab buys: a full frame of string
// pairs decodes in at most 3 allocations (it was 2 per pair), and a link that
// sees nothing but one-element frames — a delta iteration's long tail — pays
// well under 256 bytes for each, not a chunk.
func TestDecodeBatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	var slab val.Slab
	dst := make([]Element, 0, DefaultBatchSize)
	full := frameOf(stringPairs(DefaultBatchSize))
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeBatch(dst, full, DefaultBatchSize, &slab, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("decoding %d string pairs: %.2f allocs, want <= 3", DefaultBatchSize, allocs)
	}

	one := frameOf(stringPairs(1))
	const frames = 10000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < frames; i++ {
		if _, err := decodeBatch(dst, one, 1, &slab, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if per := float64(m1.TotalAlloc-m0.TotalAlloc) / frames; per >= 256 {
		t.Errorf("a one-element frame costs %.0f bytes, want < 256", per)
	}
}

// BenchmarkDecodeBatch is the receive side of one full remote frame of string
// pairs: the source of TestDecodeBatchAllocs' numbers.
func BenchmarkDecodeBatch(b *testing.B) {
	var slab val.Slab
	dst := make([]Element, 0, DefaultBatchSize)
	buf := frameOf(stringPairs(DefaultBatchSize))
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeBatch(dst, buf, DefaultBatchSize, &slab, nil); err != nil {
			b.Fatal(err)
		}
	}
}
