package core

import (
	"math/bits"
	"slices"

	"github.com/mitos-project/mitos/internal/val"
)

// bagBuf holds the elements of a buffered input bag in arrival order, in
// chunks that are never copied (DESIGN.md Sec. 18, "Buffered bags"): chunk 0
// holds bagChunk0 elements and every later chunk as many as all before it
// together, so chunk k >= 1 starts at element bagChunk0<<(k-1). Buffering n
// elements allocates fewer than 2n slots plus the first chunk and never
// copies an element. The zero bagBuf is empty and allocates nothing until
// the first add.
type bagBuf struct {
	head []val.Value   // chunk 0; nil until the first add
	tail [][]val.Value // chunks 1, 2, ...; every chunk is allocated at full length
	last []val.Value   // the chunk being filled, sliced to its filled part
	n    int
}

// bagChunk0Bits is log2 of the first chunk's length: one chunk of 8 holds the
// singleton bags of a control loop.
const bagChunk0Bits = 3

const bagChunk0 = 1 << bagChunk0Bits

// bagKeepCap bounds the elements a recycled buffer's chunks may hold; the
// chunks past it (transient wide bags) go back to the collector. Chunks 0..7
// hold exactly 1 024.
const bagKeepCap = 1024

// chunkOf returns the index of the chunk that holds element i and the
// element's index within it.
func chunkOf(i int) (k, off int) {
	k = bits.Len(uint(i) >> bagChunk0Bits)
	if k == 0 {
		return 0, i
	}
	return k, i - bagChunk0<<(k-1)
}

// chunk returns chunk k at its full length.
func (b *bagBuf) chunk(k int) []val.Value {
	if k == 0 {
		return b.head
	}
	return b.tail[k-1]
}

func (b *bagBuf) len() int { return b.n }

// add appends v.
func (b *bagBuf) add(v val.Value) {
	if len(b.last) == cap(b.last) {
		b.grow()
	}
	b.last = append(b.last, v)
	b.n++
}

// grow moves add on to the next chunk, which b.n is the first element of,
// reusing a chunk a reset kept and allocating one otherwise.
func (b *bagBuf) grow() {
	k, _ := chunkOf(b.n)
	switch {
	case k == 0:
		if b.head == nil {
			b.head = make([]val.Value, bagChunk0)
		}
	case k > len(b.tail):
		if b.tail == nil {
			b.tail = make([][]val.Value, 0, 8) // chunks up to 2 048 elements
		}
		b.tail = append(b.tail, make([]val.Value, b.n))
	}
	b.last = b.chunk(k)[:0]
}

// span returns the elements from position i to the end of i's chunk, or to
// the last element if that comes first. A reader walks the buffer chunk by
// chunk with it: i += len(span(i)) until i reaches len().
func (b *bagBuf) span(i int) []val.Value {
	k, off := chunkOf(i)
	c := b.chunk(k)
	return c[off:min(len(c), off+b.n-i)]
}

// flatten returns the elements, in order, in one new slice (nil for none).
func (b *bagBuf) flatten() []val.Value {
	out := slices.Grow[[]val.Value](nil, b.n)
	for i := 0; i < b.n; {
		s := b.span(i)
		out = append(out, s...)
		i += len(s)
	}
	return out
}

// reset empties the buffer. It keeps the leading chunks that together hold at
// most bagKeepCap elements, cleared so they pin no value, and drops the rest,
// so a refill up to bagKeepCap allocates nothing.
func (b *bagBuf) reset() {
	if b.n > len(b.head) {
		b.resetTail()
	}
	clear(b.head[:min(b.n, len(b.head))])
	b.last, b.n = b.head[:0], 0
}

// resetTail is reset for the chunks after the first.
func (b *bagBuf) resetTail() {
	kept, left := len(b.head), b.n-len(b.head)
	for k, c := range b.tail {
		if kept+len(c) > bagKeepCap {
			clear(b.tail[k:])
			b.tail = b.tail[:k]
			return
		}
		clear(c[:max(0, min(len(c), left))])
		kept += len(c)
		left -= len(c)
	}
}
