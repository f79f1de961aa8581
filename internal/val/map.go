package val

import "math/bits"

// Map is a hash map keyed by Value, used by key-based operators (join
// builds, reduceByKey groups, distinct sets, the delta solution index).
// The zero Map is ready to use and allocates nothing until the first insert.
//
// Entries live in insertion order in chunks that are never copied, found
// through an open-addressed index of entry numbers (DESIGN.md Sec. 18,
// "Keyed state"), so a table costs O(log n) allocations instead of one per
// key. Range visits keys in first-insertion order: that order is part of
// the contract, and what keeps operator output deterministic. There is no
// delete; Clear empties the whole map and keeps its storage for the next
// fill. A Map holds at most 2^31 keys.
type Map[T any] struct {
	// index is open-addressed with linear probing: a slot holds an entry
	// number plus one, 0 for empty. Its length is a power of two, twice
	// the chunks' capacity, so it is between a quarter and half full.
	index []uint32
	shift uint8 // 64 - log2(len(index)): a slot is the hash's mixed high bits
	c0    uint8 // log2 of the first chunk's length; 0 until grow defaults it
	// chunks[0] holds 1<<c0 entries and every later chunk as many as all
	// before it together, so entry e sits in chunk bits.Len(e >> c0).
	chunks [][]entry[T]
	n      int
}

type entry[T any] struct {
	hash uint64
	key  Value
	val  T
}

// hashMix spreads a hash over the index by multiplication, of which the
// high bits are used. The low bits are no good: the dataflow routes by
// Hash() % parallelism, so every key one instance sees agrees on them.
const hashMix = 0x9E3779B97F4A7C15

// minChunkBits sizes the first chunk of a Map built without a hint.
const minChunkBits = 3

// NewMap returns an empty Map. A positive n sizes the first allocation for
// n keys; nothing is allocated before the first insert either way.
func NewMap[T any](n int) *Map[T] {
	m := &Map[T]{}
	if n > 1<<minChunkBits {
		m.c0 = uint8(bits.Len(uint(n - 1)))
	}
	return m
}

// at returns entry number e.
func (m *Map[T]) at(e uint32) *entry[T] {
	k := bits.Len32(e >> m.c0)
	if k > 0 {
		e &= 1<<(int(m.c0)+k-1) - 1
	}
	return &m.chunks[k][e]
}

// probe returns key's entry, or nil and the empty slot its probe ended on.
func (m *Map[T]) probe(h uint64, key Value) (*entry[T], uint64) {
	mask := uint64(len(m.index) - 1)
	i := (h * hashMix) >> m.shift
	for ; m.index[i] != 0; i = (i + 1) & mask {
		if ent := m.at(m.index[i] - 1); ent.hash == h && ent.key.Equal(key) {
			return ent, i
		}
	}
	return nil, i
}

// find returns the entry stored under key, whose hash is h, or nil.
func (m *Map[T]) find(h uint64, key Value) *entry[T] {
	if m.n == 0 {
		return nil
	}
	ent, _ := m.probe(h, key)
	return ent
}

// upsert returns the entry stored under key, whose hash is h, inserting one
// with the zero value if there is none, and whether it was present: one
// probe either way, and a second only when the insert has to grow the table.
func (m *Map[T]) upsert(h uint64, key Value) (*entry[T], bool) {
	var i uint64
	if len(m.index) > 0 {
		var ent *entry[T]
		if ent, i = m.probe(h, key); ent != nil {
			return ent, true
		}
	}
	if m.n == len(m.index)/2 {
		m.grow()
		i = m.freeSlot(h)
	}
	m.index[i] = uint32(m.n) + 1
	ent := m.at(uint32(m.n))
	ent.hash, ent.key = h, key
	m.n++
	return ent, false
}

// freeSlot returns the first empty index slot on hash h's probe sequence.
func (m *Map[T]) freeSlot(h uint64) uint64 {
	mask := uint64(len(m.index) - 1)
	i := (h * hashMix) >> m.shift
	for m.index[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow adds a chunk that doubles the capacity (the first chunk creates it)
// and rebuilds an index twice as large from the stored hashes: no entry is
// copied and no key hashed or compared again.
func (m *Map[T]) grow() {
	if m.c0 == 0 {
		m.c0 = minChunkBits // the zero Map, or no hint
	}
	size := max(m.n, 1<<m.c0)
	if uint64(size) >= 1<<31 {
		panic("val: Map is limited to 2^31 keys")
	}
	m.chunks = append(m.chunks, make([]entry[T], size))
	m.index = make([]uint32, 2*(m.n+size))
	m.shift = uint8(64 - bits.Len(uint(len(m.index))-1))
	e := uint32(0)
	for _, chunk := range m.chunks[:len(m.chunks)-1] {
		for j := range chunk {
			e++
			m.index[m.freeSlot(chunk[j].hash)] = e
		}
	}
}

// Get returns the value stored under key, and whether it was present.
func (m *Map[T]) Get(key Value) (T, bool) {
	if ent := m.find(key.Hash(), key); ent != nil {
		return ent.val, true
	}
	var zero T
	return zero, false
}

// Put stores v under key, replacing any previous value.
func (m *Map[T]) Put(key Value, v T) {
	ent, _ := m.upsert(key.Hash(), key)
	ent.val = v
}

// Update applies f to the value stored under key (or the zero value if
// absent) and stores the result. It reports whether the key was present.
// f must not use the map.
func (m *Map[T]) Update(key Value, f func(old T, present bool) T) bool {
	ent, present := m.upsert(key.Hash(), key)
	ent.val = f(ent.val, present)
	return present
}

// Len returns the number of keys in the map.
func (m *Map[T]) Len() int { return m.n }

// sparseClear is how many index slots per key make Clear find each key's
// slot from its stored hash instead of zeroing the whole index: a probe
// costs about as much as zeroing this many slots.
const sparseClear = 32

// Clear empties the map and keeps its storage, so refilling it up to the key
// count it held allocates nothing. Every used entry is zeroed, so no key or
// value stays reachable from the map; Range then restarts in first-insertion
// order. The cost is O(keys), not O(capacity): when the keys are few for the
// index, each one's slot is found from its stored hash and zeroed alone.
func (m *Map[T]) Clear() {
	if m.n == 0 {
		return
	}
	sparse := m.n*sparseClear < len(m.index)
	if !sparse {
		clear(m.index)
	}
	mask := uint64(len(m.index) - 1)
	e, left := uint32(0), m.n
	for _, chunk := range m.chunks {
		if left == 0 {
			break
		}
		chunk = chunk[:min(len(chunk), left)]
		left -= len(chunk)
		for j := 0; sparse && j < len(chunk); j++ {
			// Slots earlier on the probe sequence may be zeroed already, so
			// the search looks for this entry's number, not for a gap.
			e++
			i := (chunk[j].hash * hashMix) >> m.shift
			for m.index[i] != e {
				i = (i + 1) & mask
			}
			m.index[i] = 0
		}
		clear(chunk)
	}
	m.n = 0
}

// Range calls f for every key/value pair, in the order the keys were first
// inserted, until f returns false. f must not insert into the map.
func (m *Map[T]) Range(f func(key Value, v T) bool) {
	left := m.n
	for _, chunk := range m.chunks {
		if len(chunk) > left {
			chunk = chunk[:left]
		}
		for j := range chunk {
			if !f(chunk[j].key, chunk[j].val) {
				return
			}
		}
		left -= len(chunk)
	}
}
