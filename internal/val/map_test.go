package val

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestMapBasic(t *testing.T) {
	m := NewMap[int](4)
	if _, ok := m.Get(Str("a")); ok {
		t.Error("empty map Get returned present")
	}
	m.Put(Str("a"), 1)
	m.Put(Str("b"), 2)
	m.Put(Str("a"), 3) // replace
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	if v, ok := m.Get(Str("a")); !ok || v != 3 {
		t.Errorf("Get(a) = %d,%t", v, ok)
	}
	if v, ok := m.Get(Str("b")); !ok || v != 2 {
		t.Errorf("Get(b) = %d,%t", v, ok)
	}
}

func TestMapZeroValueUsable(t *testing.T) {
	var m Map[string]
	if _, ok := m.Get(Int(1)); ok {
		t.Error("zero map Get returned present")
	}
	m.Put(Int(1), "x")
	if v, ok := m.Get(Int(1)); !ok || v != "x" {
		t.Error("zero map Put/Get broken")
	}
}

func TestMapUpdate(t *testing.T) {
	var m Map[int64]
	add := func(d int64) func(int64, bool) int64 {
		return func(old int64, _ bool) int64 { return old + d }
	}
	if present := m.Update(Str("k"), add(5)); present {
		t.Error("Update on absent key reported present")
	}
	if present := m.Update(Str("k"), add(7)); !present {
		t.Error("Update on present key reported absent")
	}
	if v, _ := m.Get(Str("k")); v != 12 {
		t.Errorf("value = %d, want 12", v)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestMapRange(t *testing.T) {
	var m Map[int]
	for i := 0; i < 10; i++ {
		m.Put(Int(int64(i)), i*i)
	}
	sum := 0
	m.Range(func(k Value, v int) bool {
		sum += v
		return true
	})
	want := 0
	for i := 0; i < 10; i++ {
		want += i * i
	}
	if sum != want {
		t.Errorf("sum over Range = %d, want %d", sum, want)
	}
	// Early stop.
	count := 0
	m.Range(func(Value, int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early-stop Range visited %d", count)
	}
}

func TestMapTupleKeysAndCollisions(t *testing.T) {
	var m Map[int]
	// Many structurally distinct tuple keys.
	for i := 0; i < 200; i++ {
		m.Put(Tuple(Int(int64(i%10)), Int(int64(i/10))), i)
	}
	if m.Len() != 200 {
		t.Fatalf("Len = %d, want 200", m.Len())
	}
	for i := 0; i < 200; i++ {
		v, ok := m.Get(Tuple(Int(int64(i%10)), Int(int64(i/10))))
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d,%t", i, v, ok)
		}
	}
}

// modelKey draws a key from a universe of ids over three kinds; the string
// is the same key for the reference Go map.
func modelKey(r *rand.Rand, ids int) (Value, string) {
	id := r.Intn(ids)
	switch r.Intn(3) {
	case 0:
		return Int(int64(id)), fmt.Sprint("i", id)
	case 1:
		return Str(fmt.Sprint("page", id)), fmt.Sprint("s", id)
	default:
		return Tuple(Int(int64(id%7)), Str(fmt.Sprint("n", id/7))), fmt.Sprint("t", id)
	}
}

// TestMapMatchesModel drives a Map and a plain Go map (plus the order keys
// were first seen in) with one random Put/Update/Get stream, across several
// growth steps and from all three ways of making a Map.
func TestMapMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for name, m := range map[string]*Map[int]{"zero": {}, "unhinted": NewMap[int](0), "hinted": NewMap[int](100)} {
		if keys := matchModel(t, name, m, r, 6000, nil); keys < 1000 {
			t.Fatalf("%s: only %d keys inserted; the stream does not exercise growth", name, keys)
		}
	}
}

// TestMapClearMatchesModel is TestMapMatchesModel with Clear interleaved:
// after each one the model is empty too, and Len, Get, Update and Range must
// agree with it from the first op on. Runs of ops between clears are drawn
// long (the table grows) or short (a few keys in a large index), so both of
// Clear's ways of emptying the index run.
func TestMapClearMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for name, m := range map[string]*Map[int]{"zero": {}, "hinted": NewMap[int](100)} {
		var sparse, dense int
		next := 0
		matchModel(t, name, m, r, 20000, func(op int) bool {
			if op < next {
				return false
			}
			if r.Intn(2) == 0 {
				next = op + 1 + r.Intn(40)
			} else {
				next = op + 1 + r.Intn(3000)
			}
			if m.n*sparseClear < len(m.index) {
				sparse++
			} else {
				dense++
			}
			return true
		})
		if sparse < 3 || dense < 3 {
			t.Errorf("%s: %d sparse and %d dense clears, want a few of each", name, sparse, dense)
		}
	}
}

// matchModel runs ops random operations on m against a reference map and
// returns the keys inserted since the last clear. Before each op, clearNow
// (if set) may call for a Clear; Range order is checked before every Clear
// and at the end.
func matchModel(t *testing.T, name string, m *Map[int], r *rand.Rand, ops int, clearNow func(op int) bool) int {
	t.Helper()
	ref := map[string]int{}
	var order []string
	for op := 0; op < ops; op++ {
		if clearNow != nil && clearNow(op) {
			checkRange(t, name, m, ref, order)
			m.Clear()
			ref, order = map[string]int{}, order[:0]
			if m.Len() != 0 || slices.ContainsFunc(m.index, func(slot uint32) bool { return slot != 0 }) {
				t.Fatalf("%s: Len = %d after Clear, or an index slot still set", name, m.Len())
			}
		}
		k, s := modelKey(r, 400)
		old, had := ref[s]
		switch r.Intn(3) {
		case 0:
			m.Put(k, op)
			ref[s] = op
		case 1:
			present := m.Update(k, func(v int, present bool) int {
				if present != had || v != old {
					t.Errorf("%s: Update(%s) saw %d,%t, want %d,%t", name, s, v, present, old, had)
				}
				return v + op
			})
			if present != had {
				t.Errorf("%s: Update(%s) = %t, want %t", name, s, present, had)
			}
			ref[s] = old + op
		default:
			if v, ok := m.Get(k); ok != had || v != old {
				t.Fatalf("%s: Get(%s) = %d,%t, want %d,%t", name, s, v, ok, old, had)
			}
			continue
		}
		if !had {
			order = append(order, s)
		}
		if m.Len() != len(ref) {
			t.Fatalf("%s: Len = %d, want %d", name, m.Len(), len(ref))
		}
	}
	checkRange(t, name, m, ref, order)
	return len(order)
}

// checkRange checks that Range visits ref's keys in first-insertion order
// and stops when told to.
func checkRange(t *testing.T, name string, m *Map[int], ref map[string]int, order []string) {
	t.Helper()
	i := 0
	m.Range(func(k Value, v int) bool {
		if i >= len(order) || v != ref[order[i]] {
			t.Fatalf("%s: Range entry %d = %s: %d, want the %d keys of %v in first-insertion order", name, i, k, v, len(order), order)
		}
		i++
		return true
	})
	if i != len(order) {
		t.Errorf("%s: Range visited %d keys, want %d", name, i, len(order))
	}
	for stop := 1; stop <= len(order); stop *= 3 {
		seen := 0
		m.Range(func(Value, int) bool {
			seen++
			return seen < stop
		})
		if seen != stop {
			t.Errorf("%s: Range stopped after %d keys, want %d", name, seen, stop)
		}
	}
}

// TestMapEqualDecidesHit stores distinct keys under one forced hash, so they
// share a probe sequence from the same first slot: a hit is decided by Equal,
// never by the hashes agreeing, and rebuilding the index keeps them apart.
func TestMapEqualDecidesHit(t *testing.T) {
	const h = 42
	var m Map[int]
	keys := []Value{Int(1), Str("1"), Tuple(Int(1)), Float(1), Bool(true)}
	for i := 2; len(keys) < 40; i++ { // enough to grow the table twice
		keys = append(keys, Int(int64(i)))
	}
	for i, k := range keys {
		ent, present := m.upsert(h, k)
		if present {
			t.Fatalf("key %d (%s) hit an entry of another key", i, k)
		}
		ent.val = i
	}
	for i, k := range keys {
		if ent := m.find(h, k); ent == nil || ent.val != i {
			t.Errorf("find(%s) = %v, want entry %d", k, ent, i)
		}
		if _, present := m.upsert(h, k); !present {
			t.Errorf("upsert(%s) inserted a second entry", k)
		}
	}
	if ent := m.find(h, Str("absent")); ent != nil {
		t.Errorf("find of an absent key with a stored hash = %v", ent)
	}
	if m.Len() != len(keys) {
		t.Errorf("Len = %d, want %d", m.Len(), len(keys))
	}
}

// probes counts the index slots find inspects for a stored key.
func probes[T any](m *Map[T], key Value) int {
	h, n := key.Hash(), 1
	mask := uint64(len(m.index) - 1)
	for i := (h * hashMix) >> m.shift; !m.at(m.index[i] - 1).key.Equal(key); i = (i + 1) & mask {
		n++
	}
	return n
}

// TestMapPartitionResidue pins the routing pitfall: a shuffle sends an
// instance exactly the keys with one value of Hash() % parallelism, so for a
// power-of-two parallelism their low hash bits agree. An index slot taken
// from those bits has one slot in parallelism to start a probe from: at
// parallelism 4, 16 and 64 a hit reads 1.60, 4.66 and 16.66 slots where the
// mixed high bits read 1.26 to 1.29 throughout. The bound is what uniform
// hashing gives a half-full index, (1 + 1/(1-0.5))/2; it is checked when the
// index is at its fullest (16 384 keys) and at 20 000.
func TestMapPartitionResidue(t *testing.T) {
	for _, c := range []struct{ parallelism, residue uint64 }{{4, 0}, {4, 1}, {4, 2}, {4, 3}, {16, 5}, {64, 37}} {
		var m Map[struct{}]
		var keys []Value
		for i := int64(0); len(keys) < 20000; i++ {
			k := Int(i)
			if k.Hash()%c.parallelism != c.residue {
				continue
			}
			keys = append(keys, k)
			m.Put(k, struct{}{})
			if n := len(keys); n == 16384 || n == 20000 {
				total := 0
				for _, k := range keys {
					total += probes(&m, k)
				}
				if mean := float64(total) / float64(n); mean >= 1.5 {
					t.Errorf("Hash()%%%d == %d, %d keys in %d slots: mean probe length %.2f, want < 1.5", c.parallelism, c.residue, n, len(m.index), mean)
				}
			}
		}
	}
}

// TestMapAllocsPerGrowth: a table costs a chunk and an index per doubling,
// not an allocation per key, and nothing at all until something is inserted.
func TestMapAllocsPerGrowth(t *testing.T) {
	keys := make([]Value, 10000)
	for i := range keys {
		keys[i] = Int(int64(i))
	}
	if n := testing.AllocsPerRun(5, func() {
		m := NewMap[int64](0)
		for i, k := range keys {
			m.Put(k, int64(i))
		}
		if m.Len() != len(keys) {
			t.Fatalf("Len = %d", m.Len())
		}
	}); n > 40 {
		t.Errorf("10000 distinct keys into a fresh table: %v allocs, want <= 40", n)
	}
	var empty Map[int64]
	if n := testing.AllocsPerRun(100, func() {
		_, ok := empty.Get(keys[0])
		empty.Range(func(Value, int64) bool { ok = true; return true })
		if ok || empty.Len() != 0 {
			t.Fatal("the empty table holds something")
		}
	}); n != 0 {
		t.Errorf("reading an empty table: %v allocs, want 0", n)
	}
}

// TestMapClearAllocs: a cleared table refilled up to the key count it held
// allocates nothing, whether Clear zeroed the whole index or only the used
// slots (a few keys in a large table).
func TestMapClearAllocs(t *testing.T) {
	keys := make([]Value, 20000)
	for i := range keys {
		keys[i] = Int(int64(i))
	}
	var m Map[int64]
	for _, k := range keys[:10000] {
		m.Put(k, 1)
	}
	fill := 0
	for _, n := range []int{10000, 3} {
		if a := testing.AllocsPerRun(10, func() {
			m.Clear()
			fill++
			for _, k := range keys[fill : fill+n] { // a different key set each fill
				m.Put(k, int64(fill))
			}
			if m.Len() != n {
				t.Fatalf("Len = %d, want %d", m.Len(), n)
			}
		}); a != 0 {
			t.Errorf("Clear and refill %d keys: %v allocs, want 0", n, a)
		}
	}
}
