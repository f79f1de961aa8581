package val

import "strings"

// Chunk sizes: the most one retained tuple or string can pin. A tuple chunk
// is 255 Values, not 256: the runtime puts an 8-byte header in front of a
// pointer-carrying allocation this large, and 256*24+8 bytes would spill from
// the 6144-byte size class into the 6528-byte one.
const (
	slabChunk = 255  // Values per tuple chunk (6 KB)
	textChunk = 2048 // bytes per text chunk
)

// Slab carves tuples and decoded strings out of shared chunks, for the
// places that build one per element — a link's frame decoder, a lambda's
// tuple constructor, a join's output — where an allocation per tuple and per
// string was most of a job's mallocs.
//
// Ownership: chunks are append-only and belong to the garbage collector. A
// Slab never resets, recycles or pools a chunk, and has no method that could;
// it only forgets a chunk once it is full. A chunk therefore lives exactly as
// long as something carved from it is reachable: a value that outlives its
// bag (a join build side, the solution set, a stored dataset) costs memory,
// at most its chunk, and never a wrong bag. No lifetime analysis is relied
// on.
//
// A Slab has one owner — an operator host or a link's delivering goroutine —
// and is not safe for concurrent use. The zero Slab is ready; it must not be
// copied once used. A nil *Slab is valid and gives every tuple and string an
// allocation of its own, which is what a one-off caller wants.
type Slab struct {
	free []Value         // unused tail of the newest tuple chunk
	txt  strings.Builder // the newest text chunk; it never grows past its capacity
}

// Make returns n zeroed Values carved from the slab, for the caller to fill
// and wrap with Tuple. A tuple wider than a quarter chunk is allocated on its
// own, which bounds what an abandoned chunk tail wastes.
func (s *Slab) Make(n int) []Value {
	if s == nil || n > slabChunk/4 {
		return make([]Value, n)
	}
	if n > len(s.free) {
		s.free = make([]Value, slabChunk)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Tuple returns a tuple Value holding a copy of fields, carved from the slab.
func (s *Slab) Tuple(fields ...Value) Value {
	out := s.Make(len(fields))
	copy(out, fields)
	return Tuple(out...)
}

// text returns b's bytes as a string carved from the slab. The Builder is
// only ever appended to within its capacity, so strings handed out earlier
// keep their bytes; a full one is abandoned to the strings that alias it.
func (s *Slab) text(b []byte) string {
	if s == nil || len(b) > textChunk/4 {
		return string(b)
	}
	if len(b) > s.txt.Cap()-s.txt.Len() {
		s.txt = strings.Builder{}
		s.txt.Grow(textChunk)
	}
	n := s.txt.Len()
	s.txt.Write(b)
	return s.txt.String()[n:]
}
