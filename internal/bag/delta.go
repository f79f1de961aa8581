package bag

import (
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/val"
)

// DeltaState is the reference model of a deltaMerge solution set: keyed
// state indexed by key, with deterministic (first-insert) key order. The
// reference interpreters hold one DeltaState per deltaMerge instruction,
// persistent across loop steps; the distributed engine partitions the same
// state across instances (internal/core).
type DeltaState struct {
	idx    *val.Map[val.Value]
	seeded bool
}

// NewDeltaState returns an empty, unseeded state.
func NewDeltaState() *DeltaState {
	return &DeltaState{idx: val.NewMap[val.Value](0)}
}

// Seeded reports whether Seed has run.
func (s *DeltaState) Seeded() bool { return s.seeded }

// Seed folds the seed bag into the state by key with f. It runs once, the
// first time the deltaMerge instruction executes; seed elements are never
// emitted.
func (s *DeltaState) Seed(seed []val.Value, f *lang.UDF) error {
	if err := foldByKey(s.idx, seed, newCaller(f), "deltaMerge"); err != nil {
		return err
	}
	s.seeded = true
	return nil
}

// Apply merges one step's delta bag into the state: the delta is folded by
// key with f, each folded candidate is merged against the indexed value
// with f, and a (key, merged) pair is emitted for every key whose value is
// new or changed. With a commutative and associative f the emitted multiset
// is independent of element order and of how the delta is partitioned.
func (s *DeltaState) Apply(delta []val.Value, f *lang.UDF) ([]val.Value, error) {
	c := newCaller(f)
	cand := val.NewMap[val.Value](0)
	if err := foldByKey(cand, delta, c, "deltaMerge"); err != nil {
		return nil, err
	}
	changed := make([]val.Value, 0, cand.Len())
	var err error
	cand.Range(func(k, v val.Value) bool {
		old, ok := s.idx.Get(k)
		if !ok {
			s.idx.Put(k, v)
			changed = append(changed, val.Pair(k, v))
			return true
		}
		var merged val.Value
		if merged, err = c.call2(old, v); err != nil {
			return false
		}
		if !merged.Equal(old) {
			s.idx.Put(k, merged)
			changed = append(changed, val.Pair(k, merged))
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return changed, nil
}

// Solution returns the full solution set as (key, value) pairs, one per
// key, in first-insert order.
func (s *DeltaState) Solution() []val.Value { return pairs(s.idx) }
