package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/mitos-project/mitos/internal/val"
)

// Delta/workset iterations (Ewen et al., "Spinning Fast Iterative Data
// Flows"): a deltaMerge operator holds the solution set of an iterative
// computation as persistent, hash-partitioned keyed state, so each loop
// step processes only the changed elements (the workset) instead of
// re-deriving the full bag. The state lives outside the bag machinery in
// per-(operator, instance) solutionStores owned by the runtime; the bags
// flowing through the dataflow are the per-step deltas, which keep their
// ordinary bag identifiers so pipelining, hoisting, combiners, chaining,
// and execution templates all apply unchanged.

// DeltaStep reports what one loop step did to one deltaMerge's solution
// set, aggregated across instances in Result.DeltaSteps.
type DeltaStep struct {
	// Pos is the execution-path position of the step's deltaMerge bag.
	Pos int
	// In counts raw delta elements received (the workset size).
	In int64
	// Changed counts keys whose merged value was new or changed — the
	// elements emitted as the next workset.
	Changed int64
	// Touched counts index operations: folded candidates merged, plus (in
	// the -delta=off ablation) the full per-step index rebuild.
	Touched int64
	// Elements and Bytes are the solution set's size after the step.
	Elements int64
	Bytes    int64
	// DurNS is the wall time from the previous step's merge (or store
	// creation) to this step's merge completing — the per-step cadence.
	DurNS int64
}

// stateKey identifies one instance's partition of one deltaMerge's state.
type stateKey struct {
	op   int
	inst int
}

// undoEntry records how to roll one key back across one applied step:
// either the key was inserted (present=false) or overwritten (present=true
// with the previous value).
type undoEntry struct {
	key     val.Value
	old     val.Value
	present bool
}

type undoStep struct {
	pos  int
	ents []undoEntry
}

// solutionStore is one instance's partition of a deltaMerge solution set.
// The deltaMerge host is the only writer (apply); solution hosts read
// concurrently (snapshot) — with pipelining the merge may run steps ahead
// of an in-loop reader, so when the plan marks StateJournal the store keeps
// per-step undo records and reconstructs the step a reader targets.
type solutionStore struct {
	mu      sync.Mutex
	idx     *val.Map[val.Value]
	seeded  bool
	applied int   // path position of the last merged step
	bytes   int64 // approximate encoded size of the index contents
	journal bool
	undo    []undoStep  // applied steps' undo records, ascending position
	changed []val.Value // apply's result, reused from step to step
	readers []int       // per attached solution reader: last targeted position
	steps   []DeltaStep
	created time.Time
	lastOp  time.Time
}

// stateStore returns (creating on first use) the state partition of
// deltaMerge operator op for instance inst. Both the deltaMerge host and
// any solution hosts resolve their store here at Open; instance co-location
// (i%machines placement on both backends) guarantees they meet in the same
// process.
func (rt *runtime) stateStore(op *PlanOp, inst int) *solutionStore {
	rt.stateMu.Lock()
	defer rt.stateMu.Unlock()
	if rt.stateStores == nil {
		rt.stateStores = make(map[stateKey]*solutionStore)
	}
	k := stateKey{op: op.ID, inst: inst}
	s := rt.stateStores[k]
	if s == nil {
		s = &solutionStore{
			idx:     val.NewMap[val.Value](0),
			journal: op.StateJournal,
			created: time.Now(),
		}
		rt.stateStores[k] = s
	}
	return s
}

// isSeeded reports whether the seed bag has been ingested.
func (s *solutionStore) isSeeded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seeded
}

// addReader registers one solution reader and returns its slot, used to
// garbage-collect undo records all readers have moved past.
func (s *solutionStore) addReader() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readers = append(s.readers, 0)
	return len(s.readers) - 1
}

// apply merges one step into the state: the (already key-folded) seed is
// ingested on the first step, then each folded delta candidate is merged
// against the indexed value with merge (the deltaMerge host's UDF call). It
// returns the (key, merged) pairs that changed, carved from slab (the calling
// host's) and valid until the next apply — the caller emits them AFTER this
// returns, outside the lock, because emitting can block on backpressure while
// a solution reader holds (or waits for) the lock. incremental=false is the
// -delta=off ablation: the whole index is rebuilt from scratch every step,
// modeling full re-derivation, before the same merge runs — outputs are
// identical, only the per-step cost changes from O(|delta|) to O(|solution|).
func (s *solutionStore) apply(pos int, seed, cand *val.Map[val.Value], merge func(old, v val.Value) (val.Value, error), incremental bool, in int64, slab *val.Slab) ([]val.Value, DeltaStep, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ents []undoEntry
	var touched int64
	if !s.seeded {
		if seed != nil {
			seed.Range(func(k, v val.Value) bool {
				s.idx.Put(k, v)
				s.bytes += int64(val.EncodedSize(k) + val.EncodedSize(v))
				if s.journal {
					ents = append(ents, undoEntry{key: k})
				}
				touched++
				return true
			})
		}
		s.seeded = true
	}
	if !incremental {
		// The ablation re-inserts every entry, O(|solution|) a step, whatever
		// the table costs per insert: BENCH_delta.json's on/off shape stands.
		fresh := val.NewMap[val.Value](s.idx.Len())
		s.idx.Range(func(k, v val.Value) bool {
			fresh.Put(k, v)
			touched++
			return true
		})
		s.idx = fresh
	}
	// Every candidate may change, so the scratch is sized for all of them
	// at once rather than doubled through a large step.
	changed := slices.Grow(s.changed[:0], cand.Len())
	var udfErr error
	cand.Range(func(k, v val.Value) bool {
		touched++
		s.idx.Update(k, func(old val.Value, present bool) val.Value {
			if !present {
				s.bytes += int64(val.EncodedSize(k) + val.EncodedSize(v))
				changed = append(changed, slab.Tuple(k, v))
				if s.journal {
					ents = append(ents, undoEntry{key: k})
				}
				return v
			}
			merged, err := merge(old, v)
			if err != nil {
				udfErr = err
				return old
			}
			if merged.Equal(old) {
				return old
			}
			s.bytes += int64(val.EncodedSize(merged) - val.EncodedSize(old))
			changed = append(changed, slab.Tuple(k, merged))
			if s.journal {
				ents = append(ents, undoEntry{key: k, old: old, present: true})
			}
			return merged
		})
		return udfErr == nil
	})
	s.changed = changed
	if udfErr != nil {
		return nil, DeltaStep{}, udfErr
	}
	if s.journal {
		s.undo = append(s.undo, undoStep{pos: pos, ents: ents})
	}
	s.applied = pos
	now := time.Now()
	since := s.lastOp
	if since.IsZero() {
		since = s.created
	}
	s.lastOp = now
	step := DeltaStep{
		Pos:      pos,
		In:       in,
		Changed:  int64(len(changed)),
		Touched:  touched,
		Elements: int64(s.idx.Len()),
		Bytes:    s.bytes,
		DurNS:    now.Sub(since).Nanoseconds(),
	}
	s.steps = append(s.steps, step)
	return changed, step, nil
}

// snapshot returns the full solution set as it stood after step target (0 =
// before any step). When the merge has pipelined past target, the undo
// journal rolls the overlayed keys back. The caller emits the returned
// pairs, carved from its slab, outside the lock (see apply).
func (s *solutionStore) snapshot(target, reader int, slab *val.Slab) ([]val.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reader >= 0 && reader < len(s.readers) && target > s.readers[reader] {
		s.readers[reader] = target
	}
	out := make([]val.Value, 0, s.idx.Len())
	if s.applied <= target {
		s.idx.Range(func(k, v val.Value) bool {
			out = append(out, slab.Tuple(k, v))
			return true
		})
		s.gcUndo()
		return out, nil
	}
	if !s.journal {
		return nil, fmt.Errorf("state advanced to step %d past solution read at %d without a journal (plan bug)", s.applied, target)
	}
	// Overlay: for every key touched after target, its value as of target
	// — the FIRST undo record at a position > target wins.
	type rollback struct {
		old     val.Value
		present bool
	}
	late := s.undo
	for len(late) > 0 && late[0].pos <= target {
		late = late[1:]
	}
	n := 0
	for _, st := range late {
		n += len(st.ents)
	}
	ov := val.NewMap[rollback](n)
	for _, st := range late {
		for _, e := range st.ents {
			ov.Update(e.key, func(first rollback, present bool) rollback {
				if present {
					return first
				}
				return rollback{old: e.old, present: e.present}
			})
		}
	}
	s.idx.Range(func(k, v val.Value) bool {
		if r, ok := ov.Get(k); ok {
			if r.present {
				out = append(out, slab.Tuple(k, r.old))
			}
			return true
		}
		out = append(out, slab.Tuple(k, v))
		return true
	})
	s.gcUndo()
	return out, nil
}

// gcUndo drops undo steps every reader has targeted past. Called with mu
// held.
func (s *solutionStore) gcUndo() {
	if len(s.undo) == 0 || len(s.readers) == 0 {
		return
	}
	min := s.readers[0]
	for _, t := range s.readers[1:] {
		if t < min {
			min = t
		}
	}
	keep := 0
	for keep < len(s.undo) && s.undo[keep].pos <= min {
		keep++
	}
	if keep > 0 {
		s.undo = append(s.undo[:0], s.undo[keep:]...)
	}
}

// summary returns this partition's final size and per-step records. Called
// after the job finished (no concurrent apply), but locks anyway.
func (s *solutionStore) summary() (elements, bytes int64, steps []DeltaStep) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.idx.Len()), s.bytes, s.steps
}

// deltaSummary aggregates all state partitions of the runtime: totals over
// every step, final solution-set size, and the per-step series merged
// across instances (sums per position; DurNS is the slowest instance).
func (rt *runtime) deltaSummary() (in, changed, touched, elements, bytes int64, steps []DeltaStep) {
	rt.stateMu.Lock()
	stores := make([]*solutionStore, 0, len(rt.stateStores))
	for _, s := range rt.stateStores {
		stores = append(stores, s)
	}
	rt.stateMu.Unlock()
	byPos := make(map[int]*DeltaStep)
	for _, s := range stores {
		el, by, sts := s.summary()
		elements += el
		bytes += by
		for _, st := range sts {
			in += st.In
			changed += st.Changed
			touched += st.Touched
			m := byPos[st.Pos]
			if m == nil {
				m = &DeltaStep{Pos: st.Pos}
				byPos[st.Pos] = m
			}
			m.In += st.In
			m.Changed += st.Changed
			m.Touched += st.Touched
			m.Elements += st.Elements
			m.Bytes += st.Bytes
			if st.DurNS > m.DurNS {
				m.DurNS = st.DurNS
			}
		}
	}
	steps = make([]DeltaStep, 0, len(byPos))
	for _, m := range byPos {
		steps = append(steps, *m)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].Pos < steps[j].Pos })
	return in, changed, touched, elements, bytes, steps
}

// beginDeltaMerge prepares one step's run: the candidate fold table, kept
// from step to step, and — on this instance's first step only — the seed
// fold table. Later steps take the seed slot as a whole bag (slotUse): they
// wait for its end-of-bags and never read its elements.
func (h *host) beginDeltaMerge(run *outputRun) {
	run.hash = keyedTable(h.op, run.hash)
	if !h.state.isSeeded() {
		run.seedHash = val.NewMap[val.Value](0)
	}
}

// finishDeltaMerge closes one step: the seed (first step only) and the delta
// were folded as they streamed in; now that both bags are complete the
// candidates are merged into the state store in one atomic step and the
// changed pairs emitted as the next workset.
func (h *host) finishDeltaMerge(run *outputRun) error {
	changed, step, err := h.state.apply(run.pos, run.seedHash, run.hash, h.call2, h.rt.opts.Delta, run.count, &h.slab)
	if err != nil {
		return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
	}
	h.deltaIn.Add(step.In)
	h.deltaChanged.Add(step.Changed)
	h.deltaTouched.Add(step.Touched)
	h.solutionElements.Max(step.Elements)
	h.solutionBytes.Max(step.Bytes)
	for _, y := range changed {
		if err := h.emit(run, y); err != nil {
			return err
		}
	}
	return nil
}

// finishSolution dumps the full solution set of its deltaMerge. The rewired
// input edge carries the deltaMerge's per-step delta; those elements are
// not the output (consume discards them) — the edge exists so bag selection
// names WHICH step the dump must reflect, and end-of-bag proves the store
// has merged it. A target of 0 (input slot unused) means the deltaMerge has
// not run on the path yet: the solution set at that point is empty (or,
// mid-pipeline, whatever the journal rolls back to).
func (h *host) finishSolution(run *outputRun) error {
	target := max(run.inPos[0], 0)
	ents, err := h.state.snapshot(target, h.readerSlot, &h.slab)
	if err != nil {
		return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
	}
	for _, e := range ents {
		if err := h.emit(run, e); err != nil {
			return err
		}
	}
	return nil
}

// startSolution selects the deltaMerge step a solution output at pos
// reflects: the latest occurrence of the deltaMerge's block — bounded by
// pos-1 when the deltaMerge sits later in the same block, since the
// solution executes before it within the visit. No occurrence means the
// deltaMerge has not run yet: the slot is unused, like a phi's unselected
// inputs.
func (h *host) startSolution(run *outputRun, pos int) {
	src := h.op.Inputs[0].Producer
	limit := pos
	if src.Block == h.op.Block && src.ID > h.op.ID {
		limit = pos - 1
	}
	if p := h.latestOcc(0, limit); p > 0 {
		run.inPos[0] = p
	} else {
		run.inPos[0] = -1
		run.slotDone[0] = true
	}
}
