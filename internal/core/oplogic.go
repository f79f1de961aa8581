package core

import (
	"fmt"

	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/val"
)

// beginKind prepares kind-specific state for a new output bag. A keyed
// kind fills the table its previous bag left cleared in the run (keyedTable).
// For joins it implements loop-invariant hoisting: when enabled and the
// selected build input bag is the same as for the previous output, the
// cached hash table is reused instead of being rebuilt (paper Sec. 5.3); a
// stale one is cleared and rebuilt in place.
func (h *host) beginKind(run *outputRun) error {
	switch h.op.Synth {
	case SynthCombineByKey:
		run.hash = keyedTable(h.op, run.hash)
		return nil
	case SynthLocalDistinct:
		run.distinct = keyedTable(h.op, run.distinct)
		return nil
	case SynthPartialSum, SynthPartialCount, SynthPartialReduce:
		return nil
	}
	switch h.op.Instr.Kind {
	case ir.OpJoin:
		if h.rt.opts.Hoisting && h.cachedBuild != nil {
			if h.cachedBuildPos == run.inPos[0] {
				run.build = h.cachedBuild
				run.slotDone[0] = true
				h.joinReuses.Inc()
				if h.trc != nil {
					h.trc.Instant("hoist", "build_reuse", h.machine, h.lane,
						map[string]any{"pos": run.pos, "build_pos": run.inPos[0]})
				}
				return nil
			}
			h.cachedBuild.Clear()
			run.build, h.cachedBuild = h.cachedBuild, nil
		}
		run.build = keyedTable(h.op, run.build)
	case ir.OpReduceByKey:
		run.hash = keyedTable(h.op, run.hash)
	case ir.OpDeltaMerge:
		h.beginDeltaMerge(run)
	case ir.OpDistinct:
		run.distinct = keyedTable(h.op, run.distinct)
	case ir.OpCombine, ir.OpReadFile, ir.OpWriteFile:
		run.args = sizedVals(run.args, len(h.op.Inputs))
	}
	return nil
}

// keyedTable returns the empty table a keyed kind fills for its next output
// bag: m, the one an earlier bag of the host left cleared (releaseRun), or a
// new one on the host's first bag. A host runs one output bag at a time, so
// two bags never share a table, and a table's capacity is the largest bag
// the host has folded.
func keyedTable[T any](op *PlanOp, m *val.Map[T]) *val.Map[T] {
	if m == nil {
		return val.NewMap[T](0)
	}
	if tableHook != nil {
		tableHook(op.Instr.Var)
	}
	return m
}

// slotUse is how the current output bag takes one input slot right now.
type slotUse uint8

const (
	slotWaits   slotUse = iota // not yet: the kind is consuming another slot first
	slotStreams                // element by element, through consume
	slotWhole                  // as a whole once complete, so it stays buffered
)

func (h *host) slotUse(run *outputRun, i int) slotUse {
	switch h.op.Instr.Kind {
	case ir.OpJoin:
		// With hoisting the build slot may have been done from the start.
		if i == 1 && !run.slotDone[0] {
			return slotWaits
		}
	case ir.OpCross:
		// The broadcast right side is re-read for every left element, so
		// reuse across iteration steps needs no rebuilding.
		if i == 1 {
			return slotWhole
		}
		if !h.bagFor(run, 1).complete {
			return slotWaits
		}
	case ir.OpWriteFile:
		if i == 0 {
			return slotWhole // the data; slot 1 is the file name
		}
	case ir.OpDeltaMerge:
		// Once the state is seeded (no seed table), a step only waits for
		// its seed bag to complete, so the low-water mark passes no bag
		// still in flight. A combiner clones the kind but has no seed.
		if i == 0 && run.seedHash == nil && h.op.Synth == SynthNone {
			return slotWhole
		}
	}
	return slotStreams
}

// pump advances the current output bag as far as the buffered input allows
// and reports whether the bag is finished. It is called after every event
// that buffered something and must be resumable: progress is tracked in the
// run's cursors and slotDone flags. Elements that OnBatch streams take the
// same consume step without passing through here.
func (h *host) pump() (bool, error) {
	run := h.cur
	for i := range h.op.Inputs {
		if run.slotDone[i] {
			continue
		}
		use := h.slotUse(run, i)
		if use == slotWaits {
			continue
		}
		b := h.bagFor(run, i)
		if use == slotStreams && run.cursor[i] < b.elems.len() {
			for c := run.cursor[i]; c < b.elems.len(); {
				s := b.elems.span(c)
				for _, x := range s {
					if err := h.consume(run, i, x); err != nil {
						return false, err
					}
				}
				c += len(s)
			}
			if h.inbufs[i].singleUse {
				b.elems.reset()
			} else {
				run.cursor[i] = b.elems.len()
			}
		}
		if !b.complete {
			continue
		}
		run.slotDone[i] = true
		if err := h.endSlot(run, i, use); err != nil {
			return false, err
		}
	}
	for _, d := range run.slotDone {
		if !d {
			return false, nil
		}
	}
	return true, h.finishKind(run)
}

// consume is the per-element step of every kind: x is one element of the
// bag the run reads on slot i. Element-wise kinds emit immediately — this
// is what makes the dataflow pipelined end to end; the others fold x into
// the run's state for finishKind.
func (h *host) consume(run *outputRun, i int, x val.Value) error {
	if h.op.Synth != SynthNone {
		return h.consumePartial(run, x)
	}
	switch h.op.Instr.Kind {
	case ir.OpCopy, ir.OpPhi, ir.OpUnion:
		return h.emit(run, x)
	case ir.OpMap:
		// A lending map with no stages builds its tuple in the lent tuple,
		// free again once emit returns (runStages lends for one with stages).
		lend := h.op.Lends && len(h.op.Stages) == 0
		if lend {
			h.frame.Out = h.lent[:]
		}
		y, err := h.call(x)
		h.frame.Out = nil
		if err != nil {
			return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
		}
		if err := h.emit(run, y); err != nil {
			return err
		}
		if lend && scratchHook != nil {
			scratchHook(h.lent[:], true)
		}
	case ir.OpFlatMap:
		y, err := h.call(x)
		if err != nil {
			return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
		}
		if y.Kind() != val.KindTuple {
			return fmt.Errorf("core: %s: flatMap function returned %s, want tuple", h.op.Instr.Var, y.Kind())
		}
		for _, f := range y.Fields() {
			if err := h.emit(run, f); err != nil {
				return err
			}
		}
	case ir.OpFilter:
		keep, err := h.call(x)
		if err != nil {
			return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
		}
		if keep.Kind() != val.KindBool {
			return fmt.Errorf("core: %s: filter predicate returned %s, want bool", h.op.Instr.Var, keep.Kind())
		}
		if keep.AsBool() {
			return h.emit(run, x)
		}
	case ir.OpJoin:
		// Slot 0 builds the hash table, slot 1 streams probes against it.
		k, v, err := pairParts(x, h.op.Instr.Var)
		if err != nil {
			return err
		}
		if i == 0 {
			// A key's first value is a one-element slice carved from the
			// slab, so a key that occurs once on the build side (a dimension
			// table, a degree-1 node) allocates nothing of its own; a second
			// value outgrows that slice and moves the group to the heap.
			run.build.Update(k, func(old []val.Value, present bool) []val.Value {
				if !present {
					one := h.slab.Make(1)
					one[0] = v
					return one
				}
				return append(old, v)
			})
		} else if matches, ok := run.build.Get(k); ok {
			for _, lv := range matches {
				if err := h.emitTuple(run, k, lv, v); err != nil {
					return err
				}
			}
		}
	case ir.OpCross:
		right := &h.bagFor(run, 1).elems
		for c := 0; c < right.len(); {
			s := right.span(c)
			for _, r := range s {
				if err := h.emitTuple(run, x, r); err != nil {
					return err
				}
			}
			c += len(s)
		}
	case ir.OpReduceByKey:
		return h.foldInto(run.hash, x)
	case ir.OpDeltaMerge:
		if i == 0 {
			return h.foldInto(run.seedHash, x)
		}
		run.count++
		return h.foldInto(run.hash, x)
	case ir.OpSolution:
		// Discarded: the edge only names the step to dump (finishSolution).
	case ir.OpReduce:
		return h.foldAcc(run, x)
	case ir.OpSum:
		return h.addSum(run, x)
	case ir.OpCount:
		if h.op.Inputs[0].Combined {
			// The input holds per-instance partial counts, not raw
			// elements: merge by summing.
			run.count += x.AsInt()
		} else {
			run.count++
		}
	case ir.OpDistinct:
		return h.emitIfNew(run, x)
	case ir.OpCombine, ir.OpReadFile, ir.OpWriteFile:
		// A singleton input, captured into run.args[i].
		if run.args[i].IsValid() {
			return fmt.Errorf("core: %s: input %d holds more than one element (scalar variable bound to a non-singleton bag)", h.op.Instr.Var, i)
		}
		run.args[i] = x
	default:
		return fmt.Errorf("core: no runtime logic for %s", h.op.Instr.Kind)
	}
	return nil
}

// foldInto folds one (key, value) pair into a per-run table with the
// operator's UDF — the pre-aggregation shape reduceByKey, its combiner and
// deltaMerge share.
func (h *host) foldInto(m *val.Map[val.Value], x val.Value) error {
	k, v, err := pairParts(x, h.op.Instr.Var)
	if err != nil {
		return err
	}
	var udfErr error
	m.Update(k, func(old val.Value, present bool) val.Value {
		if !present {
			return v
		}
		y, err := h.call2(old, v)
		if err != nil {
			udfErr = err
		}
		return y
	})
	if udfErr != nil {
		return fmt.Errorf("core: %s: %w", h.op.Instr.Var, udfErr)
	}
	return nil
}

// foldAcc folds x into the reduce accumulator.
func (h *host) foldAcc(run *outputRun, x val.Value) error {
	if !run.accSet {
		run.acc, run.accSet = x, true
		return nil
	}
	y, err := h.call2(run.acc, x)
	if err != nil {
		return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
	}
	run.acc = y
	return nil
}

func (h *host) addSum(run *outputRun, x val.Value) error {
	switch x.Kind() {
	case val.KindInt:
		run.sumInt += x.AsInt()
	case val.KindFloat:
		run.sumIsF = true
		run.sumFloat += x.AsFloat()
	default:
		return fmt.Errorf("core: %s: sum of %s element", h.op.Instr.Var, x.Kind())
	}
	return nil
}

func (h *host) emitSum(run *outputRun) error {
	if run.sumIsF {
		return h.emit(run, val.Float(run.sumFloat+float64(run.sumInt)))
	}
	return h.emit(run, val.Int(run.sumInt))
}

// emitIfNew streams first occurrences, so distinct stays pipelined.
func (h *host) emitIfNew(run *outputRun, x val.Value) error {
	if !run.distinct.Update(x, func(struct{}, bool) struct{} { return struct{}{} }) {
		return h.emit(run, x)
	}
	return nil
}

// emitGroups emits a fold table as (key, value) pairs.
func (h *host) emitGroups(run *outputRun) (err error) {
	run.hash.Range(func(k, v val.Value) bool {
		err = h.emitTuple(run, k, v)
		return err == nil
	})
	return err
}

// endSlot runs once when slot i's bag is complete and fully consumed.
func (h *host) endSlot(run *outputRun, i int, use slotUse) error {
	switch h.op.Instr.Kind {
	case ir.OpJoin:
		if i == 0 {
			h.rt.joinBuilds.Add(1)
			h.joinBuilds.Inc()
			if h.rt.opts.Hoisting {
				h.cachedBuild = run.build
				h.cachedBuildPos = run.inPos[0]
			}
		}
	case ir.OpCombine, ir.OpReadFile, ir.OpWriteFile:
		if use == slotStreams && !run.args[i].IsValid() {
			return fmt.Errorf("core: %s: input %d is empty, want exactly one element", h.op.Instr.Var, i)
		}
	}
	return nil
}

// finishKind is the tail of every kind, run once every slot is exhausted:
// kinds that emit on completion do so here.
func (h *host) finishKind(run *outputRun) error {
	if h.op.Synth != SynthNone {
		return h.finishPartial(run)
	}
	switch h.op.Instr.Kind {
	case ir.OpSingleton:
		return h.emit(run, h.op.Instr.Lit)
	case ir.OpReduceByKey:
		return h.emitGroups(run)
	case ir.OpDeltaMerge:
		return h.finishDeltaMerge(run)
	case ir.OpSolution:
		return h.finishSolution(run)
	case ir.OpReduce:
		if run.accSet {
			return h.emit(run, run.acc)
		}
	case ir.OpSum:
		return h.emitSum(run)
	case ir.OpCount:
		return h.emit(run, val.Int(run.count))
	case ir.OpCombine:
		y, err := h.apply(run.args)
		if err != nil {
			return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
		}
		return h.emit(run, y)
	case ir.OpReadFile:
		return h.finishReadFile(run)
	case ir.OpWriteFile:
		return h.finishWriteFile(run)
	}
	return nil
}

func (h *host) finishReadFile(run *outputRun) error {
	name := run.args[0]
	if name.Kind() != val.KindString {
		return fmt.Errorf("core: %s: file name is %s, want string", h.op.Instr.Var, name.Kind())
	}
	// This instance reads its partition in place from the store
	// (internal/store, internal/dfs, a TCP worker's shipped input). An emit
	// error is returned as is; a read error names the operator.
	if h.readEmit == nil {
		h.readEmit = func(e val.Value) error {
			h.readErr = h.emit(h.readRun, e)
			return h.readErr
		}
	}
	h.readRun, h.readErr = run, nil
	err := h.rt.store.ReadPartition(name.AsStr(), h.inst, h.op.Par, &h.slab, h.readEmit)
	h.readRun = nil
	if h.readErr != nil {
		return h.readErr
	}
	if err != nil {
		return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
	}
	return nil
}

func (h *host) finishWriteFile(run *outputRun) error {
	name := run.args[1]
	if name.Kind() != val.KindString {
		return fmt.Errorf("core: %s: file name is %s, want string", h.op.Instr.Var, name.Kind())
	}
	// A store takes one slice, and may keep it: the TCP worker's does
	// (MemStore and dfs copy). The bag's chunks are reset when it is
	// recycled, so they are copied into a slice of the store's own.
	out := h.bagFor(run, 0).elems.flatten()
	if err := h.rt.store.WriteDataset(name.AsStr(), out); err != nil {
		return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
	}
	return nil
}

func pairParts(x val.Value, op string) (k, v val.Value, err error) {
	k, v, ok := x.AsPair()
	if !ok {
		return val.Value{}, val.Value{}, fmt.Errorf("core: %s requires (key, value) pairs, got %s", op, x)
	}
	return k, v, nil
}
