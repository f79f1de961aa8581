package netcluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
	"github.com/mitos-project/mitos/internal/workload"
)

// TestInputShipmentByPartition pins the shipment law: the per-worker specs
// of a job together carry one copy of the input — their lengths sum to one
// full encoding plus at most one header per worker, not workers full copies —
// and worker w's spec holds exactly the stride partitions i with
// i%workers == w, element for element.
func TestInputShipmentByPartition(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 6, VisitsPerDay: 300, Pages: 50, WithDiff: true, Seed: 4}
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	var inputs, heads []Dataset
	for _, name := range st.Names() {
		elems, err := st.ReadDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, Dataset{Name: name, Elems: elems})
		heads = append(heads, Dataset{Name: name})
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			c := &Coordinator{cfg: CoordConfig{Workers: workers}}
			job, err := c.prepare(spec.Script(), st, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(job.specs) != workers {
				t.Fatalf("%d specs for %d workers", len(job.specs), workers)
			}
			full := AppendJobSpec(nil, specFromOptions(spec.Script(), job.opts, inputs))
			header := len(AppendJobSpec(nil, specFromOptions(spec.Script(), job.opts, heads)))
			total := 0
			for _, b := range job.specs {
				total += len(b)
			}
			if total < len(full)-header || total > len(full)+workers*header {
				t.Errorf("specs total %d bytes; one full encoding is %d, a header %d", total, len(full), header)
			}
			if workers == 1 && !bytes.Equal(job.specs[0], full) {
				t.Error("a single worker's spec differs from the full encoding")
			}
			for w, b := range job.specs {
				got, err := DecodeJobSpec(b)
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
				if got.Source != spec.Script() || got.Parallelism != workers {
					t.Fatalf("worker %d: spec header %q / parallelism %d", w, got.Source, got.Parallelism)
				}
				// Parallelism defaults to one read instance per worker, so
				// worker w hosts exactly partition w of every input.
				if len(got.Datasets) != len(inputs) {
					t.Fatalf("worker %d: %d dataset parts, want %d", w, len(got.Datasets), len(inputs))
				}
				for k, in := range inputs {
					ds, p := got.Datasets[k], w
					if ds.Name != in.Name || ds.Part != p || ds.Parts != workers {
						t.Fatalf("worker %d: got %q part %d of %d, want %q part %d of %d",
							w, ds.Name, ds.Part, ds.Parts, in.Name, p, workers)
					}
					n := 0
					for i := p; i < len(in.Elems); i += workers {
						if n >= len(ds.Elems) || !ds.Elems[n].Equal(in.Elems[i]) {
							t.Fatalf("worker %d: %q part %d differs from the stride at element %d", w, in.Name, p, n)
						}
						n++
					}
					if n != len(ds.Elems) {
						t.Fatalf("worker %d: %q part %d has %d elements, the stride %d", w, in.Name, p, len(ds.Elems), n)
					}
				}
			}
		})
	}
}

// TestWorkerStoreContract pins the worker store: shipped partitions are read
// in place and only under the job's partitioning, a shipped input is never
// readable whole, and only what the job wrote is reported back.
func TestWorkerStoreContract(t *testing.T) {
	shipped := []Dataset{{Name: "in", Part: 1, Parts: 2, Elems: []val.Value{val.Int(1), val.Int(3)}}}
	if _, err := newTrackingStore(3, shipped); err == nil {
		t.Error("a partition shipped as one of 2 was accepted by a job reading 3")
	}
	st, err := newTrackingStore(2, shipped)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := st.ReadPartitionBlocks("in", 1, 2)
	if err != nil || len(blocks) != 1 || len(blocks[0]) != 2 || &blocks[0][0] != &shipped[0].Elems[0] {
		t.Errorf("shipped partition not returned in place: %v, %v", blocks, err)
	}
	if _, err := st.ReadPartitionBlocks("in", 0, 2); err == nil {
		t.Error("a partition not shipped to this worker was read")
	}
	if _, err := st.ReadPartitionBlocks("in", 1, 3); err == nil {
		t.Error("a read under a mismatched partition count succeeded")
	}
	if _, err := st.ReadDataset("in"); !errors.Is(err, ErrPartitionedInput) {
		t.Errorf("ReadDataset of a shipped input: %v, want ErrPartitionedInput", err)
	}
	var nf *store.NotFoundError
	if _, err := st.ReadDataset("nope"); !errors.As(err, &nf) {
		t.Errorf("ReadDataset of a missing dataset: %v, want NotFoundError", err)
	}
	if _, err := st.ReadPartitionBlocks("nope", 0, 2); !errors.As(err, &nf) {
		t.Errorf("partition read of a missing dataset: %v, want NotFoundError", err)
	}

	out := []val.Value{val.Int(10), val.Int(11), val.Int(12)}
	if err := st.WriteDataset("out", []val.Value{val.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteDataset("out", out); err != nil {
		t.Fatal(err)
	}
	blocks, err = st.ReadPartitionBlocks("out", 0, 2) // a written dataset strides over the local copy
	if err != nil || len(blocks) != 1 || len(blocks[0]) != 2 || blocks[0][1].AsInt() != 12 {
		t.Errorf("partition 0 of 2 of a written dataset: %v, %v", blocks, err)
	}
	if got, err := st.ReadDataset("out"); err != nil || len(got) != 3 {
		t.Errorf("ReadDataset of a written dataset: %v, %v", got, err)
	}
	w := st.written()
	if len(w) != 1 || w[0].Name != "out" || len(w[0].Elems) != 3 {
		t.Errorf("written = %+v, want the last write of out and no input", w)
	}
}

// TestTCPMatchesSimParallelism runs more read partitions than workers, so a
// worker hosts two partitions of every input — at parallelism 3 only one of
// the two workers does, and placement is uneven.
func TestTCPMatchesSimParallelism(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 5, VisitsPerDay: 150, Pages: 40, WithDiff: true, Seed: 11}
	for _, par := range []int{3, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.Parallelism = par
			diffTCPvsSim(t, spec.Script(), spec.Generate, 2, opts, 0)
		})
	}
}
