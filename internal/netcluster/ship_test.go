package netcluster

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dfs"
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
					elems := decodeShipped(t, ds)
					n := 0
					for i := p; i < len(in.Elems); i += workers {
						if n >= len(elems) || !elems[n].Equal(in.Elems[i]) {
							t.Fatalf("worker %d: %q part %d differs from the stride at element %d", w, in.Name, p, n)
						}
						n++
					}
					if n != len(elems) {
						t.Fatalf("worker %d: %q part %d has %d elements, the stride %d", w, in.Name, p, len(elems), n)
					}
				}
			}
		})
	}
}

// TestPrepareSpecsIndependentOfStore pins that a spec's partitions are
// element strides whatever keeps the input: a dfs store, whose own partitions
// are blocks, must ship the MemStore's bytes.
func TestPrepareSpecsIndependentOfStore(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 3, VisitsPerDay: 200, Pages: 20, WithDiff: true, Seed: 2}
	mem := store.NewMemStore()
	if err := spec.Generate(mem); err != nil {
		t.Fatal(err)
	}
	blocks := dfs.New(dfs.Config{BlockSize: 64})
	if err := spec.Generate(blocks); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		c := &Coordinator{cfg: CoordConfig{Workers: workers}}
		job, err := c.prepare(spec.Script(), mem, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := cloneSpecs(job.specs) // the next prepare encodes into them
		got, err := c.prepare(spec.Script(), blocks, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for w := range want {
			if !bytes.Equal(got.specs[w], want[w]) {
				t.Errorf("dfs store, %d workers: worker %d's spec differs from the MemStore's", workers, w)
			}
		}
	}
}

func cloneSpecs(specs [][]byte) [][]byte {
	out := make([][]byte, len(specs))
	for w, b := range specs {
		out[w] = bytes.Clone(b)
	}
	return out
}

// TestPrepareReusesSpecBuffers: a job's specs are encoded into the previous
// job's buffers when they are large enough and at most twice the size needed,
// into fresh ones otherwise, and either way are byte for byte what a fresh
// coordinator encodes. A job encoded into reused buffers allocates no spec
// bytes: the least of three prepares of it, since TotalAlloc also counts
// what other goroutines allocate meanwhile.
func TestPrepareReusesSpecBuffers(t *testing.T) {
	jobs := []struct {
		visits int
		reuse  bool
	}{{3000, false}, {3000, true}, {2000, true}, {3000, true}, {1000, false}, {900, true}, {6000, false}}
	const workers = 2
	c := &Coordinator{cfg: CoordConfig{Workers: workers}}
	var last []*byte // the first byte of each buffer of the last job
	for i, j := range jobs {
		spec := workload.VisitCountSpec{Days: 3, VisitsPerDay: j.visits, Pages: 20, WithDiff: true, Seed: 1}
		st := store.NewMemStore()
		if err := spec.Generate(st); err != nil {
			t.Fatal(err)
		}
		prepare := func() (*preparedJob, uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			job, err := c.prepare(spec.Script(), st, core.DefaultOptions())
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return job, after.TotalAlloc - before.TotalAlloc
		}
		job, allocated := prepare()
		fresh, err := (&Coordinator{cfg: CoordConfig{Workers: workers}}).prepare(spec.Script(), st, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		size := 0
		for w := range job.specs {
			if !bytes.Equal(job.specs[w], fresh.specs[w]) {
				t.Errorf("job %d: worker %d's spec differs from a fresh coordinator's", i, w)
			}
			reused := last != nil && &job.specs[w][:1][0] == last[w]
			if reused != j.reuse {
				t.Errorf("job %d (%d visits a day): worker %d's buffer reused = %v, want %v", i, j.visits, w, reused, j.reuse)
			}
			size += len(job.specs[w])
		}
		if j.reuse {
			for range 2 {
				_, again := prepare() // the same job, into the same buffers
				allocated = min(allocated, again)
			}
			if allocated > uint64(size)/4 {
				t.Errorf("job %d: prepare allocated %d bytes for %d bytes of specs encoded into reused buffers", i, allocated, size)
			}
		}
		last = last[:0]
		for _, b := range job.specs {
			last = append(last, &b[:1][0])
		}
	}
}

// growingStore appends an element to every dataset after each read of it,
// as a writer racing the shipment would.
type growingStore struct{ *store.MemStore }

func (g growingStore) ReadPartition(name string, part, parts int, slab *val.Slab, fn func(val.Value) error) error {
	err := g.MemStore.ReadPartition(name, part, parts, slab, fn)
	elems, _ := g.ReadDataset(name)
	g.WriteDataset(name, append(elems, val.Str("late")))
	return err
}

// TestPrepareRejectsInputChangedWhileShipping: a dataset that changes between
// the sizing and the encoding pass fails prepare instead of shipping a spec
// whose counts disagree with its elements.
func TestPrepareRejectsInputChangedWhileShipping(t *testing.T) {
	st := growingStore{store.NewMemStore()}
	st.WriteDataset("in", []val.Value{val.Str("a"), val.Str("b"), val.Str("c")})
	c := &Coordinator{cfg: CoordConfig{Workers: 2}}
	_, err := c.prepare(`readFile("in").writeFile("out")`, st, core.DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), `"in"`) || !strings.Contains(err.Error(), "changed") {
		t.Errorf("an input that grew between the passes: %v", err)
	}
}

// decodeShipped decodes a shipped partition as DecodeJobSpec left it.
func decodeShipped(t *testing.T, ds Dataset) []val.Value {
	t.Helper()
	if ds.Elems != nil {
		t.Fatalf("dataset %q part %d arrived decoded", ds.Name, ds.Part)
	}
	var out []val.Value
	for b := ds.Encoded; len(b) > 0; {
		v, n, err := val.Decode(b, nil)
		if err != nil {
			t.Fatalf("dataset %q part %d element %d: %v", ds.Name, ds.Part, len(out), err)
		}
		out, b = append(out, v), b[n:]
	}
	return out
}

// readAll collects one partition read of a worker store.
func readAll(st *trackingStore, name string, part, parts int) ([]val.Value, error) {
	var slab val.Slab
	var out []val.Value
	err := st.ReadPartition(name, part, parts, &slab, func(v val.Value) error {
		out = append(out, v)
		return nil
	})
	return out, err
}

// prepareSlack bounds what Coordinator.prepare allocates besides the specs
// it returns: compiling and planning the script, the partition counts, and
// each buffer's sizing margin. A copy of the visitcount input, 24 B per
// element, is 5.76 MB.
const prepareSlack = 256 << 10

// TestPrepareCopiesNoInput pins the coordinator's side of the shipment on the
// visitcount_tcp input shape: prepare reads every input out of the store
// partition by partition and encodes it straight into the specs, so the bytes
// it allocates are the specs' plus a fixed slack, and no decoded copy of the
// input exists on the way.
func TestPrepareCopiesNoInput(t *testing.T) {
	spec := workload.VisitCountSpec{Days: 60, VisitsPerDay: 4000, Pages: 400, WithDiff: true, Seed: 1}
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			c := &Coordinator{cfg: CoordConfig{Workers: workers}}
			var allocs []uint64
			specs := 0
			for range 5 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				job, err := c.prepare(spec.Script(), st, core.DefaultOptions())
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				allocs = append(allocs, after.TotalAlloc-before.TotalAlloc)
				specs = 0
				for _, b := range job.specs {
					specs += len(b)
				}
			}
			slices.Sort(allocs)
			median := allocs[len(allocs)/2]
			t.Logf("prepare allocates %d bytes (median of 5) for %d bytes of specs", median, specs)
			if median > uint64(specs+prepareSlack) {
				t.Errorf("prepare allocated %d bytes for %d bytes of specs: more than %d of slack", median, specs, prepareSlack)
			}
		})
	}
}

// TestWorkerStoreContract pins the worker store: a shipped partition decodes,
// on every read, to exactly its stride and is readable only under the job's
// partitioning, a shipped input is never readable whole, and only what the
// job wrote is reported back.
func TestWorkerStoreContract(t *testing.T) {
	stride := []val.Value{val.Int(1), val.Pair(val.Str("three"), val.Int(3))}
	spec, err := DecodeJobSpec(AppendJobSpec(nil, JobSpec{Source: "x", Datasets: []Dataset{{Name: "in", Part: 1, Parts: 2, Elems: stride}}}))
	if err != nil {
		t.Fatal(err)
	}
	shipped := spec.Datasets
	if _, err := newTrackingStore(3, shipped); err == nil {
		t.Error("a partition shipped as one of 2 was accepted by a job reading 3")
	}
	st, err := newTrackingStore(2, shipped)
	if err != nil {
		t.Fatal(err)
	}
	for read := range 2 {
		got, err := readAll(st, "in", 1, 2)
		if err != nil || len(got) != len(stride) || !got[0].Equal(stride[0]) || !got[1].Equal(stride[1]) {
			t.Errorf("read %d of the shipped partition: %v, %v, want the stride %v", read, got, err, stride)
		}
	}
	if _, err := readAll(st, "in", 0, 2); err == nil {
		t.Error("a partition not shipped to this worker was read")
	}
	if _, err := readAll(st, "in", 1, 3); err == nil {
		t.Error("a read under a mismatched partition count succeeded")
	}
	if _, err := st.ReadDataset("in"); !errors.Is(err, ErrPartitionedInput) {
		t.Errorf("ReadDataset of a shipped input: %v, want ErrPartitionedInput", err)
	}
	var nf *store.NotFoundError
	if _, err := st.ReadDataset("nope"); !errors.As(err, &nf) {
		t.Errorf("ReadDataset of a missing dataset: %v, want NotFoundError", err)
	}
	if _, err := readAll(st, "nope", 0, 2); !errors.As(err, &nf) {
		t.Errorf("partition read of a missing dataset: %v, want NotFoundError", err)
	}

	out := []val.Value{val.Int(10), val.Int(11), val.Int(12)}
	if err := st.WriteDataset("out", []val.Value{val.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteDataset("out", out); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(st, "out", 0, 2) // a written dataset strides over the local copy
	if err != nil || len(got) != 2 || got[0].AsInt() != 10 || got[1].AsInt() != 12 {
		t.Errorf("partition 0 of 2 of a written dataset: %v, %v", got, err)
	}
	if got, err := st.ReadDataset("out"); err != nil || len(got) != 3 {
		t.Errorf("ReadDataset of a written dataset: %v, %v", got, err)
	}
	w := st.written()
	if len(w) != 1 || w[0].Name != "out" || len(w[0].Elems) != 3 {
		t.Errorf("written = %+v, want the last write of out and no input", w)
	}
}

// TestWorkerStoreAllocsFlat: a worker store keys its shipped partitions by
// (name, part) in one map sized from the shipment, so what building it
// allocates does not grow with the number of datasets — a map per dataset
// was 60 more allocations for 60 days of input.
func TestWorkerStoreAllocsFlat(t *testing.T) {
	shipment := func(days int) []Dataset {
		var out []Dataset
		for d := range days {
			for part := range 2 {
				out = append(out, Dataset{Name: fmt.Sprintf("visits_%d", d), Part: part, Parts: 2, Encoded: []byte{byte(d)}})
			}
		}
		return out
	}
	allocs := func(days int) float64 {
		shipped := shipment(days)
		return testing.AllocsPerRun(20, func() {
			if _, err := newTrackingStore(2, shipped); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, sixty := allocs(1), allocs(60); sixty > one+2 {
		t.Errorf("a worker store of 60 shipped datasets allocates %v times, of one %v", sixty, one)
	}
	st, err := newTrackingStore(2, shipment(60))
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := st.inputs[shippedPart{"visits_59", 1}]; !ok || len(b) != 1 || b[0] != 59 {
		t.Errorf("part 1 of visits_59 = %v, %v; want its shipped bytes", b, ok)
	}
}

// TestWireRejectsCorruptElement truncates a string in the second shipped
// dataset: DecodeJobSpec, which keeps the elements encoded, still validates
// every one and names the dataset and the element.
func TestWireRejectsCorruptElement(t *testing.T) {
	spec := JobSpec{Source: "x", Datasets: []Dataset{
		{Name: "first", Elems: []val.Value{val.Str("a"), val.Str("b")}},
		{Name: "second", Elems: []val.Value{val.Str("c"), val.Str("dd"), val.Int(7)}},
	}}
	b := AppendJobSpec(nil, spec)
	if _, err := DecodeJobSpec(b); err != nil {
		t.Fatal(err)
	}
	// The second dataset's element 1 ends 3 bytes before the spec: the
	// string "dd" and the int that follows it. Claim 5 bytes for "dd".
	at := len(b) - 2 - 2
	if b[at-1] != 2 {
		t.Fatalf("spec layout changed: byte %d is %d, want the length of \"dd\"", at-1, b[at-1])
	}
	b[at-1] = 5
	_, err := DecodeJobSpec(b)
	if err == nil || !strings.Contains(err.Error(), `dataset "second" element 1`) {
		t.Errorf("truncated string in the 2nd dataset: %v, want an error naming dataset \"second\" element 1", err)
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

// TestShippedFrameLifetime pins who owns a MsgJob buffer: its job reads the
// shipped inputs out of it until torn down, and the buffer poisoned the moment
// the job gives it back must never be read again. On one two-worker session
// it runs back-to-back jobs with different inputs (the second MsgJob lands in
// the first job's buffer), a job that reads one shipped dataset in every loop
// step (each read decodes the partition again), and a job whose UDF fails
// mid-run (torn down, not finished) followed by a clean job on the
// re-established session. Every run must match the simulator bag for bag.
func TestShippedFrameLifetime(t *testing.T) {
	var released atomic.Int64
	frameHook = func(frame []byte) {
		for i := range frame {
			frame[i] = 0xff
		}
		released.Add(1)
	}
	t.Cleanup(func() { frameHook = nil })
	c, cleanup, err := StartLocal(2, CoordConfig{Retries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	ints := func(name string, n int) func(store.Store) error {
		return func(st store.Store) error {
			elems := make([]val.Value, n)
			for i := range elems {
				elems[i] = val.Int(int64(i))
			}
			return st.WriteDataset(name, elems)
		}
	}
	// run executes source on the simulator and on the session with inputs
	// from seed, and compares the outcomes.
	run := func(name, source string, seed func(store.Store) error) error {
		simStore, tcpStore := store.NewMemStore(), store.NewMemStore()
		if err := seed(simStore); err != nil {
			t.Fatal(err)
		}
		if err := seed(tcpStore); err != nil {
			t.Fatal(err)
		}
		_, simErr := execSim(source, simStore, 2, core.DefaultOptions())
		_, tcpErr := c.Run(source, tcpStore, core.DefaultOptions())
		if (simErr == nil) != (tcpErr == nil) {
			t.Fatalf("%s: sim error %v, tcp error %v", name, simErr, tcpErr)
		}
		if simErr == nil {
			diffStores(t, simStore, tcpStore)
		}
		return tcpErr
	}

	a := workload.VisitCountSpec{Days: 4, VisitsPerDay: 300, Pages: 30, WithDiff: true, Seed: 3}
	b := workload.VisitCountSpec{Days: 6, VisitsPerDay: 200, Pages: 50, WithDiff: true, Seed: 8}
	for _, s := range []workload.VisitCountSpec{a, b} {
		if err := run("visitcount", s.Script(), s.Generate); err != nil {
			t.Fatal(err)
		}
	}
	const reread = `total = newBag(0)
i = 1
while (i <= 4) {
  data = readFile("in")
  scaled = data.cross(newBag(i)).map(t => t.0 * t.1)
  total = total.union(scaled.sum()).sum()
  i = i + 1
}
total.writeFile("out")
`
	if err := run("reread", reread, ints("in", 500)); err != nil {
		t.Fatal(err)
	}
	const fails = `total = newBag(0)
i = 1
while (i <= 4) {
  data = readFile("in")
  scaled = data.cross(newBag(i)).map(t => t.0 / (t.1 - 3))
  total = total.union(scaled.sum()).sum()
  i = i + 1
}
total.writeFile("out")
`
	if err := run("fails", fails, ints("in", 500)); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("a job dividing by zero in its third step: %v", err)
	}
	if err := run("after failure", reread, ints("in", 300)); err != nil {
		t.Fatal(err)
	}
	// Two workers give back the buffers of 4 finished jobs, and those of the
	// failed job's torn-down attempts.
	if n := released.Load(); n < 2*4 {
		t.Errorf("%d MsgJob buffers given back, want at least %d", n, 2*4)
	}
}
