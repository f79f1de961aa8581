package dfs

import (
	"fmt"
	"testing"

	"github.com/mitos-project/mitos/internal/bag"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

func intSlice(n int) []val.Value {
	out := make([]val.Value, n)
	for i := range out {
		out[i] = val.Int(int64(i))
	}
	return out
}

func TestReadWriteRoundtrip(t *testing.T) {
	s := New(Config{BlockSize: 10})
	want := intSlice(95)
	if err := s.WriteDataset("d", want); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadDataset("d")
	if err != nil {
		t.Fatal(err)
	}
	if !bag.Equal(want, got) {
		t.Errorf("roundtrip mismatch: %d elements", len(got))
	}
	if s.Blocks("d") != 10 {
		t.Errorf("blocks = %d, want 10", s.Blocks("d"))
	}
}

func TestPartitionsDisjointAndCovering(t *testing.T) {
	s := New(Config{BlockSize: 7})
	want := intSlice(100)
	if err := s.WriteDataset("d", want); err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 3, 5, 8, 40} {
		var all []val.Value
		for p := 0; p < parts; p++ {
			elems, err := s.ReadDatasetPartition("d", p, parts)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, elems...)
		}
		if !bag.Equal(want, all) {
			t.Errorf("parts=%d: union of partitions != dataset (%d elements)", parts, len(all))
		}
	}
}

func TestPartitionArgsValidated(t *testing.T) {
	s := New(Config{})
	s.WriteDataset("d", intSlice(5))
	cases := [][2]int{{-1, 2}, {2, 2}, {0, 0}}
	for _, c := range cases {
		if _, err := s.ReadDatasetPartition("d", c[0], c[1]); err == nil {
			t.Errorf("partition %d of %d accepted", c[0], c[1])
		}
	}
}

func TestNotFound(t *testing.T) {
	s := New(Config{})
	_, err := s.ReadDataset("nope")
	var nf *store.NotFoundError
	if err == nil {
		t.Fatal("no error for missing dataset")
	}
	if ok := errorsAs(err, &nf); !ok {
		t.Errorf("error type = %T", err)
	}
	if _, err := s.ReadDatasetPartition("nope", 0, 2); err == nil {
		t.Error("no error for missing dataset partition")
	}
}

func errorsAs(err error, target *(*store.NotFoundError)) bool {
	nf, ok := err.(*store.NotFoundError)
	if ok {
		*target = nf
	}
	return ok
}

func TestStatsAccounting(t *testing.T) {
	s := New(Config{BlockSize: 10})
	s.WriteDataset("d", intSlice(30))
	if _, err := s.ReadDataset("d"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Opens != 1 || st.BlocksRead != 3 || st.BytesRead == 0 {
		t.Errorf("stats after full read = %+v", st)
	}
	// A partition read of 1/3 of the blocks accounts only those.
	if _, err := s.ReadDatasetPartition("d", 0, 3); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	if st2.BlocksRead != 4 {
		t.Errorf("BlocksRead = %d, want 4", st2.BlocksRead)
	}
	// The in-place read of the same partition is the same blocks at the same
	// price: one open, one block, the same bytes.
	var got []val.Value
	if err := s.ReadPartition("d", 0, 3, nil, func(v val.Value) error { got = append(got, v); return nil }); err != nil {
		t.Fatal(err)
	}
	if !bag.Equal(got, intSlice(10)) {
		t.Errorf("ReadPartition = %v, want the first block", got)
	}
	st3 := s.Stats()
	if st3.Opens-st2.Opens != 1 || st3.BlocksRead-st2.BlocksRead != 1 || st3.BytesRead-st2.BytesRead != st2.BytesRead-st.BytesRead {
		t.Errorf("ReadPartition moved the counters %+v -> %+v, ReadDatasetPartition %+v -> %+v", st2, st3, st, st2)
	}
}

func TestOverwriteAndNames(t *testing.T) {
	s := New(Config{BlockSize: 4})
	s.WriteDataset("b", intSlice(3))
	s.WriteDataset("a", intSlice(2))
	s.WriteDataset("b", intSlice(9))
	got, _ := s.ReadDataset("b")
	if len(got) != 9 {
		t.Errorf("overwrite kept %d elements", len(got))
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestEmptyDataset(t *testing.T) {
	s := New(Config{})
	if err := s.WriteDataset("e", nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadDataset("e")
	if err != nil || len(got) != 0 {
		t.Errorf("empty dataset read = %v, %v", got, err)
	}
	p, err := s.ReadDatasetPartition("e", 1, 3)
	if err != nil || len(p) != 0 {
		t.Errorf("empty partition read = %v, %v", p, err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(Config{BlockSize: 8})
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			name := fmt.Sprintf("d%d", w%2)
			for i := 0; i < 50; i++ {
				if err := s.WriteDataset(name, intSlice(20+w)); err != nil {
					done <- err
					return
				}
				if _, err := s.ReadDataset(name); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
