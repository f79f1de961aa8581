package store

import (
	"errors"
	"slices"
	"testing"

	"github.com/mitos-project/mitos/internal/val"
)

func TestMemStoreRoundtrip(t *testing.T) {
	s := NewMemStore()
	elems := []val.Value{val.Int(1), val.Str("a")}
	if err := s.WriteDataset("d", elems); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadDataset("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Equal(elems[0]) || !got[1].Equal(elems[1]) {
		t.Errorf("roundtrip = %v", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestMemStoreIsolation(t *testing.T) {
	// Mutating the written slice or the read result must not affect the
	// stored data.
	s := NewMemStore()
	elems := []val.Value{val.Int(1)}
	s.WriteDataset("d", elems)
	elems[0] = val.Int(99)
	got, _ := s.ReadDataset("d")
	if !got[0].Equal(val.Int(1)) {
		t.Error("store aliases the writer's slice")
	}
	got[0] = val.Int(42)
	again, _ := s.ReadDataset("d")
	if !again[0].Equal(val.Int(1)) {
		t.Error("store aliases the reader's slice")
	}
}

func TestNotFoundError(t *testing.T) {
	s := NewMemStore()
	_, err := s.ReadDataset("missing")
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.Name != "missing" {
		t.Errorf("err = %v", err)
	}
	if nf.Error() == "" {
		t.Error("empty error message")
	}
}

func TestNamesSorted(t *testing.T) {
	s := NewMemStore()
	for _, n := range []string{"c", "a", "b"} {
		s.WriteDataset(n, nil)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("Names = %v", names)
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	s := NewMemStore()
	done := make(chan struct{}, 10)
	for i := 0; i < 10; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				if i%2 == 0 {
					s.WriteDataset("d", []val.Value{val.Int(int64(j))})
				} else {
					s.ReadDataset("d")
				}
			}
		}(i)
	}
	for i := 0; i < 10; i++ {
		<-done
	}
}

// TestMemStoreReadPartition pins the in-place stride read: partition part of
// parts is elements part, part+parts, ..., the partitions cover the dataset,
// a rewrite does not disturb a read that began before it, and a bad
// partition or a missing dataset fails.
func TestMemStoreReadPartition(t *testing.T) {
	s := NewMemStore()
	in := []val.Value{val.Int(0), val.Int(1), val.Int(2), val.Int(3), val.Int(4)}
	s.WriteDataset("d", in)
	var got []int64
	for p := range 2 {
		err := s.ReadPartition("d", p, 2, nil, func(v val.Value) error {
			if len(got) == 0 {
				s.WriteDataset("d", nil) // replaces the slice; this read keeps its own
			}
			got = append(got, v.AsInt())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s.WriteDataset("d", in)
	}
	if want := []int64{0, 2, 4, 1, 3}; !slices.Equal(got, want) {
		t.Errorf("partitions 0, 1 of 2 read %v, want %v", got, want)
	}
	stop := errors.New("stop")
	n := 0
	if err := s.ReadPartition("d", 0, 1, nil, func(val.Value) error { n++; return stop }); err != stop || n != 1 {
		t.Errorf("fn's error: read %d elements, returned %v", n, err)
	}
	if err := s.ReadPartition("d", 2, 2, nil, func(val.Value) error { return nil }); err == nil {
		t.Error("partition 2 of 2 was read")
	}
	var nf *NotFoundError
	if err := s.ReadPartition("missing", 0, 1, nil, func(val.Value) error { return nil }); !errors.As(err, &nf) {
		t.Errorf("missing dataset: %v", err)
	}
}
