// Package store defines the dataset storage interface through which Mitos
// programs read and write named datasets (the paper's HDFS files), plus a
// trivial in-memory implementation used by tests and the reference
// interpreters. The distributed, partitioned implementation lives in
// internal/dfs.
package store

import (
	"fmt"
	"sort"
	"sync"

	"github.com/mitos-project/mitos/internal/val"
)

// Store is the dataset storage interface. Implementations must be safe for
// concurrent use.
type Store interface {
	// ReadDataset returns all elements of the named dataset.
	ReadDataset(name string) ([]val.Value, error)
	// ReadPartition is a partitioned read: a reader instance reads only its
	// own partition instead of the whole dataset. Partitions must be
	// disjoint and cover the dataset. ReadPartition hands partition part of
	// parts to fn one element at a time, stopping at fn's first error and
	// returning it; no copy of the partition is made. A store that decodes
	// what it keeps carves the elements' tuples and strings from slab, the
	// reading instance's; a store of values ignores it. A store that keeps a
	// dataset as one slice reads it with ReadStride.
	ReadPartition(name string, part, parts int, slab *val.Slab, fn func(val.Value) error) error
	// WriteDataset replaces the named dataset with elems.
	WriteDataset(name string, elems []val.Value) error
}

// ReadStride hands fn the stride partition part of parts of elems —
// elements part, part+parts, part+2*parts, ... — stopping at fn's first
// error. It is the partition of a dataset a store keeps as one slice.
func ReadStride(elems []val.Value, part, parts int, fn func(val.Value) error) error {
	if parts < 1 || part < 0 || part >= parts {
		return fmt.Errorf("store: partition %d of %d", part, parts)
	}
	for i := part; i < len(elems); i += parts {
		if err := fn(elems[i]); err != nil {
			return err
		}
	}
	return nil
}

// NotFoundError reports a read of a missing dataset.
type NotFoundError struct {
	Name string
}

// Error implements the error interface.
func (e *NotFoundError) Error() string {
	return fmt.Sprintf("store: dataset %q not found", e.Name)
}

// MemStore is an in-memory Store.
type MemStore struct {
	mu   sync.RWMutex
	data map[string][]val.Value
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[string][]val.Value)}
}

// ReadDataset implements Store.
func (s *MemStore) ReadDataset(name string) ([]val.Value, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	elems, ok := s.data[name]
	if !ok {
		return nil, &NotFoundError{Name: name}
	}
	out := make([]val.Value, len(elems))
	copy(out, elems)
	return out, nil
}

// ReadPartition implements Store by striding over the stored
// slice in place. WriteDataset replaces a dataset's slice and never mutates
// one, so the slice read here stays as it was when the read began.
func (s *MemStore) ReadPartition(name string, part, parts int, _ *val.Slab, fn func(val.Value) error) error {
	s.mu.RLock()
	elems, ok := s.data[name]
	s.mu.RUnlock()
	if !ok {
		return &NotFoundError{Name: name}
	}
	return ReadStride(elems, part, parts, fn)
}

// WriteDataset implements Store.
func (s *MemStore) WriteDataset(name string, elems []val.Value) error {
	cp := make([]val.Value, len(elems))
	copy(cp, elems)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[name] = cp
	return nil
}

// Names returns the dataset names present, sorted.
func (s *MemStore) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.data))
	for n := range s.data {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of datasets present.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}
