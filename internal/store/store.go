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
	// WriteDataset replaces the named dataset with elems.
	WriteDataset(name string, elems []val.Value) error
}

// PartitionedReader is the optional fast path for partitioned reads: a
// reader instance fetches only its own partition instead of the whole
// dataset, as the blocks the store keeps it in. Partitions must be disjoint
// and cover the dataset. The blocks stay the store's — a reader emits their
// elements and must not modify the slices — so a partition is not copied just
// to be ranged over. The distributed runtime uses it when the store provides
// it (internal/dfs does); otherwise it falls back to striding over
// ReadDataset.
type PartitionedReader interface {
	ReadPartitionBlocks(name string, part, parts int) ([][]val.Value, error)
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
