// Package dfs is the repository's HDFS stand-in: a block-based dataset
// store whose blocks are distributed round-robin over the cluster's
// machines. Reads are partitioned — each reader instance fetches only the
// blocks of its partition — and every dataset open pays a configurable
// metadata latency, reproducing the per-file cost that reading one log
// file per day exercises in the paper's Visit Count task.
package dfs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/simtime"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// Config tunes the store.
type Config struct {
	// BlockSize is the number of elements per block (default 4096).
	BlockSize int
	// OpenDelay is slept once per dataset open (metadata lookup).
	OpenDelay time.Duration
}

// Store is a block-based dataset store. It implements store.Store. Safe for
// concurrent use.
type Store struct {
	cfg Config

	mu   sync.RWMutex
	sets map[string][][]val.Value // dataset -> blocks

	opens         atomic.Int64
	blocksRead    atomic.Int64
	bytesRead     atomic.Int64
	blocksWritten atomic.Int64
	bytesWritten  atomic.Int64

	// Observability handles; nil (no-op) until SetObserver.
	obsOpens   *obs.Counter
	obsBlkRead *obs.Counter
	obsBRead   *obs.Counter
	obsBlkWr   *obs.Counter
	obsBWr     *obs.Counter
}

// Stats reports access counters.
type Stats struct {
	Opens         int64
	BlocksRead    int64
	BytesRead     int64
	BlocksWritten int64
	BytesWritten  int64
}

// New creates an empty store.
func New(cfg Config) *Store {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 4096
	}
	return &Store{cfg: cfg, sets: make(map[string][][]val.Value)}
}

// Stats returns a snapshot of the access counters.
func (s *Store) Stats() Stats {
	return Stats{
		Opens:         s.opens.Load(),
		BlocksRead:    s.blocksRead.Load(),
		BytesRead:     s.bytesRead.Load(),
		BlocksWritten: s.blocksWritten.Load(),
		BytesWritten:  s.bytesWritten.Load(),
	}
}

// SetObserver mirrors the store's access counters into an observability
// registry under the "dfs" component (the store has no machine placement,
// so samples land on the driver). A nil observer disables mirroring.
func (s *Store) SetObserver(o *obs.Observer) {
	reg := o.Reg()
	s.obsOpens = reg.Counter(obs.MachineDriver, "dfs", "opens")
	s.obsBlkRead = reg.Counter(obs.MachineDriver, "dfs", "blocks_read")
	s.obsBRead = reg.Counter(obs.MachineDriver, "dfs", "bytes_read")
	s.obsBlkWr = reg.Counter(obs.MachineDriver, "dfs", "blocks_written")
	s.obsBWr = reg.Counter(obs.MachineDriver, "dfs", "bytes_written")
}

// WriteDataset splits elems into blocks and replaces the named dataset.
func (s *Store) WriteDataset(name string, elems []val.Value) error {
	var blocks [][]val.Value
	var bytes int64
	for i := 0; i < len(elems); i += s.cfg.BlockSize {
		end := min(i+s.cfg.BlockSize, len(elems))
		block := make([]val.Value, end-i)
		copy(block, elems[i:end])
		blocks = append(blocks, block)
	}
	for _, e := range elems {
		bytes += int64(val.EncodedSize(e))
	}
	s.mu.Lock()
	s.sets[name] = blocks
	s.mu.Unlock()
	s.blocksWritten.Add(int64(len(blocks)))
	s.bytesWritten.Add(bytes)
	s.obsBlkWr.Add(int64(len(blocks)))
	s.obsBWr.Add(bytes)
	return nil
}

func (s *Store) open(name string) ([][]val.Value, error) {
	simtime.Sleep(s.cfg.OpenDelay)
	s.opens.Add(1)
	s.obsOpens.Inc()
	s.mu.RLock()
	blocks, ok := s.sets[name]
	s.mu.RUnlock()
	if !ok {
		return nil, &store.NotFoundError{Name: name}
	}
	return blocks, nil
}

func (s *Store) account(blocks [][]val.Value) {
	s.blocksRead.Add(int64(len(blocks)))
	var bytes int64
	for _, b := range blocks {
		for _, e := range b {
			bytes += int64(val.EncodedSize(e))
		}
	}
	s.bytesRead.Add(bytes)
	s.obsBlkRead.Add(int64(len(blocks)))
	s.obsBRead.Add(bytes)
}

// ReadDataset returns all elements of the named dataset.
func (s *Store) ReadDataset(name string) ([]val.Value, error) {
	blocks, err := s.open(name)
	if err != nil {
		return nil, err
	}
	s.account(blocks)
	// Concat sizes the result up front; growing it by appends re-copied a
	// day's log several times over.
	return slices.Concat(blocks...), nil
}

// ReadDatasetPartition returns partition part of parts as one slice of the
// caller's own: the blocks ReadPartition walks, concatenated. The engine reads
// through ReadPartition; the repository benchmark's dfs.read_ms is this call's
// only user.
func (s *Store) ReadDatasetPartition(name string, part, parts int) ([]val.Value, error) {
	mine, err := s.partitionBlocks(name, part, parts)
	if err != nil {
		return nil, err
	}
	return slices.Concat(mine...), nil
}

// ReadPartition implements store.Store: it hands fn the elements
// of partition part of parts in place, block by block. The slab is unused —
// the store keeps values, not encodings.
func (s *Store) ReadPartition(name string, part, parts int, _ *val.Slab, fn func(val.Value) error) error {
	mine, err := s.partitionBlocks(name, part, parts)
	if err != nil {
		return err
	}
	for _, b := range mine {
		for _, e := range b {
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// partitionBlocks opens a dataset for partition part of parts: the blocks
// whose index is congruent to part. Every element belongs to exactly one
// partition; only the requested blocks are counted, and none is copied.
func (s *Store) partitionBlocks(name string, part, parts int) ([][]val.Value, error) {
	if parts < 1 || part < 0 || part >= parts {
		return nil, fmt.Errorf("dfs: partition %d of %d", part, parts)
	}
	blocks, err := s.open(name)
	if err != nil {
		return nil, err
	}
	var mine [][]val.Value
	for i := part; i < len(blocks); i += parts {
		mine = append(mine, blocks[i])
	}
	s.account(mine)
	return mine, nil
}

// Names returns the dataset names present, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.sets))
	for n := range s.sets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Blocks returns the number of blocks of a dataset (0 if absent).
func (s *Store) Blocks(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sets[name])
}
