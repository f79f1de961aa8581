package dataflow

import (
	"sync"
	"testing"
)

// TestQueueConcurrentProducersFIFO checks the ordering the cross-machine
// links rely on: with several goroutines putting concurrently, every value
// arrives exactly once and each producer's values arrive in the order it
// put them.
func TestQueueConcurrentProducersFIFO(t *testing.T) {
	const producers, each = 8, 2000
	type item struct{ producer, seq int }
	q := NewQueue[item]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !q.Put(item{p, i}) {
					t.Errorf("producer %d: put %d refused on an open queue", p, i)
					return
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	next := make([]int, producers)
	for {
		it, ok := q.Take()
		if !ok {
			break
		}
		if it.seq != next[it.producer] {
			t.Fatalf("producer %d: got seq %d, want %d", it.producer, it.seq, next[it.producer])
		}
		next[it.producer]++
	}
	for p, n := range next {
		if n != each {
			t.Errorf("producer %d: %d of %d values delivered", p, n, each)
		}
	}
}

// TestQueueClose checks the shutdown contract: Close lets Take drain the
// backlog (in order, across a head-index compaction) before it reports
// false, and a Put after Close reports false and enqueues nothing — the
// caller keeps ownership of what it tried to put.
func TestQueueClose(t *testing.T) {
	q := NewQueue[int]()
	const n = queueCompactAt + 500
	for i := 0; i < n; i++ {
		q.Put(i)
	}
	q.Close()
	if q.Put(-1) {
		t.Error("put after close reported true")
	}
	if d := q.Depth(); d != n {
		t.Errorf("depth after refused put = %d, want %d", d, n)
	}
	for i := 0; i < n; i++ {
		v, ok := q.Take()
		if !ok || v != i {
			t.Fatalf("take %d after close = %d, %v", i, v, ok)
		}
	}
	if v, ok := q.Take(); ok {
		t.Errorf("take on a closed, drained queue = %d, true", v)
	}
	if d := q.Depth(); d != 0 {
		t.Errorf("depth after drain = %d, want 0", d)
	}
}

// TestQueueTakeBlocksUntilPut checks that a Take on an empty open queue
// waits for the next Put rather than reporting false.
func TestQueueTakeBlocksUntilPut(t *testing.T) {
	q := NewQueue[string]()
	got := make(chan string)
	go func() {
		v, _ := q.Take()
		got <- v
	}()
	q.Put("x")
	if v := <-got; v != "x" {
		t.Errorf("take = %q, want x", v)
	}
}

// TestQueueSteadyStateAllocFree pins the head-index discipline: a queue
// that drains between bursts keeps its backing array, so the put/take
// cycle of a long-running link allocates nothing. (The egress queue this
// replaced nil-ed its slice on every drain and re-grew it on the next put.)
func TestQueueSteadyStateAllocFree(t *testing.T) {
	q := NewQueue[loopFrame]()
	cycle := func() {
		for i := 0; i < 4; i++ {
			q.Put(loopFrame{tag: Tag(i)})
		}
		for i := 0; i < 4; i++ {
			q.Take()
		}
	}
	cycle() // grow the backing array once
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("steady-state put/take allocates %v per cycle, want 0", allocs)
	}
}
