package dataflow

import (
	"sync"
	"testing"
	"time"
)

// TestQueueConcurrentProducersFIFO checks the ordering the cross-machine
// links and the mailboxes rely on: with several goroutines putting
// concurrently, every value arrives exactly once and each producer's values
// arrive in the order it put them.
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
// false, every later Take reports false too, and a Put after Close reports
// false and enqueues nothing — the caller keeps ownership of what it tried
// to put.
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
	for i := 0; i < 2; i++ {
		if v, ok := q.Take(); ok {
			t.Errorf("take %d on a closed, drained queue = %d, true", i, v)
		}
	}
	if q.Put(-2) {
		t.Error("put after drain of a closed queue reported true")
	}
	if d := q.Depth(); d != 0 {
		t.Errorf("depth after drain = %d, want 0", d)
	}
}

// TestQueueTakeBlocksUntilPut checks that a Take on an empty open queue
// waits for the next Put rather than returning early or reporting false.
func TestQueueTakeBlocksUntilPut(t *testing.T) {
	q := NewQueue[string]()
	got := make(chan string, 1)
	go func() {
		v, ok := q.Take()
		if !ok {
			t.Error("take reported false on an open queue")
		}
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("take returned %q before any put", v)
	case <-time.After(10 * time.Millisecond):
	}
	q.Put("x")
	select {
	case v := <-got:
		if v != "x" {
			t.Errorf("take = %q, want x", v)
		}
	case <-time.After(time.Second):
		t.Fatal("take did not wake after put")
	}
}

// TestQueueHighWater checks the depth high-water mark behind the
// mailbox_hwm gauge: it tracks the largest backlog, not the current depth,
// and ignores puts refused after Close.
func TestQueueHighWater(t *testing.T) {
	q := NewQueue[int]()
	if hw := q.HighWater(); hw != 0 {
		t.Fatalf("initial high water = %d, want 0", hw)
	}
	q.Put(1)
	q.Put(2)
	q.Put(3)
	q.Take()
	q.Take()
	q.Put(4) // depth back to 2, below the high-water mark of 3
	if hw := q.HighWater(); hw != 3 {
		t.Fatalf("high water = %d, want 3", hw)
	}
	q.Close()
	q.Put(5)
	q.Put(6) // refused, must not count
	if hw := q.HighWater(); hw != 3 {
		t.Fatalf("high water after close = %d, want 3", hw)
	}
}

// TestQueueDropped checks the refusal count that turns silent post-close
// deliveries into an observable signal (JobStats.MailboxDropped): nothing
// before Close, one per refused put after it, and what was queued before
// Close is still delivered.
func TestQueueDropped(t *testing.T) {
	q := NewQueue[string]()
	q.Put("ok")
	q.Close()
	if d := q.Dropped(); d != 0 {
		t.Errorf("dropped = %d before any late put", d)
	}
	q.Put("late")
	q.PutQuiet("late, quiet")
	if d := q.Dropped(); d != 2 {
		t.Errorf("dropped = %d, want 2", d)
	}
	if v, ok := q.Take(); !ok || v != "ok" {
		t.Errorf("pre-close value lost: %q %v", v, ok)
	}
}

// TestQueuePutQuietOrder: a quiet put is taken in order, ahead of a later
// waking put.
func TestQueuePutQuietOrder(t *testing.T) {
	q := NewQueue[int]()
	q.Put(1)
	q.PutQuiet(2)
	q.PutQuiet(3)
	q.Put(4)
	for want := 1; want <= 4; want++ {
		if v, ok := q.Take(); !ok || v != want {
			t.Fatalf("take = %d, %v, want %d", v, ok, want)
		}
	}
}

// TestQueuePutQuietSurvivesClose: a quietly put value is still delivered
// after Close, before Take reports false.
func TestQueuePutQuietSurvivesClose(t *testing.T) {
	q := NewQueue[int]()
	if !q.PutQuiet(7) {
		t.Fatal("quiet put refused on an open queue")
	}
	q.Close()
	if v, ok := q.Take(); !ok || v != 7 {
		t.Fatalf("take after close = %d, %v, want 7", v, ok)
	}
	if _, ok := q.Take(); ok {
		t.Fatal("take on a closed, drained queue reported true")
	}
}

// TestQueuePutQuietCounts: a quiet put counts toward the depth and the
// high-water mark like any other.
func TestQueuePutQuietCounts(t *testing.T) {
	q := NewQueue[int]()
	q.PutQuiet(1)
	q.PutQuiet(2)
	q.Put(3)
	if d := q.Depth(); d != 3 {
		t.Errorf("depth = %d, want 3", d)
	}
	q.Take()
	if hw := q.HighWater(); hw != 3 {
		t.Errorf("high water = %d, want 3", hw)
	}
}

// TestQueuePutQuietWake: a Take blocked across a quiet put returns the
// value no later than the next waking put — or Close — and returns it
// ahead of the waking put's.
func TestQueuePutQuietWake(t *testing.T) {
	for _, wake := range []string{"put", "close"} {
		q := NewQueue[string]()
		got := make(chan string, 2)
		go func() {
			for {
				v, ok := q.Take()
				if !ok {
					close(got)
					return
				}
				got <- v
			}
		}()
		time.Sleep(5 * time.Millisecond) // most likely, the Take is blocked by now
		q.PutQuiet("quiet")
		if wake == "put" {
			q.Put("loud")
		} else {
			q.Close()
		}
		select {
		case v := <-got:
			if v != "quiet" {
				t.Fatalf("%s: first take = %q, want the quiet value", wake, v)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: the blocked take did not return the quiet value", wake)
		}
		q.Close()
		for range got {
		}
	}
}

// TestQueueDeepBacklogCompaction drains a 100 000-deep backlog and watches
// every compaction: moving the live tail down is only ever paid for by a
// consumed prefix at least as long, so draining n values moves O(n), not
// O(n²), of them.
func TestQueueDeepBacklogCompaction(t *testing.T) {
	const n = 100000
	q := NewQueue[int]()
	for i := 0; i < n; i++ {
		q.Put(i)
	}
	compactions := 0
	for i := 0; i < n; i++ {
		head, length := q.head, len(q.q)
		if v, ok := q.Take(); !ok || v != i {
			t.Fatalf("take %d = %d, %v", i, v, ok)
		}
		if q.head == head+1 {
			continue
		}
		compactions++
		if consumed, live := head+1, length-head-1; live > consumed {
			t.Fatalf("take %d compacted a live tail of %d over a consumed prefix of %d", i, live, consumed)
		}
	}
	if compactions == 0 {
		t.Fatal("the drain never compacted")
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
