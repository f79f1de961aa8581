package dataflow

import (
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/cluster"
)

// blockedSink holds its first batch until release closes, so the batches
// behind it wait in its mailbox.
type blockedSink struct {
	baseVertex
	release <-chan struct{}
}

func (v *blockedSink) OnBatch(input, from int, batch []Element) error {
	<-v.release
	return nil
}

// TestMailboxDepthMatchesIntrospect: with batches waiting in blocked sinks'
// mailboxes, Job.MailboxDepth equals the sum of Introspect's per-instance
// depths.
func TestMailboxDepthMatchesIntrospect(t *testing.T) {
	cl, err := cluster.New(cluster.FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	release := make(chan struct{})
	var g Graph
	src := g.AddOp("src", 2, func(int) Vertex { return &sourceVertex{n: 40} })
	snk := g.AddOp("sink", 2, func(int) Vertex { return &blockedSink{release: release} })
	g.Connect(src, snk, 0, PartShuffleKey)
	job, err := NewJob(&g, cl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		job.Stop(nil)
		job.Wait()
	}()
	job.Broadcast("go")
	introspected := func() int {
		depth := 0
		for _, op := range job.Introspect().Ops {
			for _, in := range op.Instances {
				depth += in.MailboxDepth
			}
		}
		return depth
	}
	// The sources emit asynchronously: compare once the depth holds still.
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := introspected()
		got := job.MailboxDepth()
		if after := introspected(); before == after && before > 0 {
			if got != before {
				t.Fatalf("MailboxDepth = %d, Introspect sums %d", got, before)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("mailbox depths never settled above zero")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
