// Package dataflow implements a small distributed dataflow engine: the
// substrate the paper assumes from Flink. It supports
//
//   - arbitrary stateful user logic in the vertices,
//   - arbitrary cycles in the dataflow graph,
//   - pipelined data transfers (elements flow in small batches as soon as
//     they are produced; no stage barriers),
//   - hash/broadcast/gather/forward partitionings, and
//   - broadcast control events delivered out of band to every vertex.
//
// Physical operator instances run as goroutines placed on the machines of a
// simulated cluster (internal/cluster); batches between instances on
// different machines incur the cluster's network latency. Elements carry a
// Tag whose meaning the client defines — the Mitos runtime uses it for bag
// identifiers (execution-path positions), baselines for superstep numbers.
package dataflow

import (
	"fmt"

	"github.com/mitos-project/mitos/internal/val"
)

// OpID identifies a logical operator in a Graph.
type OpID int

// Partitioning describes how elements on an edge are routed from producer
// instances to consumer instances.
type Partitioning uint8

// The partitionings.
const (
	// PartForward routes instance i to instance i (equal parallelism).
	PartForward Partitioning = iota
	// PartShuffleKey routes by hash of the element's key (first tuple
	// field), co-partitioning join and reduceByKey inputs.
	PartShuffleKey
	// PartShuffleVal routes by hash of the whole element (distinct, and
	// 1-to-N repartitioning).
	PartShuffleVal
	// PartBroadcast replicates every element to all consumer instances.
	PartBroadcast
	// PartGather routes every element to consumer instance 0.
	PartGather
)

// String names the partitioning.
func (p Partitioning) String() string {
	switch p {
	case PartForward:
		return "forward"
	case PartShuffleKey:
		return "shuffleKey"
	case PartShuffleVal:
		return "shuffleVal"
	case PartBroadcast:
		return "broadcast"
	case PartGather:
		return "gather"
	default:
		return fmt.Sprintf("Partitioning(%d)", uint8(p))
	}
}

// Tag distinguishes bags (or supersteps) multiplexed over one edge.
type Tag int32

// Element is one data element in flight.
type Element struct {
	Tag Tag
	Val val.Value
}

// Vertex is the user logic of one physical operator instance. The engine
// serializes all calls to a vertex (one event-loop goroutine per instance),
// so implementations need no internal locking. Emission happens through the
// Context passed to Open, from within any callback.
type Vertex interface {
	// Open is called once, before any other callback.
	Open(ctx *Context) error
	// OnBatch delivers data elements arriving on logical input slot input
	// from physical producer instance from. The batch slice is recycled as
	// soon as OnBatch returns: implementations may retain the Values inside
	// but must not retain the slice itself. On an in-place input
	// (EdgeDecl.InPlace) the top-level tuples are lent too: they live in
	// the batch's arena, which is recycled with the slice, so a vertex that
	// keeps such a Value past the call, not just its fields, must call
	// Context.RetainBatch first. A chained input's batch holds one element,
	// whose tuple its producer may lend (Context.EmitLent) and rebuild once
	// OnBatch returns.
	OnBatch(input int, from int, batch []Element) error
	// OnEOB signals that producer instance from will send no more elements
	// of bag tag on input.
	OnEOB(input int, from int, tag Tag) error
	// OnControl delivers a control event broadcast via Job.Broadcast.
	OnControl(ev any) error
	// Close is called once when the job stops.
	Close() error
}

// Op is a logical operator.
type Op struct {
	ID          OpID
	Name        string
	Parallelism int
	// NewVertex builds the logic for physical instance inst (0-based).
	NewVertex func(inst int) Vertex

	ins []*EdgeDecl // filled by Graph.Connect
}

// EdgeDecl is a logical edge declaration: it connects the output of From to
// logical input slot Input of To with the given partitioning.
type EdgeDecl struct {
	From  OpID
	To    OpID
	Input int
	Part  Partitioning
	// Chained marks a forward edge fused by operator chaining: producer
	// instance i hands elements to consumer instance i by direct synchronous
	// call — no mailbox, no batch buffer, no goroutine switch. The ops on a
	// chained edge become members of one chained physical vertex (see
	// Job). Only PartForward edges may be chained, and the chained subgraph
	// must be acyclic (Validate enforces both).
	Chained bool
	// InPlace marks a batching edge whose consumer reads each element in
	// place: during OnBatch it keeps at most the fields of an element's
	// top-level tuple, never the tuple, unless it retains the batch
	// (Context.RetainBatch). The engine then builds those tuples — decoded
	// from a remote frame, or copied from a lent element into a local batch
	// — in an arena it reuses with the batch buffer instead of carving each
	// from a slab. A chained edge cannot be in place (Validate).
	InPlace bool
}

// Graph is a logical dataflow graph under construction.
type Graph struct {
	ops []*Op
}

// AddOp appends a logical operator and returns it. Parallelism must be >= 1.
func (g *Graph) AddOp(name string, parallelism int, newVertex func(inst int) Vertex) *Op {
	op := &Op{
		ID:          OpID(len(g.ops)),
		Name:        name,
		Parallelism: parallelism,
		NewVertex:   newVertex,
	}
	g.ops = append(g.ops, op)
	return op
}

// Connect declares an edge from the output of from to input slot input of
// to and returns it, for the caller to mark InPlace. Input slots of an
// operator must be connected exactly once each, starting from 0.
func (g *Graph) Connect(from, to *Op, input int, part Partitioning) *EdgeDecl {
	e := &EdgeDecl{From: from.ID, To: to.ID, Input: input, Part: part}
	to.ins = append(to.ins, e)
	return e
}

// ConnectChained declares a forward edge fused by operator chaining: the
// producer and consumer become members of the same chained physical vertex,
// and elements cross the edge as direct function calls instead of mailbox
// envelopes. The caller must guarantee equal parallelism (as for any
// forward edge) and that the chained edges it declares form no cycle;
// Validate checks both.
func (g *Graph) ConnectChained(from, to *Op, input int) {
	to.ins = append(to.ins, &EdgeDecl{From: from.ID, To: to.ID, Input: input, Part: PartForward, Chained: true})
}

// Ops returns the logical operators in the graph.
func (g *Graph) Ops() []*Op { return g.ops }

// Op returns the operator with the given ID.
func (g *Graph) Op(id OpID) *Op { return g.ops[id] }

// Validate checks the structural invariants: parallelism >= 1, vertex
// factories present, input slots dense and unique, forward edges between
// equal-parallelism ops, and chained edges forward-only, never in place, and
// pointing from lower to higher operator ID (which guarantees the chained
// subgraph is acyclic and that ID order is a topological order of every
// chain).
func (g *Graph) Validate() error {
	for _, op := range g.ops {
		if op.Parallelism < 1 {
			return fmt.Errorf("dataflow: op %s: parallelism %d", op.Name, op.Parallelism)
		}
		if op.NewVertex == nil {
			return fmt.Errorf("dataflow: op %s: no vertex factory", op.Name)
		}
		seen := make(map[int]bool, len(op.ins))
		for _, e := range op.ins {
			if e.Input < 0 || seen[e.Input] {
				return fmt.Errorf("dataflow: op %s: input slot %d repeated or negative", op.Name, e.Input)
			}
			seen[e.Input] = true
			from := g.ops[e.From]
			if e.Part == PartForward && from.Parallelism != op.Parallelism {
				return fmt.Errorf("dataflow: forward edge %s->%s with parallelism %d->%d",
					from.Name, op.Name, from.Parallelism, op.Parallelism)
			}
			if e.Chained {
				if e.InPlace {
					return fmt.Errorf("dataflow: chained edge %s->%s marked in place (only a batching edge has an arena)",
						from.Name, op.Name)
				}
				if e.Part != PartForward {
					return fmt.Errorf("dataflow: chained edge %s->%s with %s partitioning (only forward edges chain)",
						from.Name, op.Name, e.Part)
				}
				if e.From >= op.ID {
					return fmt.Errorf("dataflow: chained edge %s->%s against operator ID order (would allow a chain cycle)",
						from.Name, op.Name)
				}
			}
		}
		for i := 0; i < len(op.ins); i++ {
			if !seen[i] {
				return fmt.Errorf("dataflow: op %s: input slot %d not connected", op.Name, i)
			}
		}
	}
	return nil
}
