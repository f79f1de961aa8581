package dataflow

// Parking: a batch its vertex cannot use yet waits in its link.
//
// An event loop takes its mailbox in arrival order, but a vertex may be able
// to use only some of its inputs right now — the bag operator host produces
// its output bags in path order, and a batch of a later bag, or a join's
// probe while its build is still arriving, is of no use to the bag it is
// producing. Instead of copying such a batch into a buffer of its own, the
// vertex refuses it (InputGate), and the loop parks the envelope, batch and
// arena intact, in a queue of its link. Every later data or end-of-bag
// envelope on that link queues behind it, so each link stays FIFO, which is
// all either transport guarantees and all the vertices rely on; control
// envelopes and the other links never park. After every event the loop
// delivers it changed state for, the parked heads are offered again.
//
// A parked remote frame is acknowledged as it parks: its flow-control credit
// comes back at once, so a parked channel never stalls the per-peer sender
// that also carries the frames the vertex is waiting for (DESIGN.md Sec. 11).
// What is parked is bounded as buffering bounds it: by the bags a host can
// still select.

// InputGate is an optional Vertex refinement, asked before a mailbox batch
// is handed to OnBatch: Accepts reports whether the vertex can use a batch of
// bag tag (its first element's) on input now. A refused batch waits in its
// link and is offered again after each later event the loop delivers; on a
// clean stop it is delivered regardless, before Close. A vertex without the
// interface accepts everything. Batches that cross a chained edge are never
// asked: they are delivered by direct call.
type InputGate interface {
	Accepts(input int, tag Tag) bool
}

// link is one FIFO channel into an event loop: producer instance from's
// stream into input slot input of member dest — exactly one TCP credit
// channel.
type link struct {
	dest  *instance
	input int
	from  int
}

// parkQueue is one link's parked envelopes, oldest first. A drained queue
// keeps its backing array, so a link that parks again allocates nothing.
type parkQueue struct {
	q    []envelope
	head int
}

// parkLot is a chain driver's parking lot: a queue per link that has ever
// parked, kept for the job's lifetime, and the links parked right now.
type parkLot struct {
	queues map[link]*parkQueue
	busy   []*parkQueue
}

// parked reports whether env's link has envelopes parked, so that env must
// queue behind them. Nothing parked, it costs a length check.
func (p *parkLot) parked(env *envelope) bool {
	if len(p.busy) == 0 {
		return false
	}
	q := p.queues[link{env.dest, env.input, env.from}]
	return q != nil && q.head < len(q.q)
}

// park appends env to its link's queue, acknowledging a remote frame first:
// its credit returns as it parks, not when it is processed.
func (p *parkLot) park(env *envelope) {
	if env.kind == envData {
		env.dest.batchesParked.Inc()
	}
	if env.ack != nil {
		env.ack()
		env.ack = nil
	}
	k := link{env.dest, env.input, env.from}
	q := p.queues[k]
	if q == nil {
		if p.queues == nil {
			p.queues = make(map[link]*parkQueue)
		}
		q = &parkQueue{}
		p.queues[k] = q
	}
	if q.head == len(q.q) {
		p.busy = append(p.busy, q)
	}
	q.q = append(q.q, *env)
}

// accepts reports whether env's member takes env now: always for an
// end-of-bag, an empty batch or a vertex with no gate.
func (env *envelope) accepts() bool {
	g := env.dest.gate
	return g == nil || env.kind != envData || len(env.batch) == 0 || g.Accepts(env.input, env.batch[0].Tag)
}

// unpark delivers parked envelopes from the head of each link while their
// members accept them, or all of them when force is set (a clean stop),
// until a pass over the parked links delivers nothing.
func (in *instance) unpark(force bool) error {
	lot := &in.lot
	for moved := true; moved && len(lot.busy) > 0; {
		moved = false
		for _, q := range lot.busy {
			for q.head < len(q.q) && (force || q.q[q.head].accepts()) {
				env := q.q[q.head]
				q.q[q.head] = envelope{}
				q.head++
				moved = true
				if err := in.deliver(&env); err != nil {
					return err
				}
			}
		}
		n := 0
		for _, q := range lot.busy {
			if q.head < len(q.q) {
				lot.busy[n] = q
				n++
			} else {
				q.q, q.head = q.q[:0], 0
			}
		}
		clear(lot.busy[n:])
		lot.busy = lot.busy[:n]
	}
	return nil
}

// dropParked recycles every parked envelope undelivered: the job failed.
// Their frames were acknowledged as they parked.
func (in *instance) dropParked() {
	for _, q := range in.lot.busy {
		for i := q.head; i < len(q.q); i++ {
			if q.q[i].kind == envData {
				in.job.recycle(&q.q[i], false)
			}
			q.q[i] = envelope{}
		}
		q.q, q.head = q.q[:0], 0
	}
	clear(in.lot.busy)
	in.lot.busy = in.lot.busy[:0]
}
