package exec

import (
	"pier/internal/tuple"
)

// Queue is where dataflow processing "comes up for air" (§3.3.5): tuples
// pushed into a Queue are buffered, a zero-delay timer is registered with
// the Main Scheduler, and the flow resumes from the timer event — capping
// how deep a single event's call stack can grow and letting other events
// interleave.
//
// Batches are buffered whole (retention is allowed by the batch ownership
// contract) and never split: one drain forwards complete batches until
// the tuple budget is spent. Flush does not bypass the yield discipline:
// it only forwards to the child, and buffered tuples still arrive via
// their scheduled drain event.
type Queue struct {
	Base
	// Defer registers fn to run as a fresh scheduler event (typically
	// rt.Schedule(0, fn)). Required.
	Defer func(fn func())
	// Batch bounds how many tuples one drain event forwards before
	// yielding again; 0 means all. A buffered batch is never split, so a
	// drain may overshoot by at most one batch.
	Batch int

	buf       []queued
	pending   int // buffered tuples (batch entries count their rows)
	scheduled bool
	closed    bool
}

type queued struct {
	tag Tag
	b   *tuple.Batch
}

// queueShrinkCap is the buffer capacity under which drain never
// reallocates. Above it, a drained-empty buffer is released and a mostly
// drained one is copied down, so a burst does not pin its high-water
// backing array (and the tuples reachable through it) forever.
const queueShrinkCap = 64

// NewQueue creates a queue that yields to the scheduler via deferFn.
func NewQueue(deferFn func(func())) *Queue { return &Queue{Defer: deferFn} }

// SetChild wires the child for control propagation.
func (q *Queue) SetChild(c Op) { q.Adopt(q, c) }

// PushBatch buffers the whole shared batch as one entry and schedules a
// drain event if none is pending.
func (q *Queue) PushBatch(tag Tag, b *tuple.Batch) {
	if q.closed || b.Len() == 0 {
		return
	}
	q.buf = append(q.buf, queued{tag: tag, b: b})
	q.pending += b.Len()
	if !q.scheduled {
		q.scheduled = true
		q.Defer(q.drain)
	}
}

// drain runs as its own scheduler event and continues the tuples' flow
// from child to parent.
func (q *Queue) drain() {
	q.scheduled = false
	if q.closed {
		q.buf = nil
		q.pending = 0
		return
	}
	n := len(q.buf)
	if q.Batch > 0 {
		took, rows := 0, 0
		for took < n && rows < q.Batch {
			rows += q.buf[took].b.Len()
			took++
		}
		n = took
	}
	batch := q.buf[:n]
	q.buf = q.buf[n:]
	for i, item := range batch {
		q.pending -= item.b.Len()
		q.Emit(item.tag, item.b)
		// Drop the drained entry's references: the backing array may live
		// on under q.buf.
		batch[i] = queued{}
	}
	q.shrink()
	if len(q.buf) > 0 && !q.scheduled {
		q.scheduled = true
		q.Defer(q.drain)
	}
}

// shrink returns an oversized buffer toward its baseline after a burst
// drains, instead of re-slicing over the same high-water backing array.
func (q *Queue) shrink() {
	c := cap(q.buf)
	if c <= queueShrinkCap {
		return
	}
	if len(q.buf) == 0 {
		q.buf = nil
		return
	}
	if len(q.buf)*4 <= c {
		fresh := make([]queued, len(q.buf))
		copy(fresh, q.buf)
		q.buf = fresh
	}
}

// Pending reports the number of buffered tuples (batch entries count
// every row).
func (q *Queue) Pending() int { return q.pending }

// Cap reports the buffer's current capacity in entries, for shrink tests.
func (q *Queue) Cap() int { return cap(q.buf) }

// Close discards buffered tuples.
func (q *Queue) Close() {
	q.closed = true
	q.buf = nil
	q.pending = 0
	q.In.Close()
}
