// Package exec implements PIER's local dataflow engine (paper §3.3.4,
// §3.3.5): the operators that make up an opgraph and the "non-blocking
// iterator" discipline that connects them.
//
// PIER's event-driven core prohibits handlers from blocking, so the
// classic pull iterator model is unusable. Instead control flows DOWN the
// operator tree as probe requests (like iterator open), and data flows UP
// via push: each operator calls its parent with a batch of tuples as the
// argument until a tuple is dropped (selection), absorbed into operator
// state (join, group-by), or handed out of the node (package qp). A push
// runs to completion inside the event that delivered it; rows that must
// wait are operator state, emitted by a later flush or timer. Every probe
// carries an arbitrary Tag so nested probes can be arbitrarily reordered
// while operators still match data to stored state — the non-blocking
// substitute for the iterator model's single outstanding get-next
// (§3.3.5).
//
// Flush travels the same way as a probe: an operator forwards it to its
// child before it emits. An access method (Input) may therefore hold
// arrivals and deliver them when a flush reaches it (Input.OnFlush) — for
// an operator that emits only at its flush the rows, their order and the
// emission instant are what immediate delivery would give.
//
// Operators needing network services (DHT scans, rehash/put, Fetch
// Matches joins, hierarchical aggregation) are assembled in package qp;
// this package is purely node-local.
//
// # One edge, and the batch ownership contract
//
// There is one data edge: a child calls its parent's PushBatch with a
// *tuple.Batch. Operators process whole batches (column indices resolved
// once, predicates compiled to vectorized loops, group keys built without
// allocation); a lone row — a TopK rank, a join match, a fetched index
// entry — crosses an edge as a batch of one (tuple.OfTuple). Every
// PushBatch keeps a row-backed branch (!b.Columnar(): Pred.Eval,
// Row(i).AppendKey, aggState.add in row order) beside its typed-kernel
// branch; the row-backed branch is the semantics reference, and
// TestBatchVsRowEquivalence and FuzzBatchVsRowEquivalence hold the kernels
// to it by feeding one copy of an operator row-backed batches of one and
// the other a random columnar/row-backed partitioning of the same rows.
// Rows are unrolled in exactly one place, SinkFunc, the row-oriented
// client boundary.
//
// A batch handed downstream is governed by the same rules as a shared
// dispatched tuple (internal/overlay/subs.go):
//
//   - A *tuple.Batch received from PushBatch is SHARED — a Tee or
//     the table bus hands the SAME batch to every consumer — and
//     READ-ONLY. No operator may mutate its values, its selection, or a
//     row view obtained from it.
//   - RETAINING a batch or a Row(i) view past the call is allowed (both
//     are immutable under the contract): join state holds row views. Column slices never escape except through
//     row views, which cap their slices so an erroneous append cannot
//     write into shared storage.
//   - An operator that needs a VARIANT builds a new batch: filtering
//     derives a selection view (SelectLogical — the parent batch is
//     untouched), projection and join construct fresh batches/tuples.
//   - Scratch row views (Batch.RowInto) are valid only within the
//     operator's own call frame and must never be emitted downstream.
//   - EMITTED batches are covered too: a flush that materializes
//     operator state into a fresh batch (GroupSet.EmitBatch) hands the
//     SAME batch to however many consumers sit downstream — a Demux at
//     the top of a shared chain fans it to every attached tail, and the
//     query plane may retain it (and its encoded frame) across result
//     retransmissions. The emitting operator must therefore never
//     reuse or mutate the batch after pushing it; emission scratch is
//     limited to the value slice consumed by AppendRow.
//
// # Per-call scratch
//
// An operator instance keeps no scratch between calls. Column indices,
// key buffers, group slots, accumulators, predicate verdicts and row views
// live in one pooled scratch value (scratch.go): a call takes it from the
// pool, and returns it before it emits or returns, and never retains it.
// The scratch also remembers the last columnar batch it grouped; because
// batches are read-only, the same batch pointer, length and key columns
// mean the same group slots, so a batch fanned to many GroupBys is keyed
// once.
//
// A window's aggregation state is recycled the same way: GroupBy.Flush
// emits its window, resets the window's GroupSet and puts it in a second
// pool, where the next window to start takes it, map buckets and slabs
// and all. Nothing downstream may therefore retain a GroupSet's storage:
// Emit and EmitBatch copy every value out into fresh tuples and a fresh
// batch, and between windows a chain holds no GroupSet at all.
package exec

import (
	"pier/internal/tuple"
)

// Tag identifies one probe: an asynchronous request for a set of data
// issued from parent to child (§3.3.5). Tags travel with every pushed
// tuple so state can be matched even when probes are reordered.
type Tag uint64

// Sink receives pushed batches; parents implement Sink for their children.
type Sink interface {
	// PushBatch delivers one shared read-only batch produced under the
	// given probe tag (see the ownership contract above). PushBatch must
	// not block: it runs to completion inside the event that delivered
	// the batch.
	PushBatch(tag Tag, b *tuple.Batch)
}

// Op is one dataflow operator instance in an opgraph.
type Op interface {
	Sink
	// SetParent wires the downstream sink that receives this operator's
	// output. It must be called before Open.
	SetParent(s Sink)
	// Open propagates a probe request down the graph, setting up
	// per-probe state on the heap. It corresponds to the iterator model's
	// open call on the control channel.
	Open(tag Tag)
	// Flush forces stateful operators (joins, aggregates, top-k) to emit
	// their current results downstream. PIER has no EOF — queries end by
	// timeout (§3.3.2) — so the timeout (or a periodic timer for
	// continuous queries) drives emission.
	Flush(tag Tag)
	// Close releases all operator state.
	Close()
}

// SinkFunc adapts a row callback to the Sink interface: the one place a
// batch is unrolled into rows, for terminals at the row-oriented client
// boundary.
type SinkFunc func(tag Tag, t *tuple.Tuple)

// PushBatch invokes the function once per row, in order.
func (f SinkFunc) PushBatch(tag Tag, b *tuple.Batch) {
	for i, n := 0, b.Len(); i < n; i++ {
		f(tag, b.Row(i))
	}
}

// Out is the output half of an operator's wiring: the parent its batches
// go to. Operators with one output embed it.
type Out struct {
	parent Sink
}

// SetParent records the downstream sink.
func (o *Out) SetParent(s Sink) { o.parent = s }

// Emit pushes a batch to the parent if one is wired.
func (o *Out) Emit(tag Tag, batch *tuple.Batch) {
	if o.parent != nil {
		o.parent.PushBatch(tag, batch)
	}
}

// In is the input half: the child that control calls go down to, and the
// default Open/Flush/Close that only forward. Operators with one input
// embed it, define SetChild (Adopt needs the operator itself) and the
// lifecycle methods that do something of their own, calling the embedded
// one to forward.
type In struct {
	child Op
}

// Adopt wires c as the child of self, the operator embedding i.
func (i *In) Adopt(self Sink, c Op) { i.child = c; c.SetParent(self) }

// Child returns the wired child, or nil.
func (i *In) Child() Op { return i.child }

// Open forwards the probe to the child.
func (i *In) Open(tag Tag) {
	if i.child != nil {
		i.child.Open(tag)
	}
}

// Flush forwards to the child.
func (i *In) Flush(tag Tag) {
	if i.child != nil {
		i.child.Flush(tag)
	}
}

// Close forwards to the child.
func (i *In) Close() {
	if i.child != nil {
		i.child.Close()
	}
}

// Base is both halves: what a one-input, one-output operator embeds.
type Base struct {
	Out
	In
}

// Discarded counts tuples dropped under the best-effort ("malformed
// tuple") policy, per operator. Exposed for observability and tests.
type Discarded struct {
	n uint64
}

// Inc records one discarded tuple.
func (d *Discarded) Inc() { d.n++ }

// Add records k discarded tuples at once, so operators discarding a whole
// batch do not loop per unit.
func (d *Discarded) Add(k int) {
	if k > 0 {
		d.n += uint64(k)
	}
}

// Count returns the number of tuples discarded so far.
func (d *Discarded) Count() uint64 { return d.n }
