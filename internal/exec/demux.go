package exec

import (
	"pier/internal/complist"
	"pier/internal/tuple"
)

// Demux fans one shared operator chain's output to many per-query
// consumers, re-tagging every delivery with the consumer's own tag. It is
// the inverse of Tee: Tee copies one query's stream to several private
// parents under the SAME tag, while Demux sits at the top of a subtree
// shared across queries (§3.3.2 multi-query work sharing) and hands the
// single upstream stream to each attached tail under that tail's private
// tag, so downstream state — Result forwarding, per-query collectors —
// keys exactly as if the query ran its own private chain.
//
// Targets live in a complist: attach is O(1), detach is O(1) and
// idempotent, dispatch is deterministic insertion order, and when the
// last target detaches the list retires and fires OnEmpty exactly once —
// the hook the query processor uses to tear the shared chain down.
//
// Batches fan out under the shared-batch ownership contract (package
// docs): every target receives the SAME read-only batch.
type Demux struct {
	targets complist.List[*DemuxTarget]
}

// DemuxTarget is one attached consumer: a sink plus the private tag its
// deliveries are issued under.
type DemuxTarget struct {
	d    *Demux
	sink Sink
	tag  Tag
	dead bool
}

// Dead reports whether the target has detached (complist.Entry).
func (t *DemuxTarget) Dead() bool { return t.dead }

// Detach removes the target. Idempotent; when the last live target
// detaches, the demux retires and OnEmpty fires.
func (t *DemuxTarget) Detach() {
	if t.dead {
		return
	}
	t.dead = true
	t.d.targets.NoteDead()
}

// OnEmpty registers the retirement callback, invoked exactly once when
// the last target detaches.
func (d *Demux) OnEmpty(fn func()) { d.targets.OnEmpty(fn) }

// Attach registers a consumer; its deliveries arrive under tag.
func (d *Demux) Attach(tag Tag, s Sink) *DemuxTarget {
	t := &DemuxTarget{d: d, sink: s, tag: tag}
	d.targets.Add(t)
	return t
}

// Live returns the number of attached (non-detached) targets.
func (d *Demux) Live() int { return d.targets.Live() }

// Retired reports whether the last target has detached.
func (d *Demux) Retired() bool { return d.targets.Retired() }

// PushBatch fans one shared read-only batch to every live target under
// its own tag. The incoming tag is the shared chain's and is deliberately
// dropped.
func (d *Demux) PushBatch(_ Tag, b *tuple.Batch) {
	d.targets.Each(func(tg *DemuxTarget) {
		tg.sink.PushBatch(tg.tag, b)
	})
}
