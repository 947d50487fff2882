package qp

import (
	"pier/internal/complist"
	"pier/internal/exec"
	"pier/internal/overlay"
	"pier/internal/tuple"
)

// tableBus is the per-node shared table bus: the query-processor side of
// the multi-tenant newData path. Every open Scan/NewData access method
// attaches its chain here instead of subscribing to the DHT itself, and
// the bus shares two things among the attached chains:
//
//   - one overlay subscription per distinct access signature — the
//     (table, only-filter, object key) triple that fully determines
//     delivery semantics — so a table read by Q chains costs one registry
//     slot, not Q;
//   - the decode: the overlay registry decodes once per arrival
//     (overlay.SubscribeBatches) and the bus fans the SAME *tuple.Batch
//     out to every attached chain, whole (exec's one edge: PushBatch).
//
// Queries that are structurally identical beneath their tail go one step
// further and share the chain itself (subtree.go); the bus then holds one
// attachment for all of them.
//
// Held arrivals. An access method is window-gated when its only path up
// its chain reaches a GroupBy through Select/Project alone (windowGated):
// nothing it is fed leaves the chain before that GroupBy flushes. A share
// with TWO or more live gated attachments appends each arrival once to
// held, and a release hands the held arrivals to every gated attachment
// as ONE push per schema run (tuple.Concat: one push unless the held
// arrivals change table or columns); ungated attachments are fed at
// once. A
// release happens when a flush reaches a gated input (exec.Input.OnFlush;
// GroupBy.Flush forwards down before it emits), before a gated attachment
// joins (it sees only later arrivals), when the share drops below two
// gated attachments, and at maxHeldRows. Chain work takes no virtual
// time and each chain still receives exactly its arrivals, in order,
// before its window emits, so every message and latency is unchanged.
// Two, because one held entry pays only when it replaces several
// per-chain feeds: a lone gated chain would trade its group state for a
// window of held rows. A holding share with no live ungated attachment
// (ungated == 0) has nothing to feed at once, so an arrival there is one
// append to held: dispatch skips the walk over its attachments, which
// would skip every one. chainFeeds counts arrivals delivered per chain
// however they were batched; chainPushes counts PushBatch calls, so a
// release costs each gated chain one push per schema run.
//
// Handoff contract: batches crossing the bus are SHARED and READ-ONLY
// (see the registry contract in internal/overlay/subs.go and the batch
// rules in internal/exec/op.go). Operators that transform tuples build
// new ones; none may mutate its input.
//
// Re-entrancy mirrors the overlay registry: detaching from within a
// dispatch skips the detached target for the in-flight batch; attaching
// from within a dispatch starts with the next arrival; compaction of
// dead targets is deferred while a dispatch is on the stack
// (complist.List).
type tableBus struct {
	n       *Node
	shares  map[busKey]*busShare
	targets int // live chain attachments across all shares
}

// maxHeldRows bounds the rows a share holds: a GroupBy flushed only at
// its deadline must not pin an hour of arrivals.
const maxHeldRows = 1024

// busKey is the access signature of a Scan/NewData subscription: the
// fields that determine exactly which tuples a subscriber receives. key,
// when non-empty, is the object key of a keyed read (newScan): the share
// receives only arrivals stored under (table, key).
type busKey struct {
	table string
	only  string
	key   string
}

// busShare is one shared subscription and its attached chains, in
// attachment order (dispatch order is deterministic, like the registry),
// and the arrivals held for its gated attachments. gated and ungated
// count its live attachments of each kind.
type busShare struct {
	bus      *tableBus
	key      busKey
	sub      *overlay.Subscription
	targets  complist.List[*busTarget]
	gated    int
	ungated  int
	held     []*tuple.Batch
	heldRows int
}

// busTarget is one attachment to a share: the access method of one chain
// (instantiate.go). A signature-cached chain's single attachment feeds
// every query attached to it.
type busTarget struct {
	share   *busShare
	c       *chain
	in      *exec.Input
	tag     exec.Tag
	removed bool
	gated   bool
}

// Dead reports whether the target detached (complist.Entry).
func (t *busTarget) Dead() bool { return t.removed }

func newTableBus(n *Node) *tableBus {
	return &tableBus{n: n, shares: make(map[busKey]*busShare)}
}

// attach subscribes a chain's access-method input to the shared table
// stream, creating the underlying overlay subscription only for the
// first attachment of an access signature. The returned cancel is O(1)
// and idempotent.
func (b *tableBus) attach(table, only, objKey string, c *chain, tag exec.Tag, in *exec.Input, gated bool) (cancel func()) {
	key := busKey{table: table, only: only, key: objKey}
	sh := b.shares[key]
	if sh == nil {
		sh = &busShare{bus: b, key: key}
		sh.sub = b.n.dht.SubscribeBatches(table, sh.dispatch)
		// Retire the share (cancelling the overlay subscription — no
		// leak) when the last query detaches. A Go map never shrinks, and
		// keyed lookups open and retire a share per key, so a map that
		// empties is replaced rather than kept at its high-water size.
		sh.targets.OnEmpty(func() {
			sh.sub.Cancel()
			delete(b.shares, sh.key)
			if len(b.shares) == 0 {
				b.shares = make(map[busKey]*busShare)
			}
		})
		b.shares[key] = sh
	}
	t := &busTarget{share: sh, c: c, in: in, tag: tag, gated: gated}
	if gated {
		sh.release()
		sh.gated++
		in.OnFlush = func(exec.Tag) { sh.release() }
	} else {
		sh.ungated++
	}
	sh.targets.Add(t)
	b.targets++
	return func() { sh.remove(t) }
}

// dispatch fans one decoded arrival out to the attached chains, or holds
// it for the gated ones (see tableBus). A keyed share returns at once on
// an arrival under another key — one string compare per live lookup key,
// not a Select evaluation through each lookup's chain. The only-filter is
// evaluated once per share, not once per attachment. Q same-shape queries
// ride ONE attachment, so chainFeeds per publish measure the operator
// executions actually paid — the O(1)-in-Q quantity a scenario report's
// "sharing:" line prints as chain-feeds.
func (sh *busShare) dispatch(o overlay.Object, b *tuple.Batch) {
	if sh.key.key != "" && o.Key != sh.key.key {
		return
	}
	fb := b.FilterTable(sh.key.only)
	if fb == nil || fb.Len() == 0 {
		return
	}
	hold := sh.gated >= 2
	if hold {
		sh.held = append(sh.held, fb)
		sh.heldRows += fb.Len()
	}
	if !hold || sh.ungated > 0 {
		sh.targets.Each(func(tg *busTarget) {
			if !tg.c.closed && !(hold && tg.gated) {
				sh.feed(tg, 1, fb)
			}
		})
	}
	if sh.heldRows >= maxHeldRows {
		sh.release()
	}
}

// release hands the held arrivals, one batch per schema run, to each
// live gated attachment in attachment order.
func (sh *busShare) release() {
	if len(sh.held) == 0 {
		return
	}
	bs, arrivals := tuple.Concat(sh.held), len(sh.held)
	clear(sh.held)
	sh.held, sh.heldRows = sh.held[:0], 0
	sh.targets.Each(func(tg *busTarget) {
		if tg.gated && !tg.c.closed {
			sh.feed(tg, arrivals, bs...)
		}
	})
}

// feed pushes bs, carrying the given number of arrivals, into one chain.
func (sh *busShare) feed(tg *busTarget, arrivals int, bs ...*tuple.Batch) {
	n := sh.bus.n
	n.chainFeeds += uint64(arrivals)
	for _, b := range bs {
		n.chainPushes++
		tg.in.PushBatch(tg.tag, b)
	}
}

func (sh *busShare) remove(t *busTarget) {
	if t.removed {
		return
	}
	t.removed = true
	sh.bus.targets--
	if !t.gated {
		sh.ungated--
	} else if sh.gated--; sh.gated < 2 {
		sh.release()
	}
	sh.targets.NoteDead()
}
