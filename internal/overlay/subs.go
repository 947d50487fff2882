package overlay

import (
	"pier/internal/complist"
	"pier/internal/tuple"
)

// The newData subscription registry (Table 2: newData/handleNewData at
// multi-query scale). PIER is a query processor for many simultaneous
// users (§3.3.2), so a namespace routinely carries hundreds of live
// subscriptions — one per continuous query scanning the table — and the
// registry is built for that population:
//
//   - O(1) amortized add and remove. Cancelling a subscription never
//     leaves a permanent hole: dead entries are compacted away once they
//     outnumber live ones (complist.List), so a node that opens and
//     closes 10k queries ends exactly where it started.
//   - Deterministic dispatch order: subscribers run in subscription
//     order, which under the sharded scheduler is fixed by the node's
//     event order — the property every harness's bit-identical-results
//     contract rests on.
//   - Decode-once batch handoff: an arriving object's payload is decoded
//     into a *tuple.Batch at most once per arrival (tuple.DecodeFrame
//     accepts multi-row frames and legacy single-tuple encodings alike),
//     and the SAME batch is handed to every batch subscriber — there are
//     raw subscribers and batch subscribers, no per-row ones; a consumer
//     that wants rows unrolls the batch itself. The handoff is read-only
//     by contract (see below); per-subscriber decoding made the dispatch
//     cost of a publish O(subscribers × decode) instead of
//     O(decode + subscribers).
//
// Ownership/handoff contract (the registry-side companion of the PR 4
// payload rules in messages.go): the Object, the decoded batch, and the
// row views taken from it are SHARED — every other subscriber of
// the namespace receives the same values, and the store retains the
// Object's bytes. Subscribers must treat all of them as read-only; a
// dataflow that needs a mutated variant builds a new tuple or batch
// (exec operators already do: Project and Join construct fresh tuples,
// selection derives views, aggregation folds values into its own state).
// Retaining the batch or a tuple past the handler is allowed — both are
// immutable under this contract — but retaining obj.Data aliases the
// store's copy and must be copied first.
//
// Re-entrancy semantics, pinned by tests in subs_test.go:
//
//   - Cancel from within a dispatch takes effect immediately: the
//     cancelled subscriber (if not yet visited) is skipped for the
//     in-flight object.
//   - Subscribe from within a dispatch (or during a catch-up LocalScan)
//     does NOT see the in-flight object; delivery starts with the next
//     arrival.
//   - Dispatch may nest (a handler's PutLocal on the same node triggers
//     another dispatch synchronously); compaction is deferred until the
//     outermost dispatch unwinds.

// Subscription is a live newData registration. Cancel is O(1) and
// idempotent.
type Subscription struct {
	ns   *nsSubs
	reg  *subRegistry
	fn   func(Object)
	bfn  func(Object, *tuple.Batch)
	dead bool
}

// Dead reports whether the subscription was cancelled (complist.Entry).
func (s *Subscription) Dead() bool { return s.dead }

// Cancel removes the subscription. Safe to call from within a dispatch
// (the subscriber is skipped for the in-flight object) and safe to call
// more than once.
func (s *Subscription) Cancel() {
	if s == nil || s.dead {
		return
	}
	s.dead = true
	s.reg.live--
	s.ns.list.NoteDead()
}

// nsSubs is one namespace's subscriber list, in subscription order.
type nsSubs struct {
	name string
	list complist.List[*Subscription]
}

// subRegistry holds every namespace's subscribers plus the dispatch
// counters surfaced through SubscriptionStats.
type subRegistry struct {
	byNS map[string]*nsSubs
	live int

	dispatches uint64 // objects dispatched to >=1 subscriber's namespace
	decodes    uint64 // frame decodes performed (at most one per arrival)
	malformed  uint64 // arrivals whose payload failed frame decode
}

func newSubRegistry() *subRegistry {
	return &subRegistry{byNS: make(map[string]*nsSubs)}
}

func (r *subRegistry) add(namespace string, s *Subscription) *Subscription {
	ns := r.byNS[namespace]
	if ns == nil {
		ns = &nsSubs{name: namespace}
		ns.list.OnEmpty(func() { delete(r.byNS, ns.name) })
		r.byNS[namespace] = ns
	}
	s.ns = ns
	s.reg = r
	ns.list.Add(s)
	r.live++
	return s
}

// dispatch delivers obj to every live subscriber of its namespace, in
// subscription order, decoding the payload at most once.
func (r *subRegistry) dispatch(obj Object) {
	ns := r.byNS[obj.Namespace]
	if ns == nil {
		return
	}
	r.dispatches++
	var b *tuple.Batch
	decoded := false
	ns.list.Each(func(s *Subscription) {
		if s.fn != nil {
			s.fn(obj)
			return
		}
		if !decoded {
			decoded = true
			r.decodes++
			bb, err := tuple.DecodeFrame(obj.Data)
			if err != nil {
				r.malformed++
			} else {
				b = bb
			}
		}
		if b != nil {
			s.bfn(obj, b)
		}
	})
}

// count returns the live subscriber count for one namespace.
func (r *subRegistry) count(namespace string) int {
	ns := r.byNS[namespace]
	if ns == nil {
		return 0
	}
	return ns.list.Live()
}

// SubscriptionStats is the registry's observability surface.
type SubscriptionStats struct {
	// Live is the number of currently registered subscriptions across
	// all namespaces.
	Live int
	// Namespaces is the number of namespaces with at least one live
	// subscriber.
	Namespaces int
	// Dispatches counts arrivals delivered into a subscribed namespace.
	Dispatches uint64
	// Decodes counts frame decodes performed — at most one per arrival,
	// shared by every batch subscriber (the decode-once contract).
	Decodes uint64
	// Malformed counts arrivals whose payload failed frame decode; batch
	// subscribers never see those objects (raw subscribers still do).
	Malformed uint64
}

// Subscribe registers fn to receive every new object stored in namespace
// at this node, as raw Objects. It is the registry-backed generalization
// of OnNewData: O(1) add/remove and no slot leak on Cancel.
func (d *DHT) Subscribe(namespace string, fn func(Object)) *Subscription {
	return d.subs.add(namespace, &Subscription{fn: fn})
}

// SubscribeBatches registers fn to receive every new object in namespace
// decoded as a whole *tuple.Batch. The decode happens at most ONCE per
// arriving object no matter how many batch subscribers the namespace has;
// all of them see the same shared, read-only batch (see the handoff
// contract above). Objects whose payload does not decode are counted in
// SubscriptionStats.Malformed and not delivered.
func (d *DHT) SubscribeBatches(namespace string, fn func(Object, *tuple.Batch)) *Subscription {
	return d.subs.add(namespace, &Subscription{bfn: fn})
}

// Subscribers reports the live newData subscriber count for a namespace.
func (d *DHT) Subscribers(namespace string) int { return d.subs.count(namespace) }

// SubscriptionStats reports registry-wide subscription and dispatch
// counters.
func (d *DHT) SubscriptionStats() SubscriptionStats {
	return SubscriptionStats{
		Live:       d.subs.live,
		Namespaces: len(d.subs.byNS),
		Dispatches: d.subs.dispatches,
		Decodes:    d.subs.decodes,
		Malformed:  d.subs.malformed,
	}
}
