package qp

import (
	"time"

	"pier/internal/exec"
	"pier/internal/overlay"
	"pier/internal/tuple"
	"pier/internal/wire"
)

// Network-facing operators: the access methods and exchange-like
// operators that connect a local dataflow to the DHT (§3.3.6). These are
// the "non-traditional" operators the paper lists alongside the classic
// relational ones: access methods, result handler, put (similar to
// Exchange), and the hierarchical aggregation machinery.

// newScan builds the DHT access method for a table namespace: a local
// scan over objects already stored here (catch-up, §3.3.4 "operators
// must be capable of catching up when they start") plus an attachment to
// the node's shared table bus for objects arriving afterwards (bus.go:
// one overlay subscription per access signature, one decode per arrival,
// shared read-only tuples). withScan=false gives the pure NewData
// variant used for rendezvous namespaces where history is not wanted.
//
// key, when non-empty, makes the read keyed — the index lookup of §3.3.3
// (buildOp decides when): catch-up is the DHT's get of (table, key) at
// this node instead of an lscan of the node's whole partition, and the
// bus share receives only arrivals stored under that key. get returns a
// key's objects in suffix order, which is the order the scan visits them
// in, so a keyed read emits what the scan would have emitted for that
// key, in the same order; the cost is the key's matches, not the store.
//
// only, when non-empty, keeps just tuples whose self-described table
// name matches. A join's rehash phase ships both relations into ONE
// rendezvous namespace (so equal join keys land on the same node —
// §3.3.2: "a producer and a consumer in two separate opgraphs are
// connected using ... a particular namespace within the DHT"); the
// consuming opgraph separates them again by table name.
//
// Malformed stored objects are discarded best-effort but COUNTED: the
// catch-up path increments the node's malformedFrames, the newData path
// is counted by the overlay registry; both surface in Node.Stats.
//
// The catch-up runs before the bus attachment, so a window-gated scan
// (bus.go) delivers its stored rows before any arrival the bus holds.
func newScan(c *chain, table string, withScan bool, only, key string) *scanOp {
	n := c.n
	s := &scanOp{}
	in := &s.Input
	in.OnOpen = func(tag exec.Tag) {
		if withScan {
			catchUp := func(o overlay.Object) bool {
				n.catchUpObjects++
				fb, err := tuple.DecodeFrame(o.Data)
				if err != nil {
					n.malformedFrames.Inc()
					return true
				}
				if fb = fb.FilterTable(only); fb != nil && fb.Len() > 0 {
					in.PushBatch(tag, fb)
				}
				return true
			}
			if key != "" {
				n.dht.LocalGet(table, key, catchUp)
			} else {
				n.dht.LocalScan(table, catchUp)
			}
		}
		c.cancels = append(c.cancels, n.bus.attach(table, only, key, c, tag, in, s.gated))
	}
	return s
}

// scanOp is the access method newScan builds: the input arrivals enter
// by, and whether it is window-gated (bus.go), which newChain decides
// once the chain is wired.
type scanOp struct {
	exec.Input
	gated bool
}

// putOp rehashes each input tuple into a DHT namespace keyed by the
// given columns — PIER's distributed Exchange (§3.3.6 "partitioned
// parallelism"): it repartitions tuples by value across the whole
// system, with the DHT providing the network queue and the separation of
// control flow between opgraphs.
type putOp struct {
	exec.In
	c       *chain
	ns      string
	keyCols []string
	// fixedKey, when non-empty, sends every tuple to one DHT name
	// instead of partitioning by column value — the "all partials to one
	// rendezvous site" pattern of naive multi-phase aggregation.
	fixedKey string
	// Dropped counts tuples lacking the partitioning columns.
	Dropped exec.Discarded
	// Sent counts tuples shipped.
	Sent uint64
}

func (p *putOp) SetParent(exec.Sink) {}
func (p *putOp) SetChild(c exec.Op)  { p.Adopt(p, c) }

// PushBatch rehashes a whole batch: rows sharing a partitioning key are
// grouped (first-seen key order, preserving in-key row order) and each
// group ships as ONE multi-row frame — the messages-per-publish win of
// the exchange. A lone row keeps the legacy single-tuple encoding.
func (p *putOp) PushBatch(_ exec.Tag, b *tuple.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if n == 1 {
		t, key := b.Row(0), p.fixedKey
		if key == "" {
			k, ok := t.KeyString(p.keyCols...)
			if !ok {
				p.Dropped.Inc()
				return
			}
			key = k
		}
		p.Sent++
		p.putWithRetry(key, t.Encode(), 0)
		return
	}
	if p.fixedKey != "" {
		p.Sent += uint64(n)
		w := wire.NewWriter(64 + 32*n)
		b.EncodeRowsTo(w, nil)
		p.putWithRetry(p.fixedKey, w.Bytes(), 0)
		return
	}
	colIdx := make([]int, len(p.keyCols))
	for i, c := range p.keyCols {
		ci, ok := b.ColIndex(c)
		if !ok {
			// Partitioning column absent from the batch's schema: every
			// row lacks it.
			p.Dropped.Add(n)
			return
		}
		colIdx[i] = ci
	}
	groups := make(map[string][]int32)
	var order []string
	var keyBuf []byte
	for i := 0; i < n; i++ {
		keyBuf = b.AppendRowKey(keyBuf[:0], i, colIdx)
		if rows, seen := groups[string(keyBuf)]; seen {
			groups[string(keyBuf)] = append(rows, int32(i))
		} else {
			key := string(keyBuf)
			groups[key] = []int32{int32(i)}
			order = append(order, key)
		}
	}
	for _, key := range order {
		idx := groups[key]
		p.Sent += uint64(len(idx))
		// Fresh buffer per frame: Put retains the payload across async
		// routing (and the retry path re-sends it).
		w := wire.NewWriter(64 + 32*len(idx))
		b.EncodeRowsTo(w, idx)
		p.putWithRetry(key, w.Bytes(), 0)
	}
}

// putWithRetry puts one payload under its DHT name for the query's
// lifetime and re-issues a failed put on the shared backoff policy
// (backoff.go): lookups time out under routing churn and a lost partial
// silently corrupts downstream aggregates, so the exchange retries like
// any soft-state publisher — bounded, jittered from the node's rng, and
// counted in NodeStats so exhaustion is visible. A failed put whose chain
// has closed by the time it would be retried is dropped and counted as
// abandoned (PutsAbandoned).
func (p *putOp) putWithRetry(key string, data []byte, attempt int) {
	n := p.c.n
	n.dht.Put(p.ns, key, n.uniquifier(), data, p.c.rq.timeout, func(ok bool) {
		switch {
		case ok:
			return
		case p.c.closed:
			n.putsAbandoned++
			return
		case attempt >= sendRetryLimit:
			n.sendExhausted++
			return
		}
		n.sendRetries++
		n.rt.Schedule(n.retryDelay(attempt), func() {
			if p.c.closed {
				n.putsAbandoned++
				return
			}
			p.putWithRetry(key, data, attempt+1)
		})
	})
}

// resultOp forwards finished tuples to the query's proxy node, which
// delivers them to the client (§3.3.2).
type resultOp struct {
	exec.In
	c *chain
}

func (r *resultOp) SetParent(exec.Sink) {}
func (r *resultOp) SetChild(c exec.Op)  { r.Adopt(r, c) }

// PushBatch forwards the whole batch as one result frame. Q query tails
// fanned the same shared window by a demux hand the node the same batch,
// which it encodes once and sends once per proxy (see forwardResult).
func (r *resultOp) PushBatch(_ exec.Tag, b *tuple.Batch) {
	r.c.n.forwardResult(r.c.rq, b)
}

// fetchMatchesOp is the Fetch Matches join of Mackert & Lohman as used by
// PIER (§3.3.3–3.3.4): a distributed index join where each input tuple
// issues a DHT get against the "inner" relation's primary index — like
// disseminating a small single-table subquery per probe. With
// semiJoin=true it emits the matching inner tuples alone (the secondary-
// index pattern: follow the (index-key, tupleID) pair to the base
// table).
type fetchMatchesOp struct {
	exec.Base
	c        *chain
	ns       string
	keyCols  []string
	outTable string
	prefix   bool
	semiJoin bool
	closed   bool
	Dropped  exec.Discarded
	// Fetches counts index probes issued.
	Fetches uint64
}

func (f *fetchMatchesOp) SetChild(c exec.Op) { f.Adopt(f, c) }

// PushBatch probes the index once per row — each probe is an independent
// DHT get, so there is nothing to vectorize beyond the key build — and
// emits every match as a batch of one. A stored object that fails to
// decode is counted (NodeStats.MalformedDrops) and skipped.
func (f *fetchMatchesOp) PushBatch(tag exec.Tag, b *tuple.Batch) {
	for i, n := 0, b.Len(); i < n; i++ {
		outer := b.Row(i)
		key, ok := outer.KeyString(f.keyCols...)
		if !ok {
			f.Dropped.Inc()
			continue
		}
		f.Fetches++
		f.c.n.dht.Get(f.ns, key, func(objs []overlay.Object, err error) {
			if err != nil || f.closed {
				return
			}
			for _, o := range objs {
				fb, derr := tuple.DecodeFrame(o.Data)
				if derr != nil {
					f.c.n.malformedFrames.Inc()
					continue
				}
				for r, rows := 0, fb.Len(); r < rows; r++ {
					out := fb.Row(r)
					if !f.semiJoin {
						out = tuple.Join(f.outTable, outer, out, f.prefix)
					}
					f.Emit(tag, tuple.OfTuple(out))
				}
			}
		})
	}
}

func (f *fetchMatchesOp) Close() {
	f.closed = true
	f.In.Close()
}

// hierAggOp implements hierarchical aggregation (§3.3.4): instead of
// every node shipping raw tuples to one aggregation site, nodes are
// arranged into a tree by routing partial aggregates toward a root
// identifier with dht send; at each hop an upcall intercepts the
// partial, merges it with the local one, waits briefly for more, and
// forwards one combined partial a hop closer to the root. In-bandwidth
// at the root drops from O(nodes) raw streams to its tree fan-in of
// constant-size partials — which is why it pays off for distributive and
// algebraic aggregates but not holistic ones.
type hierAggOp struct {
	exec.Base
	c       *chain
	ns      string // rendezvous namespace, unique per query+op
	rootKey string
	// sendDelay is when this node ships its local partial; wait is how
	// long an interior node batches intercepted partials before
	// forwarding.
	sendDelay, wait time.Duration

	// local and pending live as long as the operator: each is reset
	// once its groups have been merged, encoded or emitted.
	local    *exec.GroupSet // raw tuples folded here
	pending  *exec.GroupSet // merged partials in transit through this node
	merged   bool           // local already folded into pending
	fwdTimer bool

	tag    exec.Tag
	closed bool
	// Forwarded counts partials this node sent up the tree.
	Forwarded uint64
	// Intercepted counts partials merged via upcall.
	Intercepted uint64
}

func (h *hierAggOp) SetChild(c exec.Op) { h.Adopt(h, c) }

func (h *hierAggOp) isRoot() bool {
	return h.c.n.dht.Owns(overlay.HashName(h.ns, h.rootKey))
}

func (h *hierAggOp) Open(tag exec.Tag) {
	h.tag = tag
	// Intercept partials routed through this node (§3.3.4: "at the
	// first hop along the routing path, PIER receives an upcall, and
	// combines that partial aggregate with its own data").
	h.c.n.dht.OnUpcall(h.ns, func(o overlay.Object) bool {
		if h.closed {
			return true // query gone here; let routing continue
		}
		if h.pending.MergeEncoded(o.Data) == nil {
			h.Intercepted++
			h.scheduleForward()
		}
		return false
	})
	// The root's own partial never leaves, and partials that reach the
	// root arrive via the upcall (the owner also upcalls); nothing to
	// subscribe. Ship the local partial after sendDelay.
	h.c.timers = append(h.c.timers, h.c.n.rt.Schedule(h.sendDelay, h.shipLocal))
	h.In.Open(tag)
}

// PushBatch folds a whole batch into the local partial aggregate.
func (h *hierAggOp) PushBatch(_ exec.Tag, b *tuple.Batch) {
	h.local.AddBatch(b)
}

// shipLocal merges the local partial into pending and, unless this node
// is the root, sends it toward the root.
func (h *hierAggOp) shipLocal() {
	if h.closed || h.merged {
		return
	}
	h.merged = true
	h.pending.Merge(h.local)
	h.local.Reset()
	h.forward()
}

// scheduleForward batches intercepted partials for `wait` before
// forwarding them one hop closer to the root.
func (h *hierAggOp) scheduleForward() {
	if h.fwdTimer || h.closed {
		return
	}
	h.fwdTimer = true
	h.c.timers = append(h.c.timers, h.c.n.rt.Schedule(h.wait, func() {
		h.fwdTimer = false
		h.forward()
	}))
}

// forward ships the pending partial toward the root, unless this node is
// the root (then it accumulates for emission at flush).
func (h *hierAggOp) forward() {
	if h.closed || h.isRoot() || h.pending.Len() == 0 {
		return
	}
	h.Forwarded++
	h.sendPartial(h.pending.Encode(), 0)
	h.pending.Reset()
}

// sendPartial ships one encoded partial toward the root with ack-driven
// retry on the shared backoff policy (backoff.go): a partial the overlay
// abandons silently understates the final aggregate, and the retry's
// fresh route benefits from the ring repair the nack itself triggered.
// Encode already allocated the payload, so retaining it across retries
// costs nothing extra; the closures are per forwarded partial (flush
// cadence), never per event.
func (h *hierAggOp) sendPartial(data []byte, attempt int) {
	n := h.c.n
	n.dht.SendTracked(h.ns, h.rootKey, n.uniquifier(), data, h.c.rq.timeout,
		func(ok bool) {
			if ok || h.closed {
				return
			}
			if attempt >= sendRetryLimit {
				n.sendExhausted++
				return
			}
			n.sendRetries++
			n.rt.Schedule(n.retryDelay(attempt), func() {
				if !h.closed {
					h.sendPartial(data, attempt+1)
				}
			})
		}, nil)
}

// Flush: at the root, emit the final aggregate downstream; elsewhere,
// make a last-gasp forward of anything still pending.
func (h *hierAggOp) Flush(tag exec.Tag) {
	h.In.Flush(tag)
	if !h.merged {
		h.merged = true
		h.pending.Merge(h.local)
		h.local.Reset()
	}
	if h.isRoot() {
		// The final aggregate leaves as one batch so the downstream
		// result path ships one frame per destination.
		if b := h.pending.EmitBatch("hieragg"); b != nil {
			h.Emit(tag, b)
		}
		h.pending.Reset()
		return
	}
	h.forward()
}

func (h *hierAggOp) Close() {
	h.closed = true
	h.In.Close()
}
