//go:build go1.23

package qp

import (
	"unique"

	"pier/internal/exec"
	"pier/internal/tuple"
	"pier/internal/ufl"
)

// Operator-subtree sharing: the multi-query optimization PIER sketches in
// §3.3.2, one level up from the shared access methods of bus.go. The
// table bus decodes each arrival once and fans the SAME batch to every
// subscribed chain; this file makes structurally identical queries BE one
// chain, so 1000 same-shape continuous aggregations pay the Select/GroupBy
// work once per publish, not 1000 times.
//
//   - sharePlan decides whether an opgraph may share: one tail over a
//     NewData-fed chain of deterministic operators. Everything else runs
//     as one private chain nobody else can attach to.
//   - sharedChain resolves the operators beneath the tail through a cache
//     keyed by the exact canonical bytes of the top's subtree
//     (ufl.SubtreeKey: the top plus everything feeding it, op ids and
//     predicate operand order aside, interned by unique.Make): the first
//     query BUILDS and opens the chain, every later query whose key is
//     equal ATTACHES to it. Nothing in the key is rewritten per query, so
//     two queries that read their own tables get two chains.
//   - The cached chain executes once per publish under its own tag and
//     ends in an exec.Demux, which fans output to each attached query's
//     private tail (Result/Put) under that query's own tag — the
//     tails cannot tell the difference.
//   - The chain is itself the sink above its top operator: it runs the
//     demux fan-out and, once that has unwound, sends the result messages
//     the Result tails opened — ONE per (emitted batch, proxy), listing
//     that proxy's attached queries, so a shared window also TRAVELS
//     once per proxy, not once per query (Node.forwardResult).
//   - Retirement is refcounted through the demux's complist: the last
//     detaching query closes the chain (wheel entry, bus subscription,
//     operator state, cache slot) exactly once, OnEmpty-style.
//
// Sharing changes WHEN stateful operators flush, and the contract is
// deliberate: the cached chain has one window. A query attaching to an
// existing chain adopts the chain's current window (NewData semantics —
// no history is replayed, but in-window accumulation is shared), and any
// attached query's flush (wheel tick or its own timeout) emits the
// window to ALL attached tails. Graphs whose semantics cannot share a
// window — catch-up Scans and per-query rendezvous (HierAgg, FetchMatches;
// Put destinations are fine: they're tails) — are excluded by sharePlan.

// shareableOpKinds are the operator kinds that may live inside a shared
// chain: deterministic, node-local (or bus-fed), and keyed purely by
// their spec. Excluded on purpose: scan (catch-up replays
// history, which a late attacher must not receive), hieragg (per-query
// rendezvous namespace and timers), fetchmatches and the bloom operators
// (per-probe DHT state), and the tails themselves.
var shareableOpKinds = map[string]bool{
	"NewData": true, "Select": true, "Project": true, "Join": true,
	"GroupBy": true, "Limit": true, "TopK": true, "Tee": true,
}

// sharePlan decides share-eligibility for a graph that passed Check, from
// its ops' parameters ps: exactly one tail (Result/Put), fed, and every
// other op of a shareable kind. It returns the ids of the tail and of the
// chain's top (its one producer: Check allows one edge per slot). Every op
// reaches a sink (Check), so every other op lies in the top's subtree,
// which the key covers.
func sharePlan(g *ufl.Opgraph, ps []ufl.Params) (tailID, topID string, ok bool) {
	for i := range ps {
		switch kind := ps[i].Kind; {
		case kind == "Result" || kind == "Put":
			if tailID != "" {
				return "", "", false
			}
			tailID = g.Ops[i].ID
		case !shareableOpKinds[kind]:
			return "", "", false
		}
	}
	for _, e := range g.Edges {
		if e.To == tailID {
			topID = e.From
		}
	}
	return tailID, topID, topID != ""
}

// fanoutSink wraps a per-query tail as a demux target, counting shared
// deliveries on the node so the sharing win is observable (Stats).
type fanoutSink struct {
	n *Node
	s exec.Sink
}

func (f fanoutSink) PushBatch(tag exec.Tag, b *tuple.Batch) {
	f.n.sharedFanout++
	f.s.PushBatch(tag, b)
}

// PushBatch makes a shared chain the sink above its own top operator: fan
// the output to the attached tails through the demux, then, the fan-out
// unwound, send the result messages the tails opened — one per proxy, not
// one per tail (Node.forwardResult). A streamed row arrives as a batch of
// one, so every tail is handed the same batch and the row, too, travels
// once per proxy.
func (c *chain) PushBatch(tag exec.Tag, b *tuple.Batch) {
	n := c.n
	n.fanning++
	c.demux.PushBatch(tag, b)
	if n.fanning--; n.fanning == 0 {
		n.sendOpenResults()
	}
}

// graphPlan is how an opgraph builds: the verdict of Check and of its
// argument parse (err refuses it), the positions of its edges' ends
// (ufl.CheckEnds), every op's parsed parameters in Ops order, sharePlan's
// verdict and, if shared, the interned key of its top's subtree. Entries
// of a dissemination frame that share one decode (ufl.DecodeBatch) share
// one plan (frameState.plans, keyed by the decode's first OpSpec) while
// the frame is accepted, so a frame of Q same-shape queries checks,
// parses, plans and keys its graph once.
type graphPlan struct {
	err           error
	params        []ufl.Params
	ends          [][2]int
	tailID, topID string
	shared        bool
	key           subtreeKey
}

// subtreeKey is a shared chain's identity in Node.subtrees: the interned
// canonical bytes of its top's subtree (ufl.SubtreeKey). unique.Make keeps
// one copy of each distinct key per process, so nodes that share a shape
// share its bytes, and two handles are equal exactly when the whole keys
// are. Package unique needs go1.23; the module's go line stays 1.22
// because the benchmark module (go 1.22) builds against it, so this
// file's build constraint lifts its language version alone.
type subtreeKey = unique.Handle[string]

// planOf returns g's plan: the frame memo's, when a frame is being
// accepted, else a fresh one.
func (n *Node) planOf(g *ufl.Opgraph) *graphPlan {
	var memo *ufl.OpSpec
	if n.frame != nil && n.frame.plans != nil && len(g.Ops) > 0 {
		memo = &g.Ops[0]
		if p := n.frame.plans[memo]; p != nil {
			return p
		}
	}
	p := &graphPlan{}
	if p.ends, p.err = g.CheckEnds(); p.err == nil {
		p.params, p.err = g.Params()
	}
	if p.err == nil {
		p.tailID, p.topID, p.shared = sharePlan(g, p.params)
	}
	if p.shared {
		n.keyBuf = g.AppendSubtreeKey(n.keyBuf[:0], p.topID, p.params, p.ends)
		p.key = unique.Make(string(n.keyBuf))
	}
	if memo != nil {
		n.frame.plans[memo] = p
	}
	return p
}

// sharedChain resolves the operators of g beneath its tail to the chain
// cached under their subtree key, building and opening it for the first
// query to ask. sharePlan guarantees the top is the only operator of that
// chain nobody in it consumes, so it is the sole root, and the demux
// stands in for the edge to the tail.
func (n *Node) sharedChain(g *ufl.Opgraph, p *graphPlan) *chain {
	if c := n.subtrees[p.key]; c != nil {
		n.subtreeHits++
		return c
	}
	c := n.newChain(nil, g, p, func(id string) bool { return id != p.tailID })
	c.sig, c.demux = p.key, &exec.Demux{}
	c.roots[0].SetParent(c)
	c.demux.OnEmpty(c.close)
	n.subtrees[p.key] = c
	n.subtreeBuilds++
	c.open()
	return c
}
