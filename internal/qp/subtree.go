//go:build go1.23

package qp

import (
	"strings"
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
// (per-probe DHT state), and the tails themselves. A kind buildOp does not
// know is not shareable either, so its graph takes the private path and
// fails to build there.
var shareableOpKinds = map[string]bool{
	"newdata": true, "select": true, "project": true, "join": true,
	"groupby": true, "limit": true, "topk": true, "tee": true,
}

// sharePlan decides share-eligibility for an opgraph: unique op ids (a
// subtree key tells ops apart by position, not id), exactly one tail
// (Result/Put) consuming exactly one input chain, every chain operator of
// a shareable kind. It returns the ids of the tail and of the chain's top
// operator (the tail's single producer).
func sharePlan(g *ufl.Opgraph) (tailID, topID string, ok bool) {
	fanOut := make(map[string]int, len(g.Ops))
	for _, op := range g.Ops {
		if _, dup := fanOut[op.ID]; dup {
			return "", "", false
		}
		fanOut[op.ID] = 0
	}
	for _, e := range g.Edges {
		fanOut[e.From]++
	}
	var tail ufl.OpSpec
	tails := 0
	for _, op := range g.Ops {
		if fanOut[op.ID] == 0 {
			tail = op
			tails++
		}
	}
	if tails != 1 {
		return "", "", false
	}
	switch strings.ToLower(tail.Kind) {
	case "result", "put":
	default:
		return "", "", false
	}
	tailIn := 0
	for _, e := range g.Edges {
		if e.To == tail.ID {
			tailIn++
			topID = e.From
		}
	}
	// The chain's top must feed the tail alone: a top that also fans
	// elsewhere would leave the demux replacing only one branch.
	if tailIn != 1 || fanOut[topID] != 1 {
		return "", "", false
	}
	for _, op := range g.Ops {
		if op.ID == tail.ID {
			continue
		}
		if !shareableOpKinds[strings.ToLower(op.Kind)] {
			return "", "", false
		}
	}
	return tail.ID, topID, true
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

// graphPlan is how an opgraph shares: sharePlan's verdict and, for a
// shared plan, the interned key of its top's subtree. Inside a
// dissemination frame the entries whose graphs share one decode
// (ufl.DecodeBatch) share one plan (frameState.plans, keyed by the
// decode's first OpSpec), so a frame of Q same-shape queries runs
// sharePlan and SubtreeKey once, not Q times. The memo lives only while
// the frame is accepted.
type graphPlan struct {
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
	p.tailID, p.topID, p.shared = sharePlan(g)
	if p.shared {
		p.key = unique.Make(g.SubtreeKey(p.topID))
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
func (n *Node) sharedChain(g *ufl.Opgraph, p *graphPlan) (*chain, error) {
	if c := n.subtrees[p.key]; c != nil {
		n.subtreeHits++
		return c, nil
	}
	c, err := n.newChain(nil, g, func(id string) bool { return id != p.tailID })
	if err != nil {
		return nil, err
	}
	c.sig, c.demux = p.key, &exec.Demux{}
	c.roots[0].SetParent(c)
	c.demux.OnEmpty(c.close)
	n.subtrees[p.key] = c
	n.subtreeBuilds++
	c.open()
	return c, nil
}
