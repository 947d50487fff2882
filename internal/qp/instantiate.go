package qp

import (
	"time"

	"pier/internal/bloom"
	"pier/internal/exec"
	"pier/internal/ufl"
	"pier/internal/vri"
)

// A chain is the one thing in this package that owns running operators:
// the wired instances, the probe tag they execute under, the
// subscriptions and timers they registered, and their entry on the
// node's flush wheel. newChain builds and wires every chain; open, flush
// and close are its whole lifecycle. Bus targets and wheel entries point
// at a chain, and the network-facing operators (netops.go, bloomops.go)
// reach the node and their query through the chain they were built in.
//
// Most chains belong to one query and hold its whole opgraph. A
// share-eligible opgraph (subtree.go) splits in two: everything beneath
// its tail is a chain cached under its subtree key and fed once per
// publish for every attached query, and each query keeps a private chain
// holding just its tail, attached to the cached chain's demux.
type chain struct {
	n *Node
	// rq is the query the operators run for. A shared chain serves many
	// queries and has none — sharePlan admits only operators that need no
	// query.
	rq *runningQuery

	// roots are the operators nobody in the chain consumes; probes and
	// flushes start there.
	roots   []exec.Op
	tag     exec.Tag
	cancels []func()
	timers  []vri.Timer
	closed  bool

	// flushEvery is the shortest flushevery interval among the chain's
	// operators (0: not continuous); wheelEntry is the registration it
	// buys on the flush wheel while the chain is open.
	flushEvery time.Duration
	wheelEntry *wheelEntry

	// demux and sig are set on shared chains only: the fan-out to the
	// attached queries' tails, and the chain's key in Node.subtrees (the
	// interned SubtreeKey of its top).
	demux *exec.Demux
	sig   subtreeKey
}

// liveGraph is one query's opgraph at this node: whose it is, and the
// chains it holds.
type liveGraph struct {
	specID string
	// client is the submitting client id, for the per-client quota ledger.
	client string

	// own holds the graph's private operators: the whole graph, or just
	// the tail when the rest is shared.
	own *chain
	// feed is the chain whose flush emits this graph's window: own, or
	// the shared chain own's tail is attached to through att.
	feed *chain
	att  *exec.DemuxTarget
}

// instantiate builds the local dataflow for an opgraph (§3.3.2: "when a
// node receives an opgraph it creates an instance of each operator in
// the graph and establishes the dataflow links between the operators").
// p is g's plan, which refused nothing (planOf).
func (n *Node) instantiate(rq *runningQuery, g *ufl.Opgraph, p *graphPlan) *liveGraph {
	own := n.newChain(rq, g, p, func(id string) bool { return !p.shared || id == p.tailID })
	lg := &liveGraph{specID: g.ID, own: own, feed: own}
	if p.shared {
		lg.feed = n.sharedChain(g, p)
		lg.att = lg.feed.demux.Attach(own.tag, fanoutSink{n: n, s: own.roots[0]})
	}
	return lg
}

// newChain instantiates the operators of g that member selects, from the
// parameters its plan parsed, and wires the edges between them; an edge
// that leaves the selection is the cut where a demux joins two chains. g
// passed Check, so every edge fits its consumer's slots. Tags scope
// operator state per chain and never leave the node, so the counter is
// per-node (a package global would be written from every shard worker
// when sharded).
func (n *Node) newChain(rq *runningQuery, g *ufl.Opgraph, p *graphPlan, member func(opID string) bool) *chain {
	n.tagCounter++
	c := &chain{n: n, rq: rq, tag: n.tagCounter}
	// ops holds the built operators by position in g.Ops and fed marks
	// the ones an edge inside the chain leaves; a small graph's stay on
	// the stack.
	var opsBuf [8]exec.Op
	var fedBuf [8]bool
	ops := append(opsBuf[:0], make([]exec.Op, len(g.Ops))...)
	fed := append(fedBuf[:0], make([]bool, len(g.Ops))...)
	for i, spec := range g.Ops {
		if !member(spec.ID) {
			continue
		}
		prm := &p.params[i]
		ops[i] = c.buildOp(spec.ID, prm, g.Dissem)
		if fe := prm.FlushEvery; fe > 0 && (c.flushEvery == 0 || fe < c.flushEvery) {
			c.flushEvery = fe
		}
	}
	// The consumer adopts the producer as a child on the edge's slot.
	for ei, e := range p.ends {
		if ops[e[0]] != nil && ops[e[1]] != nil {
			fed[e[0]] = true
			attachChild(ops[e[1]], g.Edges[ei].Slot, ops[e[0]])
		}
	}
	for i, op := range ops {
		if op != nil && !fed[i] {
			c.roots = append(c.roots, op)
		}
		if s, ok := op.(*scanOp); ok {
			s.gated = windowGated(p, ops, i)
		}
	}
	return c
}

// windowGated reports whether the access method at position i of ops, the
// chain's operators by position in the graph, is window-gated: its only
// path up the chain's wired edges reaches a GroupBy through Select and
// Project alone, so nothing it delivers leaves the chain before that
// GroupBy flushes (bus.go holds such a chain's arrivals). The graph is
// acyclic (Check), so the walk ends; it allocates nothing.
func windowGated(p *graphPlan, ops []exec.Op, i int) bool {
	for {
		next, outs := 0, 0
		for _, e := range p.ends {
			if e[0] == i && ops[e[1]] != nil {
				next, outs = e[1], outs+1
			}
		}
		if outs != 1 {
			return false
		}
		switch p.params[next].Kind {
		case "GroupBy":
			return true
		case "Select", "Project":
			i = next
		default:
			return false
		}
	}
}

// attachChild wires child as an input of parent on the given slot, a
// slot parent's kind has (Check).
func attachChild(parent exec.Op, slot int, child exec.Op) {
	switch p := parent.(type) {
	case *exec.SymmetricHashJoin:
		if slot == 0 {
			p.SetLeft(child)
		} else {
			p.SetRight(child)
		}
	case interface{ SetChild(exec.Op) }:
		p.SetChild(child)
	}
}

// open issues the initial probe on every root and, for a continuous
// chain, registers on the node's flush wheel: all chains sharing a
// flushevery period ride ONE node-level timer (wheel.go).
func (c *chain) open() {
	for _, r := range c.roots {
		r.Open(c.tag)
	}
	if c.flushEvery > 0 {
		c.wheelEntry = c.n.wheel.add(c.flushEvery, c)
	}
}

// flush forces stateful operators to emit (timeout- or timer-driven,
// §3.3.2). A shared chain emits through its demux to EVERY attached
// tail — the shared-window contract (subtree.go).
func (c *chain) flush() {
	for _, r := range c.roots {
		r.Flush(c.tag)
	}
}

// close releases the operators, cancels subscriptions and timers, and
// leaves the flush wheel and the subtree cache. A shared chain closes as
// its demux's OnEmpty, so exactly once, after the last query detached,
// and outside any in-flight dispatch.
func (c *chain) close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.n.subtrees[c.sig] == c {
		delete(c.n.subtrees, c.sig)
	}
	if c.wheelEntry != nil {
		c.wheelEntry.remove()
	}
	for _, cancel := range c.cancels {
		cancel()
	}
	for _, t := range c.timers {
		t.Cancel()
	}
	for _, r := range c.roots {
		r.Close()
	}
	// The result-frame memo exists to serve one demux fan-out; dropping
	// it with any closing chain means a node whose queries have all ended
	// pins no emitted window.
	c.n.resultFrameOf = nil
	c.n.resultFrame.Reset()
}

// flush emits the graph's window; on a shared feed that is the
// window of every query attached to it.
func (lg *liveGraph) flush() { lg.feed.flush() }

// close returns the graph's admission slot, detaches from the feed (the
// last detach closes a shared chain) and closes the private chain.
func (lg *liveGraph) close() {
	if lg.own.closed {
		return
	}
	n := lg.own.n
	n.liveGraphs--
	n.clientGraphClosed(lg.client)
	if lg.att != nil {
		lg.att.Detach()
	}
	lg.own.close()
}

// buildOp constructs op id from its parsed parameters: one case per kind
// of the operator table (ufl), which holds exactly the kinds some planner
// emits. d is how the op's opgraph was disseminated. Nothing here fails:
// the graph's plan refused any shape or argument the table does not allow.
func (c *chain) buildOp(id string, p *ufl.Params, d ufl.Dissemination) exec.Op {
	switch p.Kind {
	case "Scan", "NewData":
		// An equality-disseminated graph is about (Namespace, Key): it was
		// routed to that name's owner, so its read of Namespace is that
		// name's objects — the DHT's get, not an lscan (§3.3.3, Table 2).
		// Any other table, and an empty key, read the whole partition.
		a, key := p.Args.(*ufl.SourceArgs), ""
		if d.Mode == ufl.DissemEquality && a.Table == d.Namespace {
			key = d.Key
		}
		return newScan(c, a.Table, p.Kind == "Scan", a.Only, key)
	case "Select":
		return exec.NewSelect(p.Args.(*ufl.SelectArgs).Pred)
	case "Project":
		return exec.NewProject(p.Args.(*ufl.ProjectArgs).Cols...)
	case "Join":
		a := p.Args.(*ufl.KeyedArgs)
		j := exec.NewSymmetricHashJoin(a.LeftKey, a.RightKey)
		j.OutTable, j.PrefixCols = a.Out, a.Prefix
		return j
	case "GroupBy":
		a := p.Args.(*ufl.AggArgs)
		gb := exec.NewGroupBy(a.Keys, a.Aggs)
		gb.OutTable = a.Out
		return gb
	case "TopK":
		a := p.Args.(*ufl.TopKArgs)
		tk := exec.NewTopK(a.K, a.Col)
		tk.Ascending = a.Asc
		return tk
	case "Limit":
		return exec.NewLimit(p.Args.(*ufl.LimitArgs).N)
	case "Tee":
		return exec.NewTee()
	case "FetchMatches":
		a := p.Args.(*ufl.KeyedArgs)
		return &fetchMatchesOp{c: c, ns: a.NS, keyCols: a.Key, outTable: a.Out, prefix: a.Prefix, semiJoin: a.SemiJoin}
	case "HierAgg":
		// The rendezvous namespace defaults to one of the query's own, and
		// the local partial ships at half the query's timeout.
		a := p.Args.(*ufl.AggArgs)
		h := &hierAggOp{c: c, ns: a.NS, rootKey: a.Root, sendDelay: a.SendDelay, wait: a.Wait,
			local: exec.NewGroupSet(a.Keys, a.Aggs), pending: exec.NewGroupSet(a.Keys, a.Aggs)}
		if h.ns == "" {
			h.ns = c.rq.id + "!" + id
		}
		if h.sendDelay == 0 {
			h.sendDelay = c.rq.timeout / 2
		}
		return h
	case "BloomBuild":
		a := p.Args.(*ufl.KeyedArgs)
		return &bloomBuildOp{c: c, ns: a.NS, keyCols: a.Key, filter: bloom.New(a.Expected, a.FP)}
	case "BloomFilter":
		// It fetches the published filters when the build phase has
		// shipped them.
		a := p.Args.(*ufl.KeyedArgs)
		f := &bloomFilterOp{c: c, ns: a.NS, keyCols: a.Key}
		c.timers = append(c.timers, c.n.rt.Schedule(a.FetchDelay, f.fetch))
		return f
	case "Put":
		a := p.Args.(*ufl.KeyedArgs)
		return &putOp{c: c, ns: a.NS, keyCols: a.Key, fixedKey: a.FixedKey}
	case "Result":
		return &resultOp{c: c}
	}
	panic("qp: the operator table has a kind buildOp cannot build: " + p.Kind)
}

// ParseAggSpecs parses "count(*) as cnt; sum(bytes) as total" into
// aggregate specs (ufl.ParseAggSpecs).
func ParseAggSpecs(src string) ([]exec.AggSpec, error) { return ufl.ParseAggSpecs(src) }
