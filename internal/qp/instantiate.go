package qp

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pier/internal/exec"
	"pier/internal/expr"
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
// its tail is a chain cached under its structural signature and fed once
// per publish for every attached query, and each query keeps a private
// chain holding just its tail, attached to the cached chain's demux.
type chain struct {
	n *Node
	// rq is the query the operators run for. A signature-cached chain
	// serves many queries and has none — sharePlan admits only operators
	// that need no query (buildOp refuses the rest).
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

	// demux and sig are set on signature-cached chains only: the fan-out
	// to the attached queries' tails, and the chain's key in Node.subtrees.
	demux *exec.Demux
	sig   uint64
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
	// the signature-cached chain own's tail is attached to through att.
	feed *chain
	att  *exec.DemuxTarget
}

// instantiate builds the local dataflow for an opgraph (§3.3.2: "when a
// node receives an opgraph it creates an instance of each operator in
// the graph and establishes the dataflow links between the operators").
// The private chain builds first, so a build error leaves no freshly
// cached chain without an attachment behind.
func (n *Node) instantiate(rq *runningQuery, g ufl.Opgraph) (*liveGraph, error) {
	tailID, topID, shared := sharePlan(&g)
	own, err := n.newChain(rq, &g, func(id string) bool { return !shared || id == tailID })
	if err != nil {
		return nil, err
	}
	lg := &liveGraph{specID: g.ID, own: own, feed: own}
	if shared {
		if lg.feed, err = n.sharedChain(&g, rq.id, tailID, topID); err != nil {
			return nil, err
		}
		lg.att = lg.feed.demux.Attach(own.tag, fanoutSink{n: n, s: own.roots[0]})
	}
	return lg, nil
}

// newChain instantiates the operators of g that member selects and wires
// the edges between them; an edge that leaves the selection is the cut
// where a demux joins two chains. Tags scope operator state per chain
// and never leave the node, so the counter is per-node: a package global
// would be written from every shard worker under the sharded scheduler.
func (n *Node) newChain(rq *runningQuery, g *ufl.Opgraph, member func(opID string) bool) (*chain, error) {
	n.tagCounter++
	c := &chain{n: n, rq: rq, tag: n.tagCounter}
	ops := make(map[string]exec.Op)
	for _, spec := range g.Ops {
		if !member(spec.ID) {
			continue
		}
		op, err := c.buildOp(spec, g.Dissem)
		if err != nil {
			return nil, fmt.Errorf("qp: opgraph %q op %q: %w", g.ID, spec.ID, err)
		}
		ops[spec.ID] = op
		if fe := spec.Arg("flushevery", ""); fe != "" {
			d, err := time.ParseDuration(fe)
			if err != nil {
				return nil, fmt.Errorf("qp: opgraph %q op %q: bad flushevery: %w", g.ID, spec.ID, err)
			}
			if c.flushEvery == 0 || d < c.flushEvery {
				c.flushEvery = d
			}
		}
	}

	// Wire edges: the consumer adopts the producer as a child on the
	// given input slot. Producers feeding several consumers must be Tee.
	// Opgraphs arrive from strangers unvalidated, so an edge naming an
	// operator the graph never declared is an error, not a nil child.
	var edges []ufl.Edge
	fanOut := make(map[string]int)
	for _, e := range g.Edges {
		if !member(e.From) || !member(e.To) {
			continue
		}
		if ops[e.From] == nil || ops[e.To] == nil {
			return nil, fmt.Errorf("qp: opgraph %q: edge %s->%s names an undeclared operator", g.ID, e.From, e.To)
		}
		edges = append(edges, e)
		fanOut[e.From]++
	}
	for _, e := range edges {
		if fanOut[e.From] > 1 && !strings.EqualFold(g.Op(e.From).Kind, "tee") {
			return nil, fmt.Errorf("qp: opgraph %q: op %q feeds %d consumers; insert a Tee", g.ID, e.From, fanOut[e.From])
		}
		if err := attachChild(ops[e.To], e.Slot, ops[e.From]); err != nil {
			return nil, fmt.Errorf("qp: opgraph %q: edge %s->%s: %w", g.ID, e.From, e.To, err)
		}
	}
	for _, spec := range g.Ops {
		op := ops[spec.ID]
		if op != nil && fanOut[spec.ID] == 0 {
			c.roots = append(c.roots, op)
		}
		if s, ok := op.(*scanOp); ok {
			s.gated = windowGated(g, edges, spec.ID)
		}
	}
	if len(c.roots) == 0 {
		return nil, fmt.Errorf("qp: opgraph %q has no root operator (cycle?)", g.ID)
	}
	return c, nil
}

// windowGated reports whether the access method id is window-gated: its
// only path up the chain's wired edges reaches a GroupBy through Select
// and Project alone, so nothing it delivers leaves the chain before that
// GroupBy flushes (bus.go holds such a chain's arrivals). Each step
// consumes an edge, so a cycle cannot loop; the walk allocates nothing.
func windowGated(g *ufl.Opgraph, edges []ufl.Edge, id string) bool {
	for range edges {
		next, outs := "", 0
		for _, e := range edges {
			if e.From == id {
				next, outs = e.To, outs+1
			}
		}
		if outs != 1 {
			return false
		}
		switch kind := g.Op(next).Kind; {
		case strings.EqualFold(kind, "groupby"):
			return true
		case strings.EqualFold(kind, "select"), strings.EqualFold(kind, "project"):
			id = next
		default:
			return false
		}
	}
	return false
}

// attachChild wires child as an input of parent on the given slot,
// dispatching on the operator's wiring surface.
func attachChild(parent exec.Op, slot int, child exec.Op) error {
	switch p := parent.(type) {
	case *exec.SymmetricHashJoin:
		switch slot {
		case 0:
			p.SetLeft(child)
		case 1:
			p.SetRight(child)
		default:
			return fmt.Errorf("join has slots 0 and 1, got %d", slot)
		}
		return nil
	case *exec.Union:
		p.AddChild(child)
		return nil
	case interface{ SetChild(exec.Op) }:
		p.SetChild(child)
		return nil
	default:
		return fmt.Errorf("operator %T accepts no inputs", parent)
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
// §3.3.2). A signature-cached chain emits through its demux to EVERY
// attached tail — the shared-window contract (subtree.go).
func (c *chain) flush() {
	for _, r := range c.roots {
		r.Flush(c.tag)
	}
}

// close releases the operators, cancels subscriptions and timers, and
// leaves the flush wheel and the signature cache. A signature-cached
// chain closes as its demux's OnEmpty, so exactly once, after the last
// query detached, and outside any in-flight dispatch.
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

// flush emits the graph's window; on a signature-cached feed that is the
// window of every query attached to it.
func (lg *liveGraph) flush() { lg.feed.flush() }

// close returns the graph's admission slot, detaches from the feed (the
// last detach closes a signature-cached chain) and closes the private
// chain.
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

// buildOp constructs one operator instance from its spec — the single
// physical-operator menu. Kind names are case-insensitive. d is how the
// spec's opgraph was disseminated.
func (c *chain) buildOp(spec ufl.OpSpec, d ufl.Dissemination) (exec.Op, error) {
	kind := strings.ToLower(spec.Kind)
	if c.rq == nil && !shareableOpKinds[kind] {
		// sharePlan vetted every kind; reaching here is a bug, but
		// degrade to an error instead of a nil query in an operator.
		return nil, fmt.Errorf("kind %q not shareable", spec.Kind)
	}
	switch kind {
	case "scan", "newdata":
		table := spec.Arg("table", spec.Arg("ns", ""))
		if table == "" {
			return nil, fmt.Errorf("%s needs table=", spec.Kind)
		}
		// An equality-disseminated graph is about (Namespace, Key): it was
		// routed to that name's owner, so its read of Namespace is that
		// name's objects — the DHT's get, not an lscan (§3.3.3, Table 2).
		// Any other table, and an empty key, read the whole partition.
		key := ""
		if d.Mode == ufl.DissemEquality && table == d.Namespace {
			key = d.Key
		}
		return newScan(c, table, kind == "scan", spec.Arg("only", ""), key), nil

	case "select":
		pred, err := expr.Parse(spec.Arg("pred", "true"))
		if err != nil {
			return nil, err
		}
		return exec.NewSelect(pred), nil

	case "project":
		cols, err := parseProjectCols(spec.Arg("cols", ""))
		if err != nil {
			return nil, err
		}
		return exec.NewProject(cols...), nil

	case "join":
		left := splitList(spec.Arg("leftkey", spec.Arg("key", "")))
		right := splitList(spec.Arg("rightkey", spec.Arg("key", "")))
		if len(left) == 0 || len(right) == 0 || len(left) != len(right) {
			return nil, fmt.Errorf("Join needs matching leftkey= and rightkey=")
		}
		j := exec.NewSymmetricHashJoin(left, right)
		if out := spec.Arg("out", ""); out != "" {
			j.OutTable = out
		}
		if spec.Arg("prefix", "true") == "false" {
			j.PrefixCols = false
		}
		return j, nil

	case "groupby":
		keys := splitList(spec.Arg("keys", ""))
		aggs, err := ParseAggSpecs(spec.Arg("aggs", ""))
		if err != nil {
			return nil, err
		}
		gb := exec.NewGroupBy(keys, aggs)
		if out := spec.Arg("out", ""); out != "" {
			gb.OutTable = out
		}
		return gb, nil

	case "topk":
		k, err := strconv.Atoi(spec.Arg("k", "10"))
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("TopK needs positive k=")
		}
		col := spec.Arg("col", "")
		if col == "" {
			return nil, fmt.Errorf("TopK needs col=")
		}
		tk := exec.NewTopK(k, col)
		tk.Ascending = spec.Arg("asc", "") == "true"
		return tk, nil

	case "dupelim":
		return exec.NewDupElim(splitList(spec.Arg("cols", ""))...), nil

	case "limit":
		limN, err := strconv.Atoi(spec.Arg("n", ""))
		if err != nil || limN < 0 {
			return nil, fmt.Errorf("Limit needs n=")
		}
		return exec.NewLimit(limN), nil

	case "union":
		return exec.NewUnion(), nil

	case "tee":
		return exec.NewTee(), nil

	case "queue":
		rt := c.n.rt
		q := exec.NewQueue(func(fn func()) { rt.Schedule(0, fn) })
		if b := spec.Arg("batch", ""); b != "" {
			qn, err := strconv.Atoi(b)
			if err != nil {
				return nil, fmt.Errorf("Queue batch=: %w", err)
			}
			q.Batch = qn
		}
		return q, nil

	case "fetchmatches":
		ns := spec.Arg("ns", spec.Arg("table", ""))
		keyCols := splitList(spec.Arg("key", ""))
		if ns == "" || len(keyCols) == 0 {
			return nil, fmt.Errorf("FetchMatches needs ns= and key=")
		}
		fm := &fetchMatchesOp{c: c, ns: ns, keyCols: keyCols, outTable: "join", prefix: true}
		if out := spec.Arg("out", ""); out != "" {
			fm.outTable = out
		}
		if spec.Arg("prefix", "true") == "false" {
			fm.prefix = false
		}
		if spec.Arg("semijoin", "") == "true" {
			fm.semiJoin = true
		}
		return fm, nil

	case "hieragg":
		return c.newHierAgg(spec)

	case "bloombuild":
		return c.newBloomBuild(spec)

	case "bloomfilter":
		return c.newBloomFilter(spec)

	case "eddy":
		e := exec.NewEddy(c.n.rt.Rand())
		preds := spec.Arg("preds", "")
		if preds == "" {
			return nil, fmt.Errorf("Eddy needs preds='p1; p2; ...'")
		}
		for i, src := range strings.Split(preds, ";") {
			src = strings.TrimSpace(src)
			if src == "" {
				continue
			}
			p, err := expr.Parse(src)
			if err != nil {
				return nil, fmt.Errorf("Eddy module %d: %w", i, err)
			}
			e.AddModule(fmt.Sprintf("m%d", i), p)
		}
		return e, nil

	case "put":
		return c.buildPut(spec, false)

	case "send":
		return c.buildPut(spec, true)

	case "result":
		return &resultOp{c: c}, nil

	default:
		return nil, fmt.Errorf("unknown operator kind %q", spec.Kind)
	}
}

// buildPut constructs the rehash operator from its spec.
func (c *chain) buildPut(spec ufl.OpSpec, send bool) (exec.Op, error) {
	ns := spec.Arg("ns", "")
	keyCols := splitList(spec.Arg("key", ""))
	fixed := spec.Arg("fixedkey", "")
	if ns == "" || (len(keyCols) == 0 && fixed == "") {
		return nil, fmt.Errorf("%s needs ns= and key= (or fixedkey=)", spec.Kind)
	}
	return &putOp{c: c, ns: ns, keyCols: keyCols, fixedKey: fixed, send: send}, nil
}

// splitList parses "a, b, c" into trimmed fields; empty input gives nil.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseProjectCols parses "expr as name; expr as name" (or bare column
// names separated by commas).
func parseProjectCols(src string) ([]exec.ProjectCol, error) {
	src = strings.TrimSpace(src)
	if src == "" {
		return nil, fmt.Errorf("Project needs cols=")
	}
	var out []exec.ProjectCol
	sep := ";"
	if !strings.Contains(src, ";") {
		sep = ","
	}
	for _, part := range strings.Split(src, sep) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name := part
		exprSrc := part
		if i := strings.LastIndex(strings.ToLower(part), " as "); i >= 0 {
			exprSrc = strings.TrimSpace(part[:i])
			name = strings.TrimSpace(part[i+4:])
		}
		e, err := expr.Parse(exprSrc)
		if err != nil {
			return nil, fmt.Errorf("Project col %q: %w", part, err)
		}
		out = append(out, exec.ProjectCol{Name: name, E: e})
	}
	return out, nil
}

// ParseAggSpecs parses "count(*) as cnt; sum(bytes) as total" into
// aggregate specs. Exported for the SQL frontend.
func ParseAggSpecs(src string) ([]exec.AggSpec, error) {
	src = strings.TrimSpace(src)
	if src == "" {
		return nil, fmt.Errorf("aggregation needs aggs=")
	}
	var out []exec.AggSpec
	for _, part := range strings.Split(src, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		spec := part
		as := ""
		if i := strings.LastIndex(strings.ToLower(part), " as "); i >= 0 {
			spec = strings.TrimSpace(part[:i])
			as = strings.TrimSpace(part[i+4:])
		}
		open := strings.Index(spec, "(")
		if open < 0 || !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("bad aggregate %q: want fn(col) or fn(*)", part)
		}
		kind, ok := exec.ParseAggKind(strings.TrimSpace(spec[:open]))
		if !ok {
			return nil, fmt.Errorf("unknown aggregate %q", spec[:open])
		}
		col := strings.TrimSpace(spec[open+1 : len(spec)-1])
		if col == "*" {
			col = ""
		}
		out = append(out, exec.AggSpec{Kind: kind, Col: col, As: as})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("aggregation needs at least one aggregate")
	}
	return out, nil
}
