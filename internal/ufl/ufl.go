// Package ufl defines UFL, PIER's native algebraic ("box and arrow")
// dataflow language (paper §3.3.2). UFL queries are direct specifications
// of physical execution plans: a query is a set of operator graphs
// (opgraphs), each a connected set of dataflow operators. Separate
// opgraphs are formed wherever the query redistributes data around the
// network; producer and consumer opgraphs rendezvous through a DHT
// namespace rather than a local dataflow edge (the distributed Exchange
// pattern, §3.3.6). Opgraphs are also the unit of dissemination: each
// opgraph names the strategy that selects the nodes that must run it
// (§3.3.3).
//
// The package provides the plan intermediate representation, a compact
// wire codec (plans travel in dissemination messages), subtree keys (the
// exact canonical bytes of an operator and everything feeding it, under
// which the query processor shares one chain between queries), and a
// parser for the textual syntax:
//
//	query top10 timeout 30s
//
//	opgraph g1 disseminate broadcast {
//	    scan = Scan(table='fwlogs')
//	    agg  = GroupBy(keys='src', aggs='count(*) as cnt')
//	    put  = Put(ns='top10.partial', key='src')
//	    agg <- scan
//	    put <- agg
//	}
//
//	opgraph g2 disseminate local {
//	    recv = Scan(table='top10.partial')
//	    ...
//	    join.right <- recv        # named or numbered input slots
//	}
//
// Every op's kind, input slots, fan-out and argument names are checked
// against the operator table (ops.go) wherever a graph enters, and its
// argument values are parsed once, by the same table, before the query
// processor (package qp) builds anything. Columns are not checked: there
// is no catalog to check their names or types against (§3.3.1).
package ufl

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"pier/internal/wire"
)

// Dissemination modes.
const (
	// DissemBroadcast sends the opgraph to every node via the
	// distribution tree (the true-predicate index, §3.3.3).
	DissemBroadcast = "broadcast"
	// DissemLocal runs the opgraph only on the proxy node.
	DissemLocal = "local"
	// DissemEquality routes the opgraph to the node(s) owning a DHT name
	// — the equality-predicate index (§3.3.3). The graph is about
	// (Namespace, Key): it runs at that name's owner, and there its
	// Scan/NewData of Namespace reads that name — the objects stored
	// under Key, not the node's whole partition of the table. A scan of
	// any other table, and every scan when Key is empty, reads the whole
	// partition, as under the other two modes.
	DissemEquality = "equality"
)

// Dissemination selects which nodes must execute an opgraph.
type Dissemination struct {
	Mode string
	// Namespace and Key target DissemEquality at the owner of
	// (Namespace, Key).
	Namespace string
	Key       string
}

// OpSpec declares one operator instance: an id unique within the opgraph,
// an operator kind, and the arguments its kind reads (ops.go). Arguments
// travel as strings; Params parses them.
type OpSpec struct {
	ID   string
	Kind string
	Args map[string]string
}

// Edge is a local dataflow edge: tuples flow From → To, entering To at
// the given input slot (joins distinguish left=0 and right=1).
type Edge struct {
	From string
	To   string
	Slot int
}

// Opgraph is one connected operator graph.
type Opgraph struct {
	ID     string
	Dissem Dissemination
	Ops    []OpSpec
	Edges  []Edge
}

// Op returns the spec with the given id, or nil.
func (g *Opgraph) Op(id string) *OpSpec {
	for i := range g.Ops {
		if g.Ops[i].ID == id {
			return &g.Ops[i]
		}
	}
	return nil
}

// Query is a complete UFL query plan.
type Query struct {
	ID      string
	Timeout time.Duration
	Graphs  []Opgraph
}

// Validate checks a query id, unique graph ids and every graph's Check.
// It parses no argument value (Params), so a proxy's submit path stays
// free of the parses its executors run once per distinct graph.
func (q *Query) Validate() error {
	if q.ID == "" || len(q.Graphs) == 0 {
		return fmt.Errorf("ufl: query %q has no id or no opgraphs", q.ID)
	}
	graphIDs := make(map[string]bool, len(q.Graphs))
	for gi := range q.Graphs {
		if err := q.Graphs[gi].Check(); err != nil {
			return err
		}
		id := q.Graphs[gi].ID
		if graphIDs[id] {
			return fmt.Errorf("ufl: duplicate opgraph id %q", id)
		}
		graphIDs[id] = true
	}
	return nil
}

// Check verifies one opgraph's structure, whether a proxy's own plan or
// a stranger's frame (§4.1.2), against the operator table (ops.go): an
// id, a known dissemination mode, some ops, unique op ids, known kinds
// reading only their own arguments, edges between declared ops on slots
// their consumer has, one edge per slot (an operator adopts one child per
// slot, so a second would be dropped unread), none out of a sink, fan-out
// only from a Tee, no cycle (an executor would recurse around it forever)
// and every op on a path to a sink. It checks argument names, not values
// (Params).
func (g *Opgraph) Check() error {
	var buf [16][2]int // a small graph's edge ends stay on the stack
	_, err := g.check(buf[:0])
	return err
}

// CheckEnds is Check, returning for a graph it accepts the positions in
// Ops of each edge's producer and consumer.
func (g *Opgraph) CheckEnds() ([][2]int, error) { return g.check(nil) }

// check is Check, appending the edges' ends to dst.
func (g *Opgraph) check(dst [][2]int) ([][2]int, error) {
	switch m := g.Dissem.Mode; {
	case g.ID == "":
		return nil, fmt.Errorf("ufl: opgraph has no id")
	case m != DissemBroadcast && m != DissemLocal && m != DissemEquality:
		return nil, fmt.Errorf("ufl: opgraph %q: unknown dissemination mode %q", g.ID, m)
	case m == DissemEquality && g.Dissem.Namespace == "":
		return nil, fmt.Errorf("ufl: opgraph %q: equality dissemination needs a namespace", g.ID)
	case len(g.Ops) == 0:
		return nil, fmt.Errorf("ufl: opgraph %q has no operators", g.ID)
	}
	// Kahn's algorithm, O(ops + edges): take ops no untaken op feeds until
	// none is left; an op never taken sits on a cycle. An op's outgoing
	// edges are a list threaded through next by edge index.
	n := len(g.Ops)
	ends, dup := g.ends(dst)
	buf := make([]int, 5*n+len(g.Edges))
	indeg, head, ready, kind, slots, next := buf[:n], buf[n:2*n], buf[2*n:2*n:3*n], buf[3*n:4*n], buf[4*n:5*n], buf[5*n:]
	for i, op := range g.Ops {
		if op.ID == "" || i == dup {
			return nil, fmt.Errorf("ufl: opgraph %q: operator %q has no id or a duplicate id", g.ID, op.ID)
		}
		if kind[i] = kindOf(op.Kind); kind[i] < 0 {
			return nil, fmt.Errorf("ufl: opgraph %q: operator %q has unknown kind %q", g.ID, op.ID, op.Kind)
		}
		if name := opKinds[kind[i]].unknownArg(op.Args); name != "" {
			return nil, fmt.Errorf("ufl: opgraph %q: %s %q takes no argument %q", g.ID, opKinds[kind[i]].name, op.ID, name)
		}
		head[i] = -1
	}
	for ei, e := range g.Edges {
		from, to := ends[ei][0], ends[ei][1]
		if from < 0 || to < 0 {
			return nil, fmt.Errorf("ufl: opgraph %q: edge %s->%s names an unknown op", g.ID, e.From, e.To)
		}
		src, dst := &opKinds[kind[from]], &opKinds[kind[to]]
		switch {
		case e.Slot < 0 || e.Slot >= dst.inputs:
			return nil, fmt.Errorf("ufl: opgraph %q: edge %s->%s: %s has %d input slots, not slot %d", g.ID, e.From, e.To, dst.name, dst.inputs, e.Slot)
		case slots[to]&(1<<e.Slot) != 0:
			return nil, fmt.Errorf("ufl: opgraph %q: edge %s->%s: slot %d of %s already has an input", g.ID, e.From, e.To, e.Slot, dst.name)
		case src.sink:
			return nil, fmt.Errorf("ufl: opgraph %q: edge %s->%s leaves %s, which emits nothing", g.ID, e.From, e.To, src.name)
		case head[from] >= 0 && !src.fanOut:
			return nil, fmt.Errorf("ufl: opgraph %q: %s %q feeds more than one consumer; insert a Tee", g.ID, src.name, e.From)
		}
		indeg[to]++
		slots[to] |= 1 << e.Slot
		next[ei], head[from] = head[from], ei
	}
	for i := range indeg {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for k := 0; k < len(ready); k++ {
		for ei := head[ready[k]]; ei >= 0; ei = next[ei] {
			to := ends[ei][1]
			if indeg[to]--; indeg[to] == 0 {
				ready = append(ready, to)
			}
		}
	}
	if len(ready) != n {
		return nil, fmt.Errorf("ufl: opgraph %q has a cycle", g.ID)
	}
	// Acyclic, every path from an op ends at an op that feeds nothing, so
	// every op reaches a sink exactly when each op that feeds nothing is one.
	for i := range g.Ops {
		if head[i] < 0 && !opKinds[kind[i]].sink {
			return nil, fmt.Errorf("ufl: opgraph %q: operator %q reaches no sink", g.ID, g.Ops[i].ID)
		}
	}
	return ends, nil
}

// ends appends to dst the positions in Ops of each edge's producer and
// consumer (-1 for an op the graph does not declare; a repeated id names
// its first op), and returns the position of the first op whose id an
// earlier op has, or -1.
func (g *Opgraph) ends(dst [][2]int) (ends [][2]int, dup int) {
	at, dup := make(map[string]int, len(g.Ops)), -1
	for i, op := range g.Ops {
		if _, seen := at[op.ID]; !seen {
			at[op.ID] = i
		} else if dup < 0 {
			dup = i
		}
	}
	pos := func(id string) int {
		if i, ok := at[id]; ok {
			return i
		}
		return -1
	}
	ends = slices.Grow(dst, len(g.Edges))
	for _, e := range g.Edges {
		ends = append(ends, [2]int{pos(e.From), pos(e.To)})
	}
	return ends, dup
}

// Encode serializes the query for dissemination.
func (q *Query) Encode() []byte {
	w := wire.NewWriter(256)
	w.String(q.ID)
	w.Duration(q.Timeout)
	w.U16(uint16(len(q.Graphs)))
	for _, g := range q.Graphs {
		encodeGraph(w, g)
	}
	return w.Bytes()
}

func encodeGraph(w *wire.Writer, g Opgraph) {
	w.String(g.ID)
	w.String(g.Dissem.Mode)
	w.String(g.Dissem.Namespace)
	w.String(g.Dissem.Key)
	w.U16(uint16(len(g.Ops)))
	for _, op := range g.Ops {
		w.String(op.ID)
		w.String(op.Kind)
		// Deterministic argument order keeps encodings canonical.
		keys := make([]string, 0, len(op.Args))
		for k := range op.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.U16(uint16(len(keys)))
		for _, k := range keys {
			w.String(k)
			w.String(op.Args[k])
		}
	}
	w.U16(uint16(len(g.Edges)))
	for _, e := range g.Edges {
		w.String(e.From)
		w.String(e.To)
		w.U16(uint16(e.Slot))
	}
}

// Decode parses an encoded query.
func Decode(b []byte) (*Query, error) {
	r := wire.NewReader(b)
	q := &Query{ID: r.String(), Timeout: r.Duration()}
	ng := int(r.U16())
	for i := 0; i < ng && r.Err() == nil; i++ {
		q.Graphs = append(q.Graphs, decodeGraph(r))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return q, nil
}

// DecodeGraph parses a single encoded opgraph (the unit that actually
// travels during dissemination).
func DecodeGraph(b []byte) (*Opgraph, error) {
	r := wire.NewReader(b)
	g := decodeGraph(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &g, nil
}

// EncodeGraph serializes one opgraph.
func EncodeGraph(g Opgraph) []byte {
	w := wire.NewWriter(256)
	encodeGraph(w, g)
	return w.Bytes()
}

// skipGraph consumes one encoded opgraph from r without decoding it: it
// reads exactly the fields decodeGraph reads, in the same order and under
// the same loop guards, so it stops and fails where decodeGraph would, and
// until it fails it allocates nothing.
func skipGraph(r *wire.Reader) {
	for i := 0; i < 4; i++ { // id, dissemination mode, namespace, key
		r.Bytes32()
	}
	nOps := int(r.U16())
	for i := 0; i < nOps && r.Err() == nil; i++ {
		r.Bytes32()
		r.Bytes32()
		nArgs := int(r.U16())
		for j := 0; j < nArgs && r.Err() == nil; j++ {
			r.Bytes32()
			r.Bytes32()
		}
	}
	nEdges := int(r.U16())
	for i := 0; i < nEdges && r.Err() == nil; i++ {
		r.Bytes32()
		r.Bytes32()
		r.U16()
	}
}

func decodeGraph(r *wire.Reader) Opgraph {
	g := Opgraph{ID: r.String()}
	g.Dissem.Mode = r.String()
	g.Dissem.Namespace = r.String()
	g.Dissem.Key = r.String()
	nOps := int(r.U16())
	g.Ops = reserve(g.Ops, nOps, r)
	for i := 0; i < nOps && r.Err() == nil; i++ {
		op := OpSpec{ID: r.String(), Kind: r.String(), Args: map[string]string{}}
		nArgs := int(r.U16())
		for j := 0; j < nArgs && r.Err() == nil; j++ {
			k := r.String()
			op.Args[k] = r.String()
		}
		g.Ops = append(g.Ops, op)
	}
	nEdges := int(r.U16())
	g.Edges = reserve(g.Edges, nEdges, r)
	for i := 0; i < nEdges && r.Err() == nil; i++ {
		g.Edges = append(g.Edges, Edge{From: r.String(), To: r.String(), Slot: int(r.U16())})
	}
	return g
}

// reserve makes room for n ops or edges, at most one per ten bytes left.
func reserve[T any](s []T, n int, r *wire.Reader) []T {
	if n == 0 {
		return s
	}
	return make([]T, 0, min(n, r.Remaining()/10))
}
