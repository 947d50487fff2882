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
// Operator kinds and their arguments are interpreted by the query
// processor at instantiation time (package qp); UFL itself only checks
// structural validity — there is no catalog to check names or types
// against (§3.3.2).
package ufl

import (
	"fmt"
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
// an operator kind, and kind-specific arguments. Arguments are strings;
// expressions are parsed at instantiation, consistent with PIER's
// deferral of type checking (§3.3.1).
type OpSpec struct {
	ID   string
	Kind string
	Args map[string]string
}

// Arg returns the named argument or def if absent.
func (o OpSpec) Arg(name, def string) string {
	if v, ok := o.Args[name]; ok {
		return v
	}
	return def
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

// Validate checks structural integrity: unique ids, edges referencing
// declared ops, and at least one operator per opgraph. It deliberately
// does not check operator kinds or column names — there is no catalog.
func (q *Query) Validate() error {
	if q.ID == "" {
		return fmt.Errorf("ufl: query has no id")
	}
	if len(q.Graphs) == 0 {
		return fmt.Errorf("ufl: query %q has no opgraphs", q.ID)
	}
	graphIDs := make(map[string]bool)
	for gi := range q.Graphs {
		g := &q.Graphs[gi]
		if g.ID == "" {
			return fmt.Errorf("ufl: query %q: opgraph %d has no id", q.ID, gi)
		}
		if graphIDs[g.ID] {
			return fmt.Errorf("ufl: duplicate opgraph id %q", g.ID)
		}
		graphIDs[g.ID] = true
		switch g.Dissem.Mode {
		case DissemBroadcast, DissemLocal:
		case DissemEquality:
			if g.Dissem.Namespace == "" {
				return fmt.Errorf("ufl: opgraph %q: equality dissemination needs a namespace", g.ID)
			}
		default:
			return fmt.Errorf("ufl: opgraph %q: unknown dissemination mode %q", g.ID, g.Dissem.Mode)
		}
		if len(g.Ops) == 0 {
			return fmt.Errorf("ufl: opgraph %q has no operators", g.ID)
		}
		ids := make(map[string]bool)
		for _, op := range g.Ops {
			if op.ID == "" || op.Kind == "" {
				return fmt.Errorf("ufl: opgraph %q: operator with empty id or kind", g.ID)
			}
			if ids[op.ID] {
				return fmt.Errorf("ufl: opgraph %q: duplicate operator id %q", g.ID, op.ID)
			}
			ids[op.ID] = true
		}
		for _, e := range g.Edges {
			if !ids[e.From] {
				return fmt.Errorf("ufl: opgraph %q: edge from unknown op %q", g.ID, e.From)
			}
			if !ids[e.To] {
				return fmt.Errorf("ufl: opgraph %q: edge to unknown op %q", g.ID, e.To)
			}
			if e.Slot < 0 {
				return fmt.Errorf("ufl: opgraph %q: negative input slot", g.ID)
			}
		}
	}
	return nil
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
	for i := 0; i < nEdges && r.Err() == nil; i++ {
		g.Edges = append(g.Edges, Edge{From: r.String(), To: r.String(), Slot: int(r.U16())})
	}
	return g
}
