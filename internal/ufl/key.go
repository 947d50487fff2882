package ufl

import (
	"encoding/binary"
	"slices"
	"strings"

	"pier/internal/expr"
)

// Subtree keys: the identity under which the query processor shares an
// operator chain between queries (§3.3.2's multi-query optimization).
//
// Two queries may run one chain only when nothing that changes execution
// differs between their chains, so the identity is the chain's exact
// structure, written out, not a hash of it: a node's chain cache compares
// whole keys, and no graph a stranger sends (§4.1.2) can be built to
// collide with another tenant's chain. The key leaves out only what
// cannot change execution: operator ids, the order of Ops, and the
// operand order of a predicate's commutative And/Or and the direction of
// its comparisons (expr.AppendCanonical). Everything else enters verbatim
// — a query id embedded in a table or namespace name is part of what the
// chain reads, so two queries naming their own tables get two chains.
//
// A node keys a graph it plans from that plan (AppendSubtreeKey): each
// predicate is written from the expression Params parsed for the operator
// that runs it, and each edge's ends come from CheckEnds' id index, so a
// distinct graph's "pred" is parsed once per node and no map is built per
// key. Keyed from its text (SubtreeKey), a graph parses each "pred"
// itself. Both write the same bytes.

// Tags of the key's per-input records.
const (
	keyOp      = 'o' // an operator written here in full
	keyRef     = 'r' // an operator written earlier, by its visit number
	keyMissing = 'm' // an edge from an operator the graph never declared
)

// SubtreeKey returns the canonical bytes of the subtree rooted at op top:
// the graph's dissemination mode, namespace and key, then every op
// reachable from top through its inputs, numbered in first-visit order.
// Each op contributes its lowercased kind, its arguments sorted by name
// (a "pred" value in its canonical form, expr.AppendCanonical, or
// verbatim if it does not parse) and its input edges in declaration
// order, each with its slot and then its producer: written in full on its
// first visit, by its visit number after that. Every op is written once,
// so the key grows linearly with the graph, however many paths a diamond
// opens into top, and a cycle (which Check forbids) ends at a visit
// number. Strings are length-prefixed, so the bytes decode back to
// exactly one structure. Op ids must be unique (Check).
func (g *Opgraph) SubtreeKey(top string) string {
	return string(g.AppendSubtreeKey(make([]byte, 0, 256), top, nil, nil))
}

// AppendSubtreeKey appends top's SubtreeKey to b, written from the
// graph's Params and CheckEnds; nil for either is worked out here.
func (g *Opgraph) AppendSubtreeKey(b []byte, top string, ps []Params, ends [][2]int) []byte {
	k := newKeyer(g, ps, ends)
	return k.appendKey(b, slices.IndexFunc(g.Ops, func(op OpSpec) bool { return op.ID == top }))
}

// Signature returns a 64-bit FNV-1a fingerprint of the whole opgraph: the
// hash of the SubtreeKey of each op nothing consumes, in declaration
// order. No cache is keyed by it: it is a compact digest, and the
// benchmark's plan replay, its one caller, times it. queryID is unused,
// since keys rewrite no query id; the benchmark-only slice of ROADMAP
// direction 32 drops the parameter together with that caller.
func (g *Opgraph) Signature(queryID string) uint64 {
	k := newKeyer(g, nil, nil)
	consumed := make([]bool, len(g.Ops))
	for _, e := range k.ends {
		if e[0] >= 0 {
			consumed[e[0]] = true
		}
	}
	h := uint64(14695981039346656037)
	var b []byte
	for i := range g.Ops {
		if consumed[i] {
			continue
		}
		b = k.appendKey(b[:0], i)
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	return h
}

// keyer writes subtree keys of one graph. Its index is built once, so
// keying several tops (Signature) indexes the graph once. It keeps the
// graph's parts, not the graph, so keying does not move a caller's
// Opgraph to the heap.
type keyer struct {
	dissem Dissemination
	ops    []OpSpec
	ps     []Params
	edges  []Edge
	ends   [][2]int // CheckEnds
	// in holds the indexes of the edges into ops[i] at
	// in[start[i]:start[i+1]], in declaration order; visit holds, by
	// position, 0 for an op this key has not written yet and its visit
	// number plus one after; next counts visits.
	in, start, visit []int
	next             int
}

func newKeyer(g *Opgraph, ps []Params, ends [][2]int) keyer {
	if ends == nil {
		ends, _ = g.ends(nil)
	}
	n := len(g.Ops)
	ints := make([]int, 2*n+1+len(g.Edges))
	k := keyer{dissem: g.Dissem, ops: g.Ops, ps: ps, edges: g.Edges, ends: ends,
		start: ints[:n+1], visit: ints[n+1 : 2*n+1], in: ints[2*n+1:]}
	for _, e := range k.ends {
		if e[1] >= 0 {
			k.start[e[1]+1]++
		}
	}
	for i := 0; i < n; i++ {
		k.start[i+1] += k.start[i]
	}
	fill := k.visit // zero, and free until the first key
	for ei, e := range k.ends {
		if i := e[1]; i >= 0 {
			k.in[k.start[i]+fill[i]] = ei
			fill[i]++
		}
	}
	k.in = k.in[:k.start[n]]
	return k
}

// appendKey appends the subtree key of ops[top] to b.
func (k *keyer) appendKey(b []byte, top int) []byte {
	clear(k.visit)
	k.next = 0
	b = appendKeyString(b, k.dissem.Mode)
	b = appendKeyString(b, k.dissem.Namespace)
	b = appendKeyString(b, k.dissem.Key)
	return k.appendOp(b, top)
}

// appendOp appends the record of ops[i], or of an undeclared op at -1.
func (k *keyer) appendOp(b []byte, i int) []byte {
	if i < 0 {
		return append(b, keyMissing)
	}
	if v := k.visit[i]; v != 0 {
		return binary.AppendUvarint(append(b, keyRef), uint64(v-1))
	}
	k.next++
	k.visit[i] = k.next
	op := &k.ops[i]
	b = appendKeyString(append(b, keyOp), strings.ToLower(op.Kind))
	var scratch [8]string
	names := scratch[:0]
	for name := range op.Args {
		names = append(names, name)
	}
	slices.Sort(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = k.appendArg(appendKeyString(b, name), i, name, op.Args[name])
	}
	in := k.in[k.start[i]:k.start[i+1]]
	b = binary.AppendUvarint(b, uint64(len(in)))
	for _, ei := range in {
		b = k.appendOp(binary.AppendVarint(b, int64(k.edges[ei].Slot)), k.ends[ei][0])
	}
	return b
}

// appendArg appends an argument value of ops[i] as a key holds it. A
// predicate is in its canonical form, so human-authored operand orderings
// ("a>1 AND b<2" vs "b<2 AND a>1", "x<5" vs "5>x") key alike and attach to
// one shared chain: written from the expression Params parsed, when the
// key has them (a non-empty pred is a Select's, Check's table says), else
// from a parse of its own. An unparsable predicate and every other
// argument are written verbatim.
func (k *keyer) appendArg(b []byte, i int, name, val string) []byte {
	if name != "pred" {
		return appendKeyString(b, val)
	} else if k.ps == nil || val == "" {
		return appendKeyString(b, expr.CanonicalString(val))
	}
	start := len(b)
	b = expr.AppendCanonical(b, k.ps[i].Args.(*SelectArgs).Pred)
	var n [binary.MaxVarintLen64]byte
	return slices.Insert(b, start, n[:binary.PutUvarint(n[:], uint64(len(b)-start))]...)
}

func appendKeyString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
