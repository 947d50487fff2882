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
// its comparisons (expr.Canonical). Everything else enters verbatim —
// a query id embedded in a table or namespace name is part of what the
// chain reads, so two queries naming their own tables get two chains.

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
// (a "pred" value in its canonical form, expr.CanonicalString) and its
// input edges in declaration order, each with its slot and then its
// producer: written in full on its first visit, by its visit number after
// that. Every op is written once, so the key grows linearly with the
// graph, however many paths a diamond opens into top, and a cycle (which
// Check forbids) ends at a visit number. Strings are length-prefixed, so
// the bytes decode back to exactly one structure. Op ids must be unique
// (Check).
func (g *Opgraph) SubtreeKey(top string) string {
	k := newKeyer(g)
	return string(k.appendKey(make([]byte, 0, 256), top))
}

// Signature returns a 64-bit FNV-1a fingerprint of the whole opgraph: the
// hash of the SubtreeKey of each op nothing consumes, in declaration
// order. No cache is keyed by it: it is a compact digest, and the
// benchmark's plan replay, its one caller, times it. queryID is unused,
// since keys rewrite no query id; the benchmark-only slice of ROADMAP
// direction 32 drops the parameter together with that caller.
func (g *Opgraph) Signature(queryID string) uint64 {
	consumed := make(map[string]bool, len(g.Ops))
	for _, e := range g.Edges {
		consumed[e.From] = true
	}
	k := newKeyer(g)
	h := uint64(14695981039346656037)
	var b []byte
	for _, op := range g.Ops {
		if consumed[op.ID] {
			continue
		}
		b = k.appendKey(b[:0], op.ID)
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
	at     map[string]int // op id → position in ops
	// in holds the edges into ops[i] at in[start[i]:start[i+1]], in
	// declaration order.
	in    []Edge
	start []int
	// visit holds, by position, 0 for an op this key has not written yet
	// and its visit number plus one after; next counts visits.
	visit []int
	next  int
}

func newKeyer(g *Opgraph) keyer {
	n := len(g.Ops)
	ints := make([]int, 2*n+1)
	k := keyer{dissem: g.Dissem, ops: g.Ops, at: make(map[string]int, n), start: ints[:n+1], visit: ints[n+1:]}
	for i := range g.Ops {
		k.at[g.Ops[i].ID] = i
	}
	for _, e := range g.Edges {
		if i, ok := k.at[e.To]; ok {
			k.start[i+1]++
		}
	}
	for i := 0; i < n; i++ {
		k.start[i+1] += k.start[i]
	}
	k.in = make([]Edge, k.start[n])
	fill := k.visit // zero, and free until the first key
	for _, e := range g.Edges {
		if i, ok := k.at[e.To]; ok {
			k.in[k.start[i]+fill[i]] = e
			fill[i]++
		}
	}
	return k
}

// appendKey appends top's subtree key to b.
func (k *keyer) appendKey(b []byte, top string) []byte {
	clear(k.visit)
	k.next = 0
	b = appendKeyString(b, k.dissem.Mode)
	b = appendKeyString(b, k.dissem.Namespace)
	b = appendKeyString(b, k.dissem.Key)
	return k.appendOp(b, top)
}

func (k *keyer) appendOp(b []byte, id string) []byte {
	i, ok := k.at[id]
	if !ok {
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
		b = appendKeyString(b, name)
		b = appendKeyString(b, canonArg(name, op.Args[name]))
	}
	in := k.in[k.start[i]:k.start[i+1]]
	b = binary.AppendUvarint(b, uint64(len(in)))
	for _, e := range in {
		b = binary.AppendVarint(b, int64(e.Slot))
		b = k.appendOp(b, e.From)
	}
	return b
}

// canonArg is an op-argument value as a key holds it. A predicate passes
// through expr's structural canonicalization, so human-authored operand
// orderings ("a>1 AND b<2" vs "b<2 AND a>1", "x<5" vs "5>x") key alike
// and attach to one shared chain; an unparseable predicate and every
// other argument are written verbatim.
func canonArg(name, val string) string {
	if name != "pred" {
		return val
	}
	return expr.CanonicalString(val)
}

func appendKeyString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
