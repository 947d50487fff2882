package ufl

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pier/internal/expr"
	"pier/internal/wire"
)

// Multi-opgraph dissemination batching and structural signatures — the
// UFL half of the multi-tenant query runtime.
//
// PIER assumes hundreds of continuous queries coexist (§3.3.2); paying a
// full distribution-tree broadcast per opgraph makes query *arrival* cost
// O(queries × nodes) in messages. A batch frame amortizes it: every
// opgraph disseminated by one proxy within a small window rides a single
// tree broadcast. The frame is versioned — the original single-graph
// dissemination payload is retroactively codec version 1 (it carries no
// version byte and still travels for equality dissemination); the batch
// frame is version 2 and leads with its version so future layout changes
// fail loudly instead of misparsing.

// BatchCodecVersion is the wire version of the multi-opgraph batch frame.
// Bump on any layout change; DecodeBatch rejects unknown versions.
// Version 3 added the submitting client id to every entry (per-client
// admission quotas need it on the executor side).
const BatchCodecVersion = 3

// MaxBatchEntries is the most entries one batch frame can carry (the
// header's u16 entry count). Senders must split larger batches;
// EncodeBatch panics rather than silently wrapping the count.
const MaxBatchEntries = 65535

// BatchEntry is one opgraph's dissemination record inside a batch frame:
// everything an executor needs to accept the graph (the fields of the
// v1 single-graph frame).
type BatchEntry struct {
	// QueryID names the query the graph belongs to.
	QueryID string
	// Deadline is the query's absolute execution deadline, shared by all
	// executors (§3.3.4: nodes are only loosely synchronized).
	Deadline time.Time
	// Proxy is the address of the node results flow back to.
	Proxy string
	// Client identifies the submitting client, so executors can enforce
	// per-client admission quotas without a round trip to the proxy.
	Client string
	// Graph is the opgraph to instantiate.
	Graph Opgraph
}

// EncodeBatch serializes a batch of dissemination entries into one
// version-2 frame. Batches over MaxBatchEntries must be split by the
// caller; a wrapped u16 count would silently drop graphs, so this
// panics instead.
func EncodeBatch(entries []BatchEntry) []byte {
	if len(entries) > MaxBatchEntries {
		panic(fmt.Sprintf("ufl: batch of %d entries exceeds MaxBatchEntries (%d); split it", len(entries), MaxBatchEntries))
	}
	w := wire.NewWriter(64 + 256*len(entries))
	w.U8(BatchCodecVersion)
	w.U16(uint16(len(entries)))
	for _, e := range entries {
		w.String(e.QueryID)
		w.Time(e.Deadline)
		w.String(e.Proxy)
		w.String(e.Client)
		encodeGraph(w, e.Graph)
	}
	return w.Bytes()
}

// DecodeBatch parses a batch frame, rejecting frames of any other codec
// version.
func DecodeBatch(b []byte) ([]BatchEntry, error) {
	r := wire.NewReader(b)
	if v := r.U8(); v != BatchCodecVersion {
		return nil, fmt.Errorf("ufl: batch frame version %d, want %d", v, BatchCodecVersion)
	}
	n := int(r.U16())
	if n > r.Remaining() {
		return nil, fmt.Errorf("ufl: batch frame claims %d entries in %d bytes", n, r.Remaining())
	}
	entries := make([]BatchEntry, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		e := BatchEntry{QueryID: r.String(), Deadline: r.Time(), Proxy: r.String(), Client: r.String()}
		e.Graph = decodeGraph(r)
		entries = append(entries, e)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(entries) != n {
		return nil, fmt.Errorf("ufl: batch frame truncated: %d of %d entries", len(entries), n)
	}
	return entries, nil
}

// EncodeAdmitsTo appends an admission-ack list — the query ids one
// executor node admitted out of a dissemination frame — to w. It is the
// batch frame's return path: where EncodeBatch amortizes Q queries'
// dissemination into one broadcast, this amortizes their admission acks
// into one frame per (executor, proxy) pair. The list shares the batch
// codec's version and u16-count limits; oversized lists panic like
// EncodeBatch does, since a wrapped count would silently skew every
// completeness denominator at the proxy.
func EncodeAdmitsTo(w *wire.Writer, queryIDs []string) {
	if len(queryIDs) > MaxBatchEntries {
		panic(fmt.Sprintf("ufl: admit list of %d entries exceeds MaxBatchEntries (%d); split it", len(queryIDs), MaxBatchEntries))
	}
	w.U8(BatchCodecVersion)
	w.U16(uint16(len(queryIDs)))
	for _, id := range queryIDs {
		w.String(id)
	}
}

// DecodeAdmitsFrom parses an admission-ack list from r, rejecting other
// codec versions.
func DecodeAdmitsFrom(r *wire.Reader) ([]string, error) {
	if v := r.U8(); v != BatchCodecVersion {
		return nil, fmt.Errorf("ufl: admit frame version %d, want %d", v, BatchCodecVersion)
	}
	n := int(r.U16())
	if n > r.Remaining() {
		return nil, fmt.Errorf("ufl: admit frame claims %d entries in %d bytes", n, r.Remaining())
	}
	ids := make([]string, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		ids = append(ids, r.String())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(ids) != n {
		return nil, fmt.Errorf("ufl: admit frame truncated: %d of %d entries", len(ids), n)
	}
	return ids, nil
}

// Signature returns a structural fingerprint of the opgraph: an FNV-1a
// hash over its shape with instance-specific identifiers normalized away.
// Two opgraphs from different queries that run the same dataflow — same
// operator kinds, arguments, and wiring — share a signature even when
// their operator ids differ or their argument values embed the query id
// (the SQL frontend names rendezvous namespaces "<queryID>.partial").
//
// queryID is the id of the query the graph belongs to; occurrences of it
// inside dissemination targets and argument values are replaced by a
// placeholder before hashing. Pass "" when the graph is standalone.
//
// The query processor keys multi-query work sharing on structural
// identity: opgraphs with identical Scan/NewData access methods share one
// newData subscription (the sharing PIER names as future work, in its
// minimal viable form), and signatures let harnesses and the batch
// dissemination path report how much structural duplication a workload
// carries.
func (g *Opgraph) Signature(queryID string) uint64 {
	h := uint64(14695981039346656037)
	// Normalization is token-anchored, not a blind substring replace: a
	// short query id ("fw") must not mangle unrelated text ("fwlogs").
	// The id is replaced only when a value IS the id or starts with it
	// followed by a separator (the "<id>.partial" / "<id>!op" rendezvous
	// patterns the frontends generate).
	norm := normalizer(queryID)
	// Operator ids are normalized to their declaration index.
	opIndex := make(map[string]string, len(g.Ops))
	for i, op := range g.Ops {
		opIndex[op.ID] = fmt.Sprintf("#%d", i)
	}
	h = sigStr(h, g.Dissem.Mode)
	h = sigStr(h, norm(g.Dissem.Namespace))
	h = sigStr(h, norm(g.Dissem.Key))
	for _, op := range g.Ops {
		h = sigStr(h, strings.ToLower(op.Kind))
		keys := make([]string, 0, len(op.Args))
		for k := range op.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h = sigStr(h, k)
			h = sigStr(h, norm(canonArg(k, op.Args[k])))
		}
		h = sigStr(h, "|")
	}
	for _, e := range g.Edges {
		h = sigStr(h, opIndex[e.From])
		h = sigStr(h, opIndex[e.To])
		h = sigStr(h, fmt.Sprintf("%d", e.Slot))
	}
	return h
}

// SubtreeSignatures extends Signature from whole-graph to per-operator
// granularity: for every op it returns a structural fingerprint of the
// subtree rooted at that op's inputs — the op's normalized kind and
// arguments folded together with the signatures of everything feeding it,
// recursively, plus the graph's dissemination context. Two ops in
// different queries whose entire upstream chains are structurally
// identical (same kinds, same normalized args, same wiring) get the same
// subtree signature even when op ids differ or argument values embed the
// query id.
//
// The query processor keys operator-level work sharing on these: a
// NewData→Select→GroupBy chain appearing in 1000 queries hashes to one
// subtree signature, so all 1000 resolve to one shared refcounted
// instance (§3.3.2's multi-query optimization beyond shared access
// methods).
//
// Normalization rules match Signature exactly — token-anchored query-id
// replacement, lowercased kinds, sorted args — so a signature is stable
// across op renames and query-id-embedding argument values. Input edges
// fold in declaration order with their slots, so slot wiring and (for
// order-sensitive ops like Union) child order are part of the identity.
// Cycles (which Validate does not forbid) fold a fixed marker instead of
// recursing forever.
func (g *Opgraph) SubtreeSignatures(queryID string) map[string]uint64 {
	norm := normalizer(queryID)
	// ctx folds the graph-level dissemination context into every subtree:
	// chains running under different dissemination modes or rendezvous
	// keys must not unify even when their op structure matches.
	ctx := uint64(14695981039346656037)
	ctx = sigStr(ctx, g.Dissem.Mode)
	ctx = sigStr(ctx, norm(g.Dissem.Namespace))
	ctx = sigStr(ctx, norm(g.Dissem.Key))

	specs := make(map[string]*OpSpec, len(g.Ops))
	for i := range g.Ops {
		specs[g.Ops[i].ID] = &g.Ops[i]
	}
	// inputs[id] lists the edges feeding op id, in declaration order.
	inputs := make(map[string][]Edge, len(g.Ops))
	for _, e := range g.Edges {
		inputs[e.To] = append(inputs[e.To], e)
	}

	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int, len(g.Ops))
	sigs := make(map[string]uint64, len(g.Ops))
	var visit func(id string) uint64
	visit = func(id string) uint64 {
		switch state[id] {
		case done:
			return sigs[id]
		case visiting:
			// A cycle: fold a marker rather than recursing. The graph is
			// malformed, but the signature must still terminate.
			return sigStr(ctx, "\x00cycle\x00")
		}
		state[id] = visiting
		h := ctx
		spec, ok := specs[id]
		if !ok {
			// Edge referencing an undeclared op (Validate rejects these,
			// but signatures must not panic on malformed graphs).
			h = sigStr(h, "\x00missing\x00")
		} else {
			h = sigStr(h, strings.ToLower(spec.Kind))
			keys := make([]string, 0, len(spec.Args))
			for k := range spec.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				h = sigStr(h, k)
				h = sigStr(h, norm(canonArg(k, spec.Args[k])))
			}
		}
		h = sigStr(h, "|")
		for _, e := range inputs[id] {
			h = sigStr(h, fmt.Sprintf("%d", e.Slot))
			child := visit(e.From)
			for i := 0; i < 8; i++ {
				h ^= (child >> (8 * i)) & 0xff
				h *= 1099511628211
			}
		}
		state[id] = done
		sigs[id] = h
		return h
	}
	for _, op := range g.Ops {
		visit(op.ID)
	}
	return sigs
}

// normalizer returns the token-anchored query-id normalization Signature
// documents: the id is replaced only when a value IS the id or starts
// with it followed by a non-alphanumeric separator, so a short id ("fw")
// cannot mangle unrelated text ("fwlogs").
func normalizer(queryID string) func(string) string {
	return func(s string) string {
		if queryID == "" || s == "" {
			return s
		}
		if s == queryID {
			return "\x00q\x00"
		}
		if strings.HasPrefix(s, queryID) && len(s) > len(queryID) {
			if c := s[len(queryID)]; !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
				return "\x00q\x00" + s[len(queryID):]
			}
		}
		return s
	}
}

// sigStr folds one string (plus a terminator, so "ab"+"c" differs from
// "a"+"bc") into an FNV-1a accumulator.
// canonArg normalizes one op-argument value before hashing. Predicate
// arguments pass through expr's structural canonicalization, so
// human-authored operand orderings ("a>1 AND b<2" vs "b<2 AND a>1",
// "x<5" vs "5>x") hash to one signature and hit the shared-subtree
// cache; unparseable predicates and every other argument hash verbatim.
func canonArg(key, val string) string {
	if key != "pred" {
		return val
	}
	return expr.CanonicalString(val)
}

func sigStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= 0xff
	h *= 1099511628211
	return h
}
