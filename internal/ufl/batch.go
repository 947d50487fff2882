package ufl

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"time"

	"pier/internal/wire"
)

// Multi-opgraph dissemination batching — with subtree keys (key.go), the
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
//
// Entries whose graph bytes are identical share one decode: the first
// occurrence is decoded, and every later entry with the same bytes gets
// the same Opgraph (its Ops and Edges slices and Args maps are the first
// entry's). A frame of Q same-shape queries thus decodes one graph, not
// Q. The shared graph is read-only: a caller must copy before it writes
// any part of it. Each entry's graph is first walked without allocating
// (skipGraph) to find where it ends, so a truncated or oversized frame is
// refused with the error a plain decode reports. Repeats are found by a
// hash of the graph's bytes and confirmed by comparing them, so equal
// bytes share and unequal bytes never do, and a frame of distinct graphs
// pays, per graph beyond its decode, one walk and one hash.
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
	// first maps the hash of a graph's bytes to the first entry carrying
	// such bytes and where they lie; a lone entry has no repeat to find.
	type seen struct{ entry, start, end int }
	var first map[uint64]seen
	if n > 1 {
		first = make(map[uint64]seen)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		e := BatchEntry{QueryID: r.String(), Deadline: r.Time(), Proxy: r.String(), Client: r.String()}
		start := len(b) - r.Remaining()
		skipGraph(r)
		if r.Err() != nil {
			break
		}
		span := b[start : len(b)-r.Remaining()]
		h := maphash.Bytes(graphSeed, span)
		if s, ok := first[h]; ok && bytes.Equal(b[s.start:s.end], span) {
			e.Graph = entries[s.entry].Graph
		} else {
			e.Graph = decodeGraph(wire.NewReader(span))
			if first != nil && !ok {
				first[h] = seen{i, start, start + len(span)}
			}
		}
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

// graphSeed seeds the hash DecodeBatch finds repeated graphs by.
var graphSeed = maphash.MakeSeed()

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
