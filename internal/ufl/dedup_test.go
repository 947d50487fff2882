package ufl

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pier/internal/wire"
)

// decodeBatchOneByOne is DecodeBatch as it was before repeated graphs
// shared a decode: every entry's graph decoded in place. It is the
// reference for what a frame decodes to and for how a bad frame is
// refused.
func decodeBatchOneByOne(b []byte) ([]BatchEntry, error) {
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

// dedupGraphs are the graphs the repeat-pattern tests draw from, each one
// Check accepts: two that differ only in a predicate constant, one whose
// namespace and argument embed the query id "q0", and one with no
// arguments or edges.
func dedupGraphs() []Opgraph {
	withPred := func(id, pred string) Opgraph {
		g := sampleGraph(id, "fwlogs")
		g.Ops = append(g.Ops, OpSpec{ID: "sel", Kind: "Select", Args: map[string]string{"pred": pred}})
		g.Edges[0].To = "sel"
		g.Edges = append(g.Edges, Edge{From: "sel", To: "agg"})
		return g
	}
	mentioning := sampleGraph("g", "t")
	mentioning.Dissem = Dissemination{Mode: DissemEquality, Namespace: "q0.partial", Key: "k"}
	mentioning.Ops[1].Args["out"] = "q0!agg"
	return []Opgraph{
		withPred("g", "sev > 2 AND sev < 9"),
		withPred("g", "sev > 3 AND sev < 9"),
		mentioning,
		{ID: "bare", Dissem: Dissemination{Mode: DissemLocal}, Ops: []OpSpec{{ID: "a", Kind: "Result", Args: map[string]string{}}}},
	}
}

// patternEntries builds one entry per pattern byte, the byte choosing the
// graph; every entry has its own query id.
func patternEntries(pattern []byte) []BatchEntry {
	graphs := dedupGraphs()
	at := time.Unix(1000, 0).UTC()
	entries := make([]BatchEntry, len(pattern))
	for i, p := range pattern {
		entries[i] = BatchEntry{
			QueryID:  fmt.Sprintf("q%d", i),
			Deadline: at.Add(time.Duration(i) * time.Second),
			Proxy:    "proxy",
			Client:   fmt.Sprintf("c%d", p%3),
			Graph:    graphs[int(p)%len(graphs)],
		}
	}
	return entries
}

// checkShared fails unless entries i and j share one decoded graph exactly
// when their pattern bytes choose the same graph.
func checkShared(t *testing.T, pattern []byte, got []BatchEntry) {
	t.Helper()
	n := len(dedupGraphs())
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			same := int(pattern[i])%n == int(pattern[j])%n
			if shared := &got[i].Graph.Ops[0] == &got[j].Graph.Ops[0]; shared != same {
				t.Fatalf("entries %d and %d (pattern %v): share a decode = %v, want %v", i, j, pattern, shared, same)
			}
		}
	}
}

// TestDecodeBatchSharesRepeatedGraphs: a frame [A, A, B, A] decodes every
// entry as it would alone, the three A entries share one decoded graph and
// B has its own, and every proper prefix of the frame is refused with the
// error an entry-by-entry decode reports.
func TestDecodeBatchSharesRepeatedGraphs(t *testing.T) {
	pattern := []byte{0, 0, 1, 0}
	entries := patternEntries(pattern)
	frame := EncodeBatch(entries)
	got, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		alone, err := DecodeBatch(EncodeBatch(entries[i : i+1]))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], alone[0]) {
			t.Fatalf("entry %d decoded in the frame as %+v, alone as %+v", i, got[i], alone[0])
		}
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("frame decoded to %+v, want %+v", got, entries)
	}
	checkShared(t, pattern, got)
	for cut := 0; cut < len(frame); cut++ {
		_, err := DecodeBatch(frame[:cut])
		_, want := decodeBatchOneByOne(frame[:cut])
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("frame cut at %d of %d bytes: error %v, entry-by-entry decode %v", cut, len(frame), err, want)
		}
	}
}

// TestSkipGraphConsumesWhatDecodeReads: skipGraph and decodeGraph agree on
// where every graph ends and on where a cut graph fails.
func TestSkipGraphConsumesWhatDecodeReads(t *testing.T) {
	for _, g := range dedupGraphs() {
		b := EncodeGraph(g)
		for cut := 0; cut <= len(b); cut++ {
			skip, dec := wire.NewReader(b[:cut]), wire.NewReader(b[:cut])
			skipGraph(skip)
			decodeGraph(dec)
			if skip.Remaining() != dec.Remaining() || fmt.Sprint(skip.Err()) != fmt.Sprint(dec.Err()) {
				t.Fatalf("graph %q cut at %d: skip left %d (%v), decode left %d (%v)",
					g.ID, cut, skip.Remaining(), skip.Err(), dec.Remaining(), dec.Err())
			}
		}
	}
}

// FuzzBatchRoundTrip: for any repeat pattern, DecodeBatch(EncodeBatch(e))
// deep-equals e, entries choosing the same graph share one decode, and the
// frame cut anywhere is refused with the entry-by-entry decode's error.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0}, uint16(40))
	f.Add([]byte{2, 2}, uint16(7))
	f.Add([]byte{3}, uint16(0))
	f.Add([]byte{0, 1, 2, 3, 3, 2, 1, 0}, uint16(500))
	f.Fuzz(func(t *testing.T, pattern []byte, cut uint16) {
		if len(pattern) == 0 || len(pattern) > 256 {
			return
		}
		entries := patternEntries(pattern)
		frame := EncodeBatch(entries)
		got, err := DecodeBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, entries) {
			t.Fatalf("pattern %v: decoded %+v, want %+v", pattern, got, entries)
		}
		checkShared(t, pattern, got)
		short := frame[:int(cut)%len(frame)]
		_, err = DecodeBatch(short)
		_, want := decodeBatchOneByOne(short)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("frame cut at %d of %d bytes: error %v, entry-by-entry decode %v", len(short), len(frame), err, want)
		}
	})
}
