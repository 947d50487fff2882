package ufl

import (
	"testing"
	"time"
)

func sampleGraph(id, table string) Opgraph {
	return Opgraph{
		ID:     id,
		Dissem: Dissemination{Mode: DissemBroadcast},
		Ops: []OpSpec{
			{ID: "scan", Kind: "Scan", Args: map[string]string{"table": table}},
			{ID: "agg", Kind: "GroupBy", Args: map[string]string{"keys": "src", "aggs": "count(*) as cnt"}},
			{ID: "out", Kind: "Result", Args: map[string]string{}},
		},
		Edges: []Edge{{From: "scan", To: "agg"}, {From: "agg", To: "out"}},
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	at := time.Unix(1000, 0).UTC()
	entries := []BatchEntry{
		{QueryID: "q1", Deadline: at, Proxy: "node-1", Client: "tenant-a", Graph: sampleGraph("g1", "fwlogs")},
		{QueryID: "q2", Deadline: at.Add(time.Second), Proxy: "node-2", Client: "tenant-b", Graph: sampleGraph("g2", "files")},
	}
	got, err := DecodeBatch(EncodeBatch(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d entries, want 2", len(got))
	}
	for i := range entries {
		if got[i].QueryID != entries[i].QueryID || !got[i].Deadline.Equal(entries[i].Deadline) ||
			got[i].Proxy != entries[i].Proxy || got[i].Client != entries[i].Client ||
			got[i].Graph.ID != entries[i].Graph.ID {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, got[i], entries[i])
		}
		if len(got[i].Graph.Ops) != 3 || len(got[i].Graph.Edges) != 2 {
			t.Fatalf("entry %d graph shape lost: %+v", i, got[i].Graph)
		}
	}
}

func TestBatchCodecRejectsWrongVersion(t *testing.T) {
	frame := EncodeBatch([]BatchEntry{{QueryID: "q", Graph: sampleGraph("g", "t")}})
	frame[0] = BatchCodecVersion + 1
	if _, err := DecodeBatch(frame); err == nil {
		t.Fatal("decoded a frame with an unknown codec version")
	}
	if _, err := DecodeBatch([]byte{}); err == nil {
		t.Fatal("decoded an empty frame")
	}
}

func TestBatchCodecRejectsTruncated(t *testing.T) {
	frame := EncodeBatch([]BatchEntry{
		{QueryID: "q1", Graph: sampleGraph("g1", "t")},
		{QueryID: "q2", Graph: sampleGraph("g2", "t")},
	})
	if _, err := DecodeBatch(frame[:len(frame)-5]); err == nil {
		t.Fatal("decoded a truncated frame")
	}
}

func TestEncodeBatchRefusesOversizedBatch(t *testing.T) {
	entries := make([]BatchEntry, MaxBatchEntries+1)
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeBatch accepted a batch whose u16 count would wrap")
		}
	}()
	EncodeBatch(entries)
}
