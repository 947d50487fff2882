package qp

import (
	"testing"
	"time"

	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/wire"
)

// resultMessage frames rows for queryID the way an executor would.
func resultMessage(queryID string, frame []byte) []byte {
	w := wire.NewWriter(64 + len(frame))
	w.U8(qmResultBatch)
	w.String(queryID)
	w.String("executor")
	w.Raw(frame)
	return w.Bytes()
}

// multiResultMessage frames rows for several queries of one proxy (the
// id-list form); count is the id count the message claims.
func multiResultMessage(count int, ids []string, frame []byte) []byte {
	w := wire.NewWriter(64 + len(frame))
	w.U8(qmResultMulti)
	w.U16(uint16(count))
	for _, id := range ids {
		w.String(id)
	}
	w.String("executor")
	w.Raw(frame)
	return w.Bytes()
}

// TestMalformedResultFramesCounted: a result message the proxy cannot
// decode — cut short, or claiming more rows than it carries — is a failed
// tuple decode like any other: counted once in MalformedDrops, nothing
// delivered. Both frame forms an executor sends (a single-tuple encoding
// for one row, a multi-row frame otherwise) arrive through the one path.
func TestMalformedResultFramesCounted(t *testing.T) {
	env, n := soloNode(t, 51)
	rows := 0
	q := ufl.MustParse("query mr timeout 10s\nopgraph g disseminate local {\n    src = NewData(table='none')\n    out = Result()\n    out <- src\n}\n")
	if err := n.Submit(q, "c", func(*tuple.Tuple) { rows++ }, nil); err != nil {
		t.Fatal(err)
	}
	row := tuple.New("r").Set("k", tuple.String("x")).Set("v", tuple.Int(7))
	window := tuple.NewColumnarBatch("r", []string{"k", "v"}, 2)
	window.AppendRow([]tuple.Value{tuple.String("x"), tuple.Int(1)})
	window.AppendRow([]tuple.Value{tuple.String("y"), tuple.Int(2)})

	n.handleMessage("executor", resultMessage("mr", row.Encode()))
	n.handleMessage("executor", resultMessage("mr", window.EncodeFrame()))
	if st := n.Stats(); rows != 3 || st.MalformedDrops != 0 {
		t.Fatalf("valid frames: rows=%d malformed=%d, want 3 and 0", rows, st.MalformedDrops)
	}

	hostile := wire.NewWriter(32)
	hostile.U8(0xff)
	hostile.U8('C')
	hostile.String("r")
	hostile.U16(1)
	hostile.String("k")
	hostile.U32(1 << 30) // rows claimed, none carried
	whole := resultMessage("mr", window.EncodeFrame())
	for i, msg := range [][]byte{
		whole[:len(whole)-3],                   // cut inside the last value
		whole[:4],                              // cut inside the query id
		resultMessage("mr", hostile.Bytes()),   // hostile row count
		resultMessage("mr", row.Encode()[:10]), // single-tuple form, truncated
	} {
		n.handleMessage("executor", msg)
		if st := n.Stats(); rows != 3 || st.MalformedDrops != uint64(i+1) {
			t.Fatalf("bad frame %d: rows=%d malformed=%d, want 3 and %d", i, rows, st.MalformedDrops, i+1)
		}
	}
	env.Run(15 * time.Second)
}

// TestHostileResultIDLists: the id-list form is validated whole before
// the first callback. A valid message reaches every listed live query
// (unknown ids are skipped one by one) with the same row views; a
// malformed one counts once in MalformedDrops and reaches no listed
// query, even the ones whose ids parsed.
func TestHostileResultIDLists(t *testing.T) {
	env, n := soloNode(t, 52)
	got := make(map[string][]*tuple.Tuple)
	for _, id := range []string{"m1", "m2"} {
		q := ufl.MustParse("query " + id + " timeout 10s\nopgraph g disseminate local {\n    src = NewData(table='none')\n    out = Result()\n    out <- src\n}\n")
		if err := n.Submit(q, "c", func(tp *tuple.Tuple) { got[id] = append(got[id], tp) }, nil); err != nil {
			t.Fatal(err)
		}
	}
	window := tuple.NewColumnarBatch("r", []string{"k", "v"}, 2)
	window.AppendRow([]tuple.Value{tuple.String("x"), tuple.Int(1)})
	window.AppendRow([]tuple.Value{tuple.String("y"), tuple.Int(2)})
	frame := window.EncodeFrame()

	n.handleMessage("executor", multiResultMessage(3, []string{"m1", "gone", "m2"}, frame))
	if len(got["m1"]) != 2 || len(got["m2"]) != 2 || got["m1"][0] != got["m2"][0] || got["m1"][1] != got["m2"][1] {
		t.Fatalf("valid id list: m1 got %d rows, m2 %d; want the same 2 row views each", len(got["m1"]), len(got["m2"]))
	}
	if ps := n.proxied["m2"]; ps.results != 2 || len(ps.contributors) != 1 {
		t.Fatalf("per-id tallies: results=%d contributors=%d, want 2 and 1", ps.results, len(ps.contributors))
	}

	whole := multiResultMessage(2, []string{"m1", "m2"}, frame)
	for i, msg := range [][]byte{
		multiResultMessage(0, nil, frame),                  // zero ids
		{qmResultMulti, 0xff, 0xff},                        // a 0xFFFF count in 3 bytes
		whole[:10],                                         // truncated mid-id
		whole[:len(whole)-3],                               // id list valid, frame truncated
		multiResultMessage(3, []string{"m1", "m2"}, frame), // one id more claimed than carried
	} {
		n.handleMessage("executor", msg)
		if st := n.Stats(); len(got["m1"]) != 2 || len(got["m2"]) != 2 || st.MalformedDrops != uint64(i+1) {
			t.Fatalf("bad message %d: m1=%d m2=%d rows, malformed=%d; want 2, 2 and %d",
				i, len(got["m1"]), len(got["m2"]), st.MalformedDrops, i+1)
		}
	}
	env.Run(15 * time.Second)
}

// TestNoResultWindowRetainedAfterTeardown: forwarding a window memoizes
// its encoding on the node (Q tails of one shared chain encode it once).
// Once every query has ended the node must hold neither the batch nor its
// bytes — nor may a pooled retry state.
func TestNoResultWindowRetainedAfterTeardown(t *testing.T) {
	env, nodes := cluster(t, 65, 3)
	for _, id := range []string{"w1", "w2"} {
		q := ufl.MustParse(`
query ` + id + ` timeout 20s
opgraph g disseminate broadcast {
    src = NewData(table='stream')
    agg = GroupBy(keys='k', aggs='count(*) as cnt', flushevery='3s')
    out = Result()
    agg <- src
    out <- agg
}
`)
		if err := nodes[0].Submit(q, "", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	env.Run(2 * time.Second)
	for _, k := range []string{"x", "y"} {
		nodes[1].PublishLocal("stream", tuple.New("stream").Set("k", tuple.String(k)), time.Hour)
	}
	env.Run(5 * time.Second)
	n := nodes[1]
	if n.resultFrameOf == nil || n.resultFrame.Len() == 0 {
		t.Fatal("the window was never forwarded through the memo; the test checks nothing")
	}
	env.Run(30 * time.Second) // deadline, done-grace, last acks
	if n.resultFrameOf != nil || n.resultFrame.Len() != 0 {
		t.Fatalf("node still holds its last window after every query ended (%d frame bytes)", n.resultFrame.Len())
	}
	if len(n.retryPool) == 0 {
		t.Fatal("no retry state was ever pooled")
	}
	for _, rr := range n.retryPool {
		if rr.b != nil || len(rr.rqs) != 0 {
			t.Fatal("pooled retry state still references a batch or a query")
		}
		for _, rq := range rr.rqs[:cap(rr.rqs)] {
			if rq != nil {
				t.Fatal("pooled retry state's id list still references a query")
			}
		}
	}
	if len(n.open) != 0 || n.openOf != nil || len(n.openAt) != 0 || n.fanning != 0 {
		t.Fatalf("a result message is still open after teardown: %d open, %d indexed, depth %d", len(n.open), len(n.openAt), n.fanning)
	}
	if cap(n.open) == 0 {
		t.Fatal("no result message was ever opened")
	}
	for _, o := range n.open[:cap(n.open)] {
		if o.proxy != "" || len(o.rqs) != 0 {
			t.Fatal("a spent open-message entry still references a proxy or a query")
		}
		for _, rq := range o.rqs[:cap(o.rqs)] {
			if rq != nil {
				t.Fatal("a spent open-message entry's id list still references a query")
			}
		}
	}
	if st := n.Stats(); st.PendingSends != 0 || st.LiveGraphs != 0 {
		t.Fatalf("teardown incomplete: %+v", st)
	}
}
