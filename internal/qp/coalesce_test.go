package qp

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
	"pier/internal/wire"
)

// Tests for the coalesced result return path: one message per (emitted
// batch, proxy), carrying the ids of every query at that proxy the demux
// handed the batch to (Node.forwardResult).

// sentResult is one result message a node handed to its runtime.
type sentResult struct {
	dst     vri.Addr
	payload string
}

// ids returns the query ids the message lists.
func (m sentResult) ids() []string {
	r := wire.NewReader([]byte(m.payload))
	count := 1
	if r.U8() == qmResultMulti {
		count = int(r.U16())
	}
	ids := make([]string, count)
	for i := range ids {
		ids[i] = r.String()
	}
	return ids
}

// resultTap is a node's runtime with a log of the result messages sent
// through it. Only the node's own events (or the driver at a barrier)
// append, so it is safe under the sharded scheduler.
type resultTap struct {
	vri.Runtime
	sent        []sentResult
	admitFrames int
}

func (r *resultTap) Send(dst vri.Addr, port vri.Port, payload []byte, ack vri.AckFunc) {
	if port == vri.PortQuery && len(payload) > 0 {
		switch payload[0] {
		case qmResultBatch, qmResultMulti:
			r.sent = append(r.sent, sentResult{dst, string(payload)})
		case qmAdmit:
			r.admitFrames++
		}
	}
	r.Runtime.Send(dst, port, payload, ack)
}

// tapCluster is cluster with every node on a resultTap, optionally on
// the sharded scheduler.
func tapCluster(t *testing.T, seed int64, n, workers int) (*sim.Env, []*Node, []*resultTap) {
	t.Helper()
	env := sim.NewEnv(sim.Options{Seed: seed})
	if workers > 0 {
		env.SetWorkers(workers)
	}
	nodes := make([]*Node, n)
	taps := make([]*resultTap, n)
	for i, s := range env.SpawnN("node", n) {
		taps[i] = &resultTap{Runtime: s}
		nodes[i] = NewNode(taps[i], Config{})
		if err := nodes[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		nodes[i].Join(nodes[0].Addr(), nil)
		env.Run(2 * time.Second)
	}
	env.Run(time.Duration(n)*2*time.Second + 15*time.Second)
	return env, nodes, taps
}

// sentSince sums the result messages and bytes the cluster sent beyond
// the first from[i] of each node's log, and advances from.
func sentSince(taps []*resultTap, from []int) (msgs, bytes int) {
	for i, tap := range taps {
		for _, m := range tap.sent[from[i]:] {
			msgs++
			bytes += len(m.payload)
		}
		from[i] = len(tap.sent)
	}
	return msgs, bytes
}

// aggQuery is a continuous broadcast aggregation over table 'stream'; pred
// empty gives the share-eligible shape every same-shape test uses.
func aggQuery(id, timeout, pred string) *ufl.Query {
	sel, edge := "", "agg <- src"
	if pred != "" {
		sel = fmt.Sprintf("sel = Select(pred='%s')\n    ", pred)
		edge = "sel <- src\n    agg <- sel"
	}
	return ufl.MustParse(fmt.Sprintf(`
query %s timeout %s
opgraph g disseminate broadcast {
    src = NewData(table='stream')
    %sagg = GroupBy(keys='k', aggs='count(*) as cnt; sum(v) as total', flushevery='3s')
    out = Result()
    %s
    out <- agg
}
`, id, timeout, sel, edge))
}

func publishStream(nodes []*Node, round int) {
	for i, n := range nodes {
		for _, k := range []string{"a", "b"} {
			n.PublishLocal("stream", tuple.New("stream").
				Set("k", tuple.String(k)).Set("v", tuple.Int(int64(10*round+i))), time.Hour)
		}
	}
}

func rowStrings(rs *ResultSet) []string {
	out := make([]string, 0, rs.Len())
	for _, r := range rs.Rows() {
		out = append(out, r.String())
	}
	return out
}

// coalesceOutcome is what a same-shape storm produced: per-query rows in
// arrival order, result messages per flush round, and the cluster-wide
// sharing counters.
type coalesceOutcome struct {
	Rows        map[string][]string
	MsgsByRound []int
	Fanout      uint64
	ResultsSent uint64
}

const (
	coalesceNodes, coalesceProxies, coalesceQueries = 6, 3, 12
)

// runSameShape runs 12 same-shape queries from 3 proxies on 6 nodes
// through three flush rounds and the deadline.
func runSameShape(t *testing.T, workers int) coalesceOutcome {
	t.Helper()
	env, nodes, taps := tapCluster(t, 91, coalesceNodes, workers)
	sets := make(map[string]*ResultSet)
	for i := 0; i < coalesceQueries; i++ {
		id := fmt.Sprintf("s%02d", i)
		rs, err := nodes[i%coalesceProxies].SubmitCollect(aggQuery(id, "20s", ""), "c")
		if err != nil {
			t.Fatal(err)
		}
		sets[id] = rs
	}
	out := coalesceOutcome{Rows: make(map[string][]string)}
	from := make([]int, len(taps))
	env.Run(time.Second) // dissemination and admit acks
	for round := 0; round < 3; round++ {
		publishStream(nodes, round)
		env.Run(3 * time.Second) // exactly one wheel tick per node
		msgs, _ := sentSince(taps, from)
		out.MsgsByRound = append(out.MsgsByRound, msgs)
	}
	env.Run(30 * time.Second)
	for id, rs := range sets {
		if c, ok := rs.Completeness(); !rs.Done() || !ok || c != 1.0 {
			t.Errorf("query %s: done=%v completeness=%v (ok=%v), want exactly 1.0", id, rs.Done(), c, ok)
		}
		out.Rows[id] = rowStrings(rs)
	}
	for i, n := range nodes {
		st := n.Stats()
		out.Fanout += st.SharedExecFanout
		out.ResultsSent += st.ResultsSent
		if st.PendingSends != 0 || st.LiveGraphs != 0 || st.SharedSubtrees != 0 || len(n.open) != 0 {
			t.Errorf("node %d not torn down: %+v", i, st)
		}
	}
	return out
}

// TestSameShapeStormSendsOneMessagePerProxy: Q same-shape queries from P
// proxies on N nodes cost N·P − P result messages per flush (every node
// to every proxy but itself), whatever Q is — while every query receives
// the rows, completeness and per-query fan-out accounting it had when
// each query's window travelled alone.
func TestSameShapeStormSendsOneMessagePerProxy(t *testing.T) {
	seq := runSameShape(t, 0)
	want := coalesceNodes*coalesceProxies - coalesceProxies
	if !reflect.DeepEqual(seq.MsgsByRound, []int{want, want, want}) {
		t.Errorf("result messages per flush = %v, want %d each", seq.MsgsByRound, want)
	}
	// The values the same run produced at the commit before coalescing
	// (per-query messages): 3 emitting flushes × 6 nodes × 12 tails, and
	// 2 groups per window.
	if seq.Fanout != 216 || seq.ResultsSent != 432 {
		t.Errorf("SharedExecFanout=%d ResultsSent=%d, want 216 and 432", seq.Fanout, seq.ResultsSent)
	}
	for i := 0; i < coalesceQueries; i++ {
		id, mate := fmt.Sprintf("s%02d", i), fmt.Sprintf("s%02d", i%coalesceProxies)
		if !reflect.DeepEqual(seq.Rows[id], seq.Rows[mate]) {
			t.Errorf("queries %s and %s share a proxy but not their rows", id, mate)
		}
	}
	if got := rowDigest(seq.Rows); got != sameShapeRowsAtParent {
		t.Errorf("rows digest %#x, want %#x (the rows every query received before coalescing)", got, uint64(sameShapeRowsAtParent))
	}
	if par := runSameShape(t, 8); !reflect.DeepEqual(seq, par) {
		t.Errorf("workers=0 vs workers=8 diverged:\nseq: %+v\npar: %+v", seq, par)
	}
}

// sameShapeRowsAtParent is rowDigest over runSameShape's rows at the
// commit before coalescing.
const sameShapeRowsAtParent = 0xad978d11cd5673d1

// rowDigest folds per-query row sequences, in query-id order, to one
// FNV-1a value.
func rowDigest(rows map[string][]string) uint64 {
	ids := make([]string, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		for _, s := range append([]string{id}, rows[id]...) {
			h.Write([]byte(s))
			h.Write([]byte{0xff})
		}
	}
	return h.Sum64()
}

// runStaggered runs three same-shape queries from one proxy, the first
// ending between the second and the third wheel flush, and returns their rows
// plus the id lists of every message node 1 sent.
func runStaggered(t *testing.T, workers int) (rows map[string][]string, lists [][]string) {
	t.Helper()
	env, nodes, taps := tapCluster(t, 92, 4, workers)
	sets := make(map[string]*ResultSet)
	for _, q := range []struct{ id, timeout string }{{"early", "8s"}, {"late1", "20s"}, {"late2", "20s"}} {
		rs, err := nodes[0].SubmitCollect(aggQuery(q.id, q.timeout, ""), "c")
		if err != nil {
			t.Fatal(err)
		}
		sets[q.id] = rs
	}
	env.Run(time.Second)
	earlyLen := 0
	for round := 0; round < 4; round++ {
		publishStream(nodes, round)
		env.Run(3 * time.Second)
		if round == 2 {
			// t=10s: the early query ended at 8s (its end flushed the shared
			// window to everyone) and its proxy state at 10s.
			earlyLen = sets["early"].Len()
		}
	}
	env.Run(30 * time.Second)
	if got := sets["early"].Len(); got != earlyLen {
		t.Errorf("the ended query received %d rows after its end", got-earlyLen)
	}
	rows = make(map[string][]string)
	for id, rs := range sets {
		if !rs.Done() {
			t.Errorf("query %s not done", id)
		}
		rows[id] = rowStrings(rs)
	}
	for _, m := range taps[1].sent {
		lists = append(lists, m.ids())
	}
	return rows, lists
}

// TestStaggeredDeadlinesInOneMessage: a query that ends between two
// flushes drops out of the id list and receives nothing afterwards; its
// neighbours in the same message still receive every row.
func TestStaggeredDeadlinesInOneMessage(t *testing.T) {
	rows, lists := runStaggered(t, 0)
	all, pair := []string{"early", "late1", "late2"}, []string{"late1", "late2"}
	// Flushes at 3s and 6s, the early query's end at 8s (the shared
	// window, round 2's rows, goes to everyone), an empty window at 9s,
	// then 12s without it.
	if want := [][]string{all, all, all, pair}; !reflect.DeepEqual(lists, want) {
		t.Errorf("id lists node 1 sent:\n got %v\nwant %v", lists, want)
	}
	// 4 nodes × 2 groups per emission: three emissions for the early
	// query, four for the others.
	if len(rows["early"]) != 24 || len(rows["late1"]) != 32 {
		t.Errorf("early got %d rows, late1 %d; want 24 and 32", len(rows["early"]), len(rows["late1"]))
	}
	if !reflect.DeepEqual(rows["late1"], rows["late2"]) {
		t.Error("two queries listed in the same messages received different rows")
	}
	if !reflect.DeepEqual(rows["early"], rows["late1"][:24]) {
		t.Error("the early query's rows are not the prefix its neighbours received")
	}
	parRows, parLists := runStaggered(t, 8)
	if !reflect.DeepEqual(rows, parRows) || !reflect.DeepEqual(lists, parLists) {
		t.Error("workers=0 vs workers=8 diverged")
	}
}

// TestDeadProxyRetriesPerMessage pins the retry arithmetic on a shared
// window: three queries of one dead proxy are ONE message, so one
// schedule — 3 SendRetries + 1 SendExhausted, not 9 + 3 — and a
// retransmission after a listed query ended carries only the live ids.
// When every listed query ends during the backoff the state is released
// without another send and nothing counts as exhausted.
func TestDeadProxyRetriesPerMessage(t *testing.T) {
	for _, tc := range []struct {
		name          string
		timeouts      [3]string
		lists         [][]string
		retries, exhd uint64
	}{
		// Flush at ~4s; nacks 2s after each send, backoffs 0.25–0.5s,
		// 0.5–0.75s, 1–1.25s: sends at ≈4, 6.4, 9, 12.1s; "a" ends at 7s.
		{"one ends", [3]string{"7s", "40s", "40s"},
			[][]string{{"a", "b", "c"}, {"a", "b", "c"}, {"b", "c"}, {"b", "c"}}, 3, 1},
		{"all end", [3]string{"7s", "7s", "7s"},
			[][]string{{"a", "b", "c"}, {"a", "b", "c"}}, 1, 0},
	} {
		env, nodes, taps := tapCluster(t, 93, 3, 0)
		for i, id := range []string{"a", "b", "c"} {
			q := ufl.MustParse(fmt.Sprintf(`
query %s timeout %s
opgraph g disseminate broadcast {
    src = NewData(table='stream')
    agg = GroupBy(keys='k', aggs='count(*) as cnt', flushevery='4s')
    out = Result()
    agg <- src
    out <- agg
}
`, id, tc.timeouts[i]))
			if err := nodes[0].Submit(q, "", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		env.Run(time.Second)
		env.Fail(nodes[0].Addr())
		nodes[1].PublishLocal("stream", tuple.New("stream").Set("k", tuple.String("x")), time.Hour)
		env.Run(20 * time.Second)
		var lists [][]string
		for _, m := range taps[1].sent {
			lists = append(lists, m.ids())
		}
		if !reflect.DeepEqual(lists, tc.lists) {
			t.Errorf("%s: id lists sent:\n got %v\nwant %v", tc.name, lists, tc.lists)
		}
		st := nodes[1].Stats()
		if st.SendRetries != tc.retries || st.SendExhausted != tc.exhd || st.PendingSends != 0 {
			t.Errorf("%s: retries=%d exhausted=%d pending=%d, want %d, %d and 0",
				tc.name, st.SendRetries, st.SendExhausted, st.PendingSends, tc.retries, tc.exhd)
		}
	}
}

// runDistinct runs 8 distinct-predicate queries (nothing shares) from 2
// proxies on 4 nodes and returns their rows and the result traffic.
func runDistinct(t *testing.T, workers int) (rows map[string][]string, msgs, bytes int) {
	t.Helper()
	env, nodes, taps := tapCluster(t, 94, 4, workers)
	sets := make(map[string]*ResultSet)
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("d%d", i)
		rs, err := nodes[i%2].SubmitCollect(aggQuery(id, "15s", fmt.Sprintf("v >= %d", i)), "c")
		if err != nil {
			t.Fatal(err)
		}
		sets[id] = rs
	}
	env.Run(time.Second)
	for round := 0; round < 3; round++ {
		publishStream(nodes, round)
		env.Run(3 * time.Second)
	}
	env.Run(30 * time.Second)
	rows = make(map[string][]string)
	for id, rs := range sets {
		rows[id] = rowStrings(rs)
	}
	for _, tap := range taps {
		for _, m := range tap.sent {
			if m.payload[0] != qmResultBatch {
				t.Fatalf("a private chain's message took the id-list form (kind %d)", m.payload[0])
			}
		}
	}
	msgs, bytes = sentSince(taps, make([]int, len(taps)))
	return rows, msgs, bytes
}

// TestDistinctQueriesTrafficUnchanged: where nothing shares, every
// message lists one query and is byte for byte what it was — as many
// messages and bytes as at the commit before coalescing.
func TestDistinctQueriesTrafficUnchanged(t *testing.T) {
	rows, msgs, bytes := runDistinct(t, 0)
	if msgs != distinctMsgsAtParent || bytes != distinctBytesAtParent {
		t.Errorf("%d result messages, %d bytes; want %d and %d", msgs, bytes, distinctMsgsAtParent, distinctBytesAtParent)
	}
	if got := rowDigest(rows); got != distinctRowsAtParent {
		t.Errorf("rows digest %#x, want %#x", got, uint64(distinctRowsAtParent))
	}
	parRows, parMsgs, parBytes := runDistinct(t, 8)
	if !reflect.DeepEqual(rows, parRows) || msgs != parMsgs || bytes != parBytes {
		t.Error("workers=0 vs workers=8 diverged")
	}
}

// What runDistinct measured at the commit before coalescing.
const (
	distinctMsgsAtParent  = 56
	distinctBytesAtParent = 5880
	distinctRowsAtParent  = 0x7199f2b30cfed09
)

// TestStopFinishesQueriesInIDOrder: stopping a node flushes its queries'
// final windows, which sends result messages; the sequence must not hang
// on map order. Two runs from one seed send the same sequence, and it is
// the sorted-id one.
func TestStopFinishesQueriesInIDOrder(t *testing.T) {
	run := func() []sentResult {
		env, nodes, taps := tapCluster(t, 95, 3, 0)
		for i, id := range []string{"zeta", "alpha", "mid"} {
			if err := nodes[0].Submit(aggQuery(id, "60s", fmt.Sprintf("v >= %d", i)), "", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		env.Run(time.Second)
		publishStream(nodes, 1)
		env.Run(time.Second) // the windows hold rows; no wheel tick yet
		nodes[1].Stop()
		return taps[1].sent
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two stops from one seed sent different sequences:\n%v\n%v", first, second)
	}
	var order []string
	for _, m := range first {
		order = append(order, m.ids()...)
	}
	if want := []string{"alpha", "mid", "zeta"}; !reflect.DeepEqual(order, want) {
		t.Errorf("final windows left in order %v, want %v", order, want)
	}
}

// TestCutIDs: an id list splits into runs of at most maxMessageIDs, in
// order, losing and repeating nothing.
func TestCutIDs(t *testing.T) {
	for _, total := range []int{0, 1, maxMessageIDs, maxMessageIDs + 1, 10000} {
		ids := make([]int, total)
		for i := range ids {
			ids[i] = i
		}
		var got []int
		runs := 0
		for run, rest := cutIDs(ids); len(run) > 0; run, rest = cutIDs(rest) {
			if len(run) > maxMessageIDs {
				t.Fatalf("%d ids: a run of %d", total, len(run))
			}
			got = append(got, run...)
			runs++
		}
		if want := (total + maxMessageIDs - 1) / maxMessageIDs; runs != want || len(got) != total {
			t.Fatalf("%d ids: %d runs carrying %d ids, want %d runs", total, runs, len(got), want)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("%d ids: position %d holds %d", total, i, v)
			}
		}
	}
}

// TestLongIDListsSplitAcrossMessages: a fan-out to more queries of one
// proxy than a message may list leaves as several messages over the same
// frame, and an admit list that long as several admit frames — every id
// exactly once, in order.
func TestLongIDListsSplitAcrossMessages(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 96})
	sims := env.SpawnN("node", 2)
	tap := &resultTap{Runtime: sims[0]}
	n, proxy := NewNode(tap, Config{}), NewNode(sims[1], Config{})
	for _, nd := range []*Node{n, proxy} {
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
	}
	const total = maxMessageIDs + 1
	ids := make([]string, total)
	admits := make(map[string]*proxyState)
	for i := range ids {
		ids[i] = fmt.Sprintf("q%04d", i)
		admits[ids[i]] = &proxyState{id: ids[i]}
		proxy.proxied[ids[i]] = admits[ids[i]]
	}
	b := tuple.OfTuple(tuple.New("r").Set("k", tuple.String("x")))
	n.fanning++ // as inside a demux dispatch
	for _, id := range ids {
		n.forwardResult(&runningQuery{id: id, proxy: proxy.Addr()}, b)
	}
	n.fanning--
	n.sendOpenResults()
	if len(tap.sent) != 2 {
		t.Fatalf("%d ids left as %d messages, want 2", total, len(tap.sent))
	}
	var listed []string
	for _, m := range tap.sent {
		if len(m.ids()) > maxMessageIDs {
			t.Fatalf("a message lists %d ids", len(m.ids()))
		}
		listed = append(listed, m.ids()...)
	}
	if !reflect.DeepEqual(listed, ids) {
		t.Fatal("the split lost, repeated or reordered ids")
	}
	frame := b.Row(0).Encode()
	for _, m := range tap.sent {
		if got := m.payload[len(m.payload)-len(frame):]; got != string(frame) {
			t.Fatal("the messages of one split do not carry the same frame")
		}
	}
	n.sendAdmits(proxy.Addr(), ids)
	if tap.admitFrames != 2 {
		t.Fatalf("%d admitted ids left as %d admit frames, want 2", total, tap.admitFrames)
	}
	env.Run(5 * time.Second)
	for id, ps := range admits {
		if ps.admits != 1 || ps.results != 1 {
			t.Fatalf("query %s: %d admits, %d result rows at the proxy, want 1 and 1", id, ps.admits, ps.results)
		}
	}
	if st := n.Stats(); st.PendingSends != 0 || len(n.open) != 0 {
		t.Fatalf("split messages left state behind: %+v", st)
	}
}
