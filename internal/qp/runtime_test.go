package qp

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/tuple"
	"pier/internal/ufl"
)

// Tests for the multi-tenant query runtime: the shared table bus, the
// coalesced flush wheel, batched dissemination, and admission control.

// soloNode spins up a single started PIER node (a singleton ring) for
// runtime tests that need no network.
func soloNode(t *testing.T, seed int64) (*sim.Env, *Node) {
	t.Helper()
	env := sim.NewEnv(sim.Options{Seed: seed})
	n := NewNode(env.Spawn("solo"), Config{})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	env.Run(time.Second)
	return env, n
}

// scanQuery builds a minimal local continuous query over table.
func scanQuery(id, table, flushEvery string) *ufl.Query {
	flush := ""
	if flushEvery != "" {
		flush = fmt.Sprintf(", flushevery='%s'", flushEvery)
	}
	return ufl.MustParse(fmt.Sprintf(`
query %s timeout 30s
opgraph g disseminate local {
    src = NewData(table='%s')
    agg = GroupBy(aggs='count(*) as cnt'%s)
    out = Result()
    agg <- src
    out <- agg
}
`, id, table, flush))
}

// TestBusSharesSubscriptionAcrossQueries: structurally identical access
// methods from different queries share ONE overlay subscription and ONE
// decode per arrival, while each query still receives every tuple.
func TestBusSharesSubscriptionAcrossQueries(t *testing.T) {
	env, n := soloNode(t, 41)
	const q = 16
	counts := make([]int, q)
	for i := 0; i < q; i++ {
		i := i
		err := n.Submit(scanQuery(fmt.Sprintf("s%d", i), "fw", ""), "c",
			func(*tuple.Tuple) { counts[i]++ }, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	env.Run(time.Second)

	st := n.Stats()
	// Since subtree sharing, structurally identical graphs don't just
	// share the subscription — they share the whole operator chain, so
	// the bus holds ONE attachment (the chain's) for all q queries.
	if st.LiveGraphs != q || st.Subscriptions != 1 {
		t.Fatalf("live=%d subs=%d, want %d/1", st.LiveGraphs, st.Subscriptions, q)
	}
	if st.SharedSubscriptions != 1 {
		t.Fatalf("SharedSubscriptions = %d, want 1 (identical access methods must share)", st.SharedSubscriptions)
	}
	if st.SharedSubtrees != 1 || st.SubtreeAttachments != q {
		t.Fatalf("subtrees=%d attachments=%d, want 1/%d", st.SharedSubtrees, st.SubtreeAttachments, q)
	}
	if got := n.DHT().Subscribers("fw"); got != 1 {
		t.Fatalf("overlay subscribers = %d, want 1", got)
	}

	const pubs = 5
	for i := 0; i < pubs; i++ {
		n.PublishLocal("fw", tuple.New("fw").Set("v", tuple.Int(int64(i))), time.Hour)
	}
	env.Run(40 * time.Second) // run past timeout so final flushes emit

	if got := n.Stats().Decodes; got != pubs {
		t.Fatalf("decodes = %d, want %d (one per arrival, not per query)", got, pubs)
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("query %d never produced a count row", i)
		}
	}
	st = n.Stats()
	if st.LiveGraphs != 0 || st.Subscriptions != 0 || st.SharedSubscriptions != 0 ||
		st.SharedSubtrees != 0 || st.SubtreeAttachments != 0 {
		t.Fatalf("runtime state leaked after queries ended: %+v", st)
	}
}

// TestCanonicalPredicatesShareChain: predicates that differ only in
// commutative operand order are structurally one plan, so the two
// queries attach to ONE shared operator chain (signature-aware
// canonicalization, not just literal text identity).
func TestCanonicalPredicatesShareChain(t *testing.T) {
	env, n := soloNode(t, 47)
	predQuery := func(id, pred string) *ufl.Query {
		return ufl.MustParse(fmt.Sprintf(`
query %s timeout 30s
opgraph g disseminate local {
    src = NewData(table='fw')
    sel = Select(pred='%s')
    agg = GroupBy(aggs='count(*) as cnt')
    out = Result()
    sel <- src
    agg <- sel
    out <- agg
}
`, id, pred))
	}
	counts := make([]int, 2)
	for i, pred := range []string{"a > 1 AND b < 2", "b < 2 AND a > 1"} {
		i := i
		if err := n.Submit(predQuery(fmt.Sprintf("p%d", i), pred), "c",
			func(*tuple.Tuple) { counts[i]++ }, nil); err != nil {
			t.Fatal(err)
		}
	}
	env.Run(time.Second)
	st := n.Stats()
	if st.SharedSubtrees != 1 || st.SubtreeAttachments != 2 || st.SubtreeBuilds != 1 || st.SubtreeHits != 1 {
		t.Fatalf("flipped predicates did not share one chain: %+v", st)
	}
	n.PublishLocal("fw", tuple.New("fw").Set("a", tuple.Int(5)).Set("b", tuple.Int(1)), time.Hour)
	n.PublishLocal("fw", tuple.New("fw").Set("a", tuple.Int(0)).Set("b", tuple.Int(1)), time.Hour)
	env.Run(40 * time.Second) // run past timeout so final flushes emit
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("query %d never produced a count row", i)
		}
	}
}

// TestOwnNamespaceQueriesDoNotShareChain: two queries whose chains differ
// only in the table each names after itself ('<own id>.feed') are two
// plans, so each builds its own chain and returns only its own table's
// rows. A key that rewrote the query id out of the table name would
// attach the second query to the first one's chain, and the second would
// then return the first one's rows.
func TestOwnNamespaceQueriesDoNotShareChain(t *testing.T) {
	env, n := soloNode(t, 53)
	ids := []string{"qa", "qb"}
	got := map[string][]string{}
	for _, id := range ids {
		id := id
		q := ufl.MustParse(fmt.Sprintf(`
query %s timeout 30s
opgraph g disseminate local {
    src = NewData(table='%s.feed')
    sel = Select(pred='v >= 0')
    out = Result()
    sel <- src
    out <- sel
}
`, id, id))
		if err := n.Submit(q, "c", func(r *tuple.Tuple) { got[id] = append(got[id], r.String()) }, nil); err != nil {
			t.Fatal(err)
		}
	}
	env.Run(time.Second)
	if st := n.Stats(); st.SubtreeBuilds != 2 || st.SubtreeHits != 0 || st.SharedSubtrees != 2 {
		t.Errorf("own-namespace queries: %d builds, %d hits, %d chains, want 2, 0, 2",
			st.SubtreeBuilds, st.SubtreeHits, st.SharedSubtrees)
	}
	want := map[string][]string{}
	publish := func(table string, v int64) {
		r := tuple.New(table).Set("v", tuple.Int(v))
		want[strings.TrimSuffix(table, ".feed")] = append(want[strings.TrimSuffix(table, ".feed")], r.String())
		n.PublishLocal(table, r, time.Hour)
	}
	publish("qa.feed", 99)
	for v := int64(0); v < 5; v++ {
		publish("qb.feed", v)
	}
	env.Run(40 * time.Second)
	for _, id := range ids {
		sort.Strings(got[id])
		sort.Strings(want[id])
		if !reflect.DeepEqual(got[id], want[id]) {
			t.Errorf("query %s returned %v, want its own table's rows %v", id, got[id], want[id])
		}
	}
}

// TestSharePlanRefusesDuplicateOpIDs: executors do not validate the graphs
// strangers send, and a subtree key tells ops apart by position, not id,
// so a graph that declares one op id twice takes the private path.
func TestSharePlanRefusesDuplicateOpIDs(t *testing.T) {
	g := frameQuery("d", "fw").Graphs[0]
	if _, _, ok := sharePlan(&g); !ok {
		t.Fatal("the frame query is not share-eligible")
	}
	g.Ops = append(g.Ops, ufl.OpSpec{ID: "sel", Kind: "Select", Args: map[string]string{"pred": "sev > 8"}})
	if _, _, ok := sharePlan(&g); ok {
		t.Fatal("a graph declaring op id \"sel\" twice is share-eligible")
	}
}

// TestTenKQueriesReturnToBaseline is the end-to-end leak regression the
// registry was built for: instantiate and close 10k queries and assert
// subscriber count and per-publish dispatch cost return to baseline.
func TestTenKQueriesReturnToBaseline(t *testing.T) {
	env, n := soloNode(t, 42)
	const q = 10_000
	for i := 0; i < q; i++ {
		if err := n.Submit(scanQuery(fmt.Sprintf("s%d", i), "fw", ""), "c", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	env.Run(time.Second)
	if st := n.Stats(); st.LiveGraphs != q || st.Subscriptions != 1 || st.SharedSubscriptions != 1 ||
		st.SharedSubtrees != 1 || st.SubtreeAttachments != q || st.SubtreeBuilds != 1 || st.SubtreeHits != q-1 {
		t.Fatalf("storm state: %+v", st)
	}
	// Dispatch cost with 10k live queries: one decode, shared.
	n.PublishLocal("fw", tuple.New("fw").Set("v", tuple.Int(1)), time.Hour)
	if got := n.Stats().Decodes; got != 1 {
		t.Fatalf("decodes with 10k queries live = %d, want 1", got)
	}

	env.Run(40 * time.Second) // all queries time out and tear down
	st := n.Stats()
	if st.LiveGraphs != 0 || st.Subscriptions != 0 || st.SharedSubscriptions != 0 ||
		st.SharedSubtrees != 0 || st.SubtreeAttachments != 0 {
		t.Fatalf("after 10k queries closed: %+v", st)
	}
	if got := n.DHT().Subscribers("fw"); got != 0 {
		t.Fatalf("overlay subscribers after teardown = %d, want 0", got)
	}
	// Dispatch cost back to baseline: a publish now decodes nothing.
	before := n.Stats().Decodes
	n.PublishLocal("fw", tuple.New("fw").Set("v", tuple.Int(2)), time.Hour)
	if got := n.Stats().Decodes; got != before {
		t.Fatalf("post-teardown publish still decoded (%d -> %d)", before, got)
	}
}

// TestFlushWheelCoalescesTimers: Q same-period continuous queries must
// ride ONE timer per period — FlushTimerFires counts node-level ticks,
// GraphFlushes the per-graph work they drove.
func TestFlushWheelCoalescesTimers(t *testing.T) {
	env, n := soloNode(t, 43)
	const q = 8
	for i := 0; i < q; i++ {
		if err := n.Submit(scanQuery(fmt.Sprintf("s%d", i), "fw", "2s"), "c", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	n.PublishLocal("fw", tuple.New("fw").Set("v", tuple.Int(1)), time.Hour)
	env.Run(10 * time.Second)

	st := n.Stats()
	if st.FlushTimerFires == 0 {
		t.Fatal("wheel never fired")
	}
	// ~5 periods elapsed: without coalescing this would be q*fires.
	if st.FlushTimerFires > 6 {
		t.Fatalf("FlushTimerFires = %d for %d queries; wheel is not coalescing", st.FlushTimerFires, q)
	}
	// Since subtree sharing, the q same-shape queries ride ONE wheel
	// registrant (the shared chain), so flush work is O(1) in q: one
	// chain flush per fire, fanned to the q tails by the demux.
	if st.GraphFlushes != st.FlushTimerFires {
		t.Fatalf("GraphFlushes = %d, want fires(%d) x 1 shared chain", st.GraphFlushes, st.FlushTimerFires)
	}
	if st.SharedExecFanout < uint64(q) {
		t.Fatalf("SharedExecFanout = %d, want >= %d (first data flush fans to every tail)", st.SharedExecFanout, q)
	}
	if len(n.wheel.slots) != 1 {
		t.Fatalf("wheel slots = %d, want 1", len(n.wheel.slots))
	}

	env.Run(30 * time.Second) // queries end
	if len(n.wheel.slots) != 0 {
		t.Fatal("wheel slot leaked after all queries closed")
	}
}

// TestWheelCloseDuringFlush: the harshest teardown path — the FIRST
// graph's wheel-driven flush emits a result whose client callback
// finishes every running query, so the slot's remaining entries (and the
// flushing graph itself) close while the tick is mid-iteration. The
// closed graphs must be skipped, nothing may re-fire, and the slot must
// retire without leaking its timer.
func TestWheelCloseDuringFlush(t *testing.T) {
	env, n := soloNode(t, 44)
	teardown := func() {
		var rqs []*runningQuery
		for _, rq := range n.running {
			rqs = append(rqs, rq)
		}
		for _, rq := range rqs {
			n.finishQuery(rq)
		}
	}
	closedAll := false
	// s0's flush emits a count row to this proxy callback, which rips
	// every query down from inside the wheel tick.
	err := n.Submit(scanQuery("s0", "fw", "2s"), "c", func(*tuple.Tuple) {
		if !closedAll {
			closedAll = true
			teardown()
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if err := n.Submit(scanQuery(fmt.Sprintf("s%d", i), "fw", "2s"), "c", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	n.PublishLocal("fw", tuple.New("fw").Set("v", tuple.Int(1)), time.Hour)
	env.Run(10 * time.Second)
	if !closedAll {
		t.Fatal("flush never emitted; teardown path untested")
	}
	st := n.Stats()
	if st.LiveGraphs != 0 {
		t.Fatalf("LiveGraphs = %d after close-during-flush", st.LiveGraphs)
	}
	if len(n.wheel.slots) != 0 {
		t.Fatal("slot survived close-during-flush teardown")
	}
	if st.FlushTimerFires != 1 {
		t.Fatalf("FlushTimerFires = %d, want exactly 1 (slot retired mid-first-tick)", st.FlushTimerFires)
	}
}

// TestAdmissionControlRejectsBeyondCap: with MaxLiveGraphs=2, a third
// concurrent query is refused and the proxy receives an explicit reject
// ack; finished queries return their slots.
func TestAdmissionControlRejectsBeyondCap(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 45})
	n := NewNode(env.Spawn("solo"), Config{MaxLiveGraphs: 2})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	env.Run(time.Second)

	var sets []*ResultSet
	for i := 0; i < 3; i++ {
		rs, err := n.SubmitCollect(scanQuery(fmt.Sprintf("s%d", i), "fw", ""), "c")
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, rs)
	}
	env.Run(time.Second)
	st := n.Stats()
	if st.LiveGraphs != 2 {
		t.Fatalf("LiveGraphs = %d, want capped at 2", st.LiveGraphs)
	}
	if st.GraphsRejected != 1 || st.RejectAcks != 1 {
		t.Fatalf("rejected=%d acks=%d, want 1/1", st.GraphsRejected, st.RejectAcks)
	}
	// Per-query attribution: only the third query saw the refusal.
	if sets[0].Rejects() != 0 || sets[1].Rejects() != 0 || sets[2].Rejects() != 1 {
		t.Fatalf("per-query rejects = %d/%d/%d, want 0/0/1",
			sets[0].Rejects(), sets[1].Rejects(), sets[2].Rejects())
	}

	env.Run(40 * time.Second) // slots return
	if err := n.Submit(scanQuery("late", "fw", ""), "c", nil, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(time.Second)
	if st := n.Stats(); st.LiveGraphs != 1 || st.GraphsRejected != 1 {
		t.Fatalf("slots did not return: %+v", st)
	}
}

// TestAdmissionRejectAckCrossesNetwork: an executor at its cap must ack
// the refusal back to a REMOTE proxy.
func TestAdmissionRejectAckCrossesNetwork(t *testing.T) {
	env, nodes := cluster(t, 46, 8)
	// Cap every non-proxy node at 1 live graph, then broadcast two
	// queries: the second is refused everywhere (except the uncapped
	// proxy) and the proxy must see the acks.
	for _, nd := range nodes[1:] {
		nd.SetMaxLiveGraphs(1)
	}
	q1 := ufl.MustParse(`
query b1 timeout 20s
opgraph g disseminate broadcast {
    scan = Scan(table='t')
}
`)
	q2 := ufl.MustParse(`
query b2 timeout 20s
opgraph g disseminate broadcast {
    scan = Scan(table='t')
}
`)
	if err := nodes[0].Submit(q1, "c", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Submit(q2, "c", nil, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(15 * time.Second)
	rejected := uint64(0)
	for _, nd := range nodes {
		rejected += nd.Stats().GraphsRejected
	}
	if rejected == 0 {
		t.Fatal("no executor rejected under a cap of 1 with 2 broadcast queries")
	}
	if acks := nodes[0].Stats().RejectAcks; acks != rejected {
		t.Fatalf("proxy saw %d reject acks, executors rejected %d", acks, rejected)
	}
}

// TestDissemBatchCoalescesSubmissions: queries submitted within the
// batch window ride one distribution-tree frame and still execute
// everywhere.
func TestDissemBatchCoalescesSubmissions(t *testing.T) {
	env, nodes := cluster(t, 47, 8)
	const q = 5
	for i := 0; i < q; i++ {
		plan := ufl.MustParse(fmt.Sprintf(`
query bb%d timeout 20s
opgraph g disseminate broadcast {
    scan = Scan(table='t')
}
`, i))
		if err := nodes[2].Submit(plan, "c", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	env.Run(15 * time.Second)
	st := nodes[2].Stats()
	if st.BatchFrames != 1 {
		t.Fatalf("BatchFrames = %d, want 1 (all %d queries submitted in one window)", st.BatchFrames, q)
	}
	if st.BatchedGraphs != q {
		t.Fatalf("BatchedGraphs = %d, want %d", st.BatchedGraphs, q)
	}
	executed := 0
	for _, nd := range nodes {
		executed += int(nd.Stats().GraphsExecuted)
	}
	if executed != q*len(nodes) {
		t.Fatalf("executed %d opgraphs, want %d", executed, q*len(nodes))
	}
}

// TestMalformedStoredObjectsCounted: objects whose payload fails tuple
// decode used to be dropped silently by newScan's accept path; both the
// catch-up scan and the newData path now count them into Stats, so storm
// runs can assert zero.
func TestMalformedStoredObjectsCounted(t *testing.T) {
	env, n := soloNode(t, 48)
	// One malformed object already stored (hits the catch-up scan), one
	// good one.
	n.DHT().PutLocal("fw", "k", "bad", []byte{0xff, 0x02, 0x01}, time.Hour)
	n.PublishLocal("fw", tuple.New("fw").Set("v", tuple.Int(1)), time.Hour)

	plan := ufl.MustParse(`
query mf timeout 10s
opgraph g disseminate local {
    src = Scan(table='fw')
    out = Result()
    out <- src
}
`)
	rows := 0
	if err := n.Submit(plan, "c", func(*tuple.Tuple) { rows++ }, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(time.Second)
	if st := n.Stats(); st.MalformedDrops != 1 {
		t.Fatalf("MalformedDrops = %d after catch-up, want 1 (%+v)", st.MalformedDrops, st)
	}
	// A malformed NEW arrival is counted by the registry side.
	n.DHT().PutLocal("fw", "k", "bad2", []byte{0xfe}, time.Hour)
	if st := n.Stats(); st.MalformedDrops != 2 {
		t.Fatalf("MalformedDrops = %d after newData arrival, want 2", st.MalformedDrops)
	}
	if rows != 1 {
		t.Fatalf("rows = %d, want 1 (the good tuple)", rows)
	}
}

// TestShortDeadlineQueryBypassesBatchWindow: a broadcast query whose
// deadline fits inside the dissemination batch window must ship
// immediately — waiting for the window would let every executor drop it
// as already expired (zero results, no error).
func TestShortDeadlineQueryBypassesBatchWindow(t *testing.T) {
	env, n := soloNode(t, 49)
	n.PublishLocal("fw", tuple.New("fw").Set("v", tuple.Int(1)), time.Hour)
	plan := ufl.MustParse(`
query quick timeout 8ms
opgraph g disseminate broadcast {
    scan = Scan(table='fw')
    out = Result()
    out <- scan
}
`)
	rows := 0
	if err := n.Submit(plan, "c", func(*tuple.Tuple) { rows++ }, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(5 * time.Second)
	st := n.Stats()
	if st.GraphsExecuted != 1 {
		t.Fatalf("short-deadline broadcast never executed: %+v", st)
	}
	if rows != 1 {
		t.Fatalf("rows = %d, want 1", rows)
	}

	// The boundary just above the window must not fare worse: a deadline
	// of a few windows also bypasses batching (waiting one full window
	// would eat most of its propagation time).
	plan2 := ufl.MustParse(`
query quick2 timeout 25ms
opgraph g disseminate broadcast {
    scan = Scan(table='fw')
    out = Result()
    out <- scan
}
`)
	if err := n.Submit(plan2, "c", nil, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(5 * time.Second)
	if st := n.Stats(); st.GraphsExecuted != 2 {
		t.Fatalf("just-over-window broadcast never executed: %+v", st)
	}
}
