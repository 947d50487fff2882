package qp

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/overlay"
	"pier/internal/sim"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
)

// clusterWith is cluster with a caller-supplied node configuration —
// the fault-tolerance tests need NumTrees above the default.
func clusterWith(t *testing.T, seed int64, n int, cfg Config) (*sim.Env, []*Node) {
	t.Helper()
	env := sim.NewEnv(sim.Options{Seed: seed})
	sims := env.SpawnN("node", n)
	nodes := make([]*Node, n)
	for i, s := range sims {
		nodes[i] = NewNode(s, cfg)
		if err := nodes[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		nodes[i].Join(nodes[0].Addr(), nil)
		env.Run(2 * time.Second)
	}
	env.Run(time.Duration(n)*2*time.Second + 15*time.Second)
	return env, nodes
}

// TestTreeSeenEntriesExpire is the regression test for the unbounded
// seen-set leak: before the refresh-tick sweep, every broadcast left a
// dedup entry behind forever, so a long-lived node's memory grew with
// the total broadcast count. 10k broadcasts must return the dedup
// population to its pre-broadcast baseline once the TTL passes.
func TestTreeSeenEntriesExpire(t *testing.T) {
	env, nodes := cluster(t, 61, 6)
	baseline := make([]int, len(nodes))
	for i, n := range nodes {
		baseline[i] = n.Stats().TreeSeenEntries
	}
	// 10k broadcasts of an opaque one-byte payload (an unknown query-
	// message kind: handleMessage ignores it, so only the tree-layer
	// dedup state is exercised), issued as events on the broadcasting
	// node spread over ten virtual seconds.
	const broadcasts = 10000
	src := nodes[2]
	for j := 0; j < broadcasts; j++ {
		src.Runtime().Schedule(time.Duration(j)*time.Millisecond, func() {
			src.trees.broadcast([]byte{0xEE})
		})
	}
	env.Run(11 * time.Second)
	peak := 0
	for _, n := range nodes {
		if k := n.Stats().TreeSeenEntries; k > peak {
			peak = k
		}
	}
	if peak < broadcasts {
		t.Fatalf("dedup population peaked at %d entries, want >= %d — broadcasts not flowing", peak, broadcasts)
	}
	// One full TTL past the last broadcast, plus refresh rounds so every
	// node's sweep has run.
	env.Run(nodes[0].trees.childTTL() + 3*nodes[0].cfg.TreeRefresh)
	for i, n := range nodes {
		if got := n.Stats().TreeSeenEntries; got != baseline[i] {
			t.Fatalf("node %d holds %d seen entries after TTL, want baseline %d (leak)", i, got, baseline[i])
		}
	}
}

// TestResultRetryExhaustionCounts pins the exact retry arithmetic on
// the result path: one result tuple sent to a dead proxy must be
// retried sendRetryLimit times and then abandoned — SendRetries +3,
// SendExhausted +1 — with the pooled retry state released (PendingSends
// back to zero) rather than pinned forever.
func TestResultRetryExhaustionCounts(t *testing.T) {
	env, nodes := cluster(t, 62, 3)
	q := ufl.MustParse(`
query retrydead timeout 40s
opgraph g disseminate broadcast {
    scan = Scan(table='stream')
    agg  = GroupBy(keys='k', aggs='count(*) as cnt', flushevery='15s')
    out  = Result()
    agg <- scan
    out <- agg
}
`)
	if err := nodes[0].Submit(q, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(3 * time.Second) // dissemination + admit acks complete
	env.Fail(nodes[0].Addr())
	env.Schedule(2*time.Second, func() {
		nodes[1].PublishLocal("stream", tuple.New("stream").Set("k", tuple.String("x")), time.Hour)
	})
	// First (and only) emitting flush is ~15s after instantiation; the
	// nack/backoff cycle (2s ack timeout per attempt, exponential
	// jittered backoff) exhausts within ~10.5s of it. Stop before the
	// second flush window so exactly one tuple enters the retry path.
	env.Run(25 * time.Second)
	st := nodes[1].Stats()
	if st.SendRetries != 3 || st.SendExhausted != 1 {
		t.Fatalf("retries=%d exhausted=%d, want exactly 3 and 1", st.SendRetries, st.SendExhausted)
	}
	if st.PendingSends != 0 {
		t.Fatalf("%d pending sends still held after exhaustion", st.PendingSends)
	}
	if idle := nodes[2].Stats(); idle.SendRetries != 0 || idle.SendExhausted != 0 {
		t.Fatalf("node with no results retried anyway: %+v", idle)
	}
}

// TestMultiTreeBroadcastDedup: with NumTrees redundant trees (distinct
// root keys, §3.3.3) a broadcast travels every tree but executes
// exactly once per node — the seen set absorbs the redundancy.
func TestMultiTreeBroadcastDedup(t *testing.T) {
	env, nodes := clusterWith(t, 63, 8, Config{NumTrees: 3})
	for i, n := range nodes {
		if got := n.Stats().Trees; got != 3 {
			t.Fatalf("node %d runs %d trees, want 3", i, got)
		}
	}
	// Each redundant tree must actually have formed: some node records
	// children under the non-default root keys too.
	for idx := 1; idx < 3; idx++ {
		kids := 0
		for _, n := range nodes {
			kids += len(n.trees.trees[idx].children)
		}
		if kids == 0 {
			t.Fatalf("tree %d never formed: no node has children in it", idx)
		}
	}
	q := ufl.MustParse(`
query multitree timeout 10s
opgraph g disseminate broadcast {
    scan = Scan(table='nothing')
}
`)
	if err := nodes[3].Submit(q, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(15 * time.Second)
	executed := 0
	for _, n := range nodes {
		executed += int(n.Stats().GraphsExecuted)
	}
	if executed != len(nodes) {
		t.Fatalf("opgraph executed on %d of %d nodes under 3 trees, want exactly one execution each", executed, len(nodes))
	}
}

// TestTreeRepairAfterInteriorKill: killing an interior tree node leaves
// a stale child entry in its parent's table; the next broadcast's
// forward nack must drop that child and re-route, and the victim's
// orphans must have re-attached — so every LIVE node still executes the
// opgraph and the repair counters show the nack path did the work.
func TestTreeRepairAfterInteriorKill(t *testing.T) {
	env, nodes := cluster(t, 64, 10)
	rootID := overlay.HashName(treeNS, treeRootKey)
	victim := -1
	for i := 2; i < len(nodes); i++ {
		if nodes[i].TreeChildren() > 0 && !nodes[i].dht.Owns(rootID) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no interior non-root node to kill")
	}
	env.Fail(nodes[victim].Addr())
	// One refresh round: the orphans have re-announced through live
	// routes, but the dead child's entry (TTL 3×refresh) still sits in
	// its parent's table, so the broadcast below must hit the
	// nack-repair path rather than finding a pre-cleaned tree.
	env.Run(nodes[0].cfg.TreeRefresh + time.Second)
	q := ufl.MustParse(`
query repair timeout 10s
opgraph g disseminate broadcast {
    scan = Scan(table='nothing')
}
`)
	if err := nodes[1].Submit(q, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(15 * time.Second)
	executed, repairs := 0, uint64(0)
	for i, n := range nodes {
		if i == victim {
			continue
		}
		st := n.Stats()
		executed += int(st.GraphsExecuted)
		repairs += st.TreeRepairs
	}
	if executed != len(nodes)-1 {
		t.Fatalf("opgraph executed on %d of %d live nodes after interior kill", executed, len(nodes)-1)
	}
	if repairs == 0 {
		t.Fatal("no tree repair recorded — the dead child was never nacked out")
	}
}

// TestRehashPutRetriesCounted pins the rehash path onto the shared
// backoff policy: a Put whose owner became unreachable must surface as
// a COUNTED retry in the same SendRetries ledger as the result path,
// never as a silent drop. Exact exhaustion is not assertable here by
// design — while the put backs off, the isolated node's router drops
// its unreachable peers and ownership collapses onto the node itself,
// so a later attempt legitimately succeeds locally (the ring staying
// available to its own partition is the §3.2 behavior, and the result-
// path test above pins the exact exhaustion arithmetic instead).
func TestRehashPutRetriesCounted(t *testing.T) {
	env, nodes := cluster(t, 66, 6)
	// Only node 2 holds source data, so only node 2 will rehash.
	nodes[2].PublishLocal("fw", tuple.New("fw").Set("src", tuple.String("alpha")), time.Hour)
	q := ufl.MustParse(`
query putretry timeout 30s
opgraph g disseminate broadcast {
    scan = Scan(table='fw')
    agg  = GroupBy(keys='src', aggs='count(*) as cnt', flushevery='5s')
    put  = Put(ns='putretry.partial', key='src')
    agg <- scan
    put <- agg
}
`)
	if err := nodes[0].Submit(q, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Dissemination (and admit acks) complete well inside a second;
	// then node 2 is cut off, so the put its first flush emits can only
	// nack.
	env.Run(time.Second)
	env.SetPartition([]vri.Addr{nodes[2].Addr()})
	env.Run(25 * time.Second)
	st := nodes[2].Stats()
	if st.SendRetries == 0 {
		t.Fatal("isolated rehasher recorded no put retries — the nack was dropped silently")
	}
	// The retried put must have landed somewhere (locally, once the
	// router's failover collapses ownership onto the isolated node) or
	// been counted as exhausted — never lost without a trace.
	if st.SendExhausted == 0 && nodes[2].DHT().LocalCount("putretry.partial") == 0 {
		t.Fatal("put neither delivered nor counted as exhausted")
	}
	for i, n := range nodes {
		if i == 2 {
			continue
		}
		if s := n.Stats(); s.SendRetries != 0 || s.SendExhausted != 0 {
			t.Fatalf("node %d without data retried puts: %+v", i, s)
		}
	}
}

// TestCompletenessFullAnswer: on a healthy ring every admitting node
// contributes, so Completeness reports exactly 1 once the query is
// done — including for queries riding a SHARED operator chain, whose
// per-query tallies must stay separate.
func TestCompletenessFullAnswer(t *testing.T) {
	env, nodes := cluster(t, 65, 5)
	// NewData-fed chains are the shareable kind (the bus + subtree
	// cache); two same-shape queries must attach to one chain per node.
	text := `
query %s timeout 15s
opgraph g disseminate broadcast {
    src = NewData(table='stream')
    agg = GroupBy(aggs='count(*) as cnt', flushevery='3s')
    out = Result()
    agg <- src
    out <- agg
}
`
	rs1, err := nodes[0].SubmitCollect(ufl.MustParse(fmt.Sprintf(text, "comp1")), "c")
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := nodes[0].SubmitCollect(ufl.MustParse(fmt.Sprintf(text, "comp2")), "c")
	if err != nil {
		t.Fatal(err)
	}
	env.Schedule(2*time.Second, func() {
		for _, n := range nodes {
			n.PublishLocal("stream", tuple.New("stream").Set("k", tuple.String("x")), time.Hour)
		}
	})
	env.Run(30 * time.Second)
	hits := uint64(0)
	for _, n := range nodes {
		hits += n.Stats().SubtreeHits
	}
	if hits == 0 {
		t.Fatal("same-shape queries did not share a chain — test no longer covers shared-subtree tallies")
	}
	for i, rs := range []*ResultSet{rs1, rs2} {
		if !rs.Done() {
			t.Fatalf("query %d not done", i+1)
		}
		c, ok := rs.Completeness()
		if !ok || c != 1.0 {
			t.Fatalf("query %d completeness = %v (ok=%v), want exactly 1.0", i+1, c, ok)
		}
	}
}
