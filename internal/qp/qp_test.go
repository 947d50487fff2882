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

// cluster builds an n-node PIER deployment in the simulator and lets the
// overlay and distribution tree converge.
func cluster(t *testing.T, seed int64, n int) (*sim.Env, []*Node) {
	t.Helper()
	env := sim.NewEnv(sim.Options{Seed: seed})
	sims := env.SpawnN("node", n)
	nodes := make([]*Node, n)
	for i, s := range sims {
		nodes[i] = NewNode(s, Config{})
		if err := nodes[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		nodes[i].Join(nodes[0].Addr(), nil)
		env.Run(2 * time.Second)
	}
	// Ring stabilization plus at least two tree-refresh rounds.
	env.Run(time.Duration(n)*2*time.Second + 15*time.Second)
	return env, nodes
}

// runQuery submits q at nodes[proxy], runs the simulation until the
// query completes, and returns the collected results.
func runQuery(t *testing.T, env *sim.Env, nodes []*Node, proxy int, q *ufl.Query) []*tuple.Tuple {
	t.Helper()
	var results []*tuple.Tuple
	done := false
	err := nodes[proxy].Submit(q, "test-client",
		func(tp *tuple.Tuple) { results = append(results, tp) },
		func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	env.Run(q.Timeout + 10*time.Second)
	if !done {
		t.Fatal("query did not complete")
	}
	return results
}

func TestDistributionTreeCoversAllNodes(t *testing.T) {
	env, nodes := cluster(t, 31, 12)
	_ = env
	// Every node except the tree root must appear in somebody's child
	// table (its first hop toward the root recorded it, §3.3.3).
	inTree := map[string]bool{}
	for _, n := range nodes {
		for addr := range n.trees.trees[0].children {
			inTree[string(addr)] = true
		}
	}
	rootID := overlay.HashName(treeNS, treeRootKey)
	missing := 0
	for _, n := range nodes {
		if !inTree[string(n.Addr())] && !n.dht.Owns(rootID) {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d nodes are in nobody's child table", missing)
	}
}

func TestBroadcastReachesEveryNode(t *testing.T) {
	env, nodes := cluster(t, 32, 10)
	q := ufl.MustParse(`
query reach timeout 10s
opgraph g disseminate broadcast {
    scan = Scan(table='nothing')
    out  = Result()
    out <- scan
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
		t.Fatalf("opgraph executed on %d of %d nodes", executed, len(nodes))
	}
}

func TestBroadcastScanCollectsInSituData(t *testing.T) {
	env, nodes := cluster(t, 33, 8)
	// Each node holds local log tuples, queried in place (§2.1.2).
	for i, n := range nodes {
		for j := 0; j < 3; j++ {
			n.PublishLocal("logs", tuple.New("logs").
				Set("node", tuple.Int(int64(i))).
				Set("line", tuple.Int(int64(j))), time.Hour)
		}
	}
	q := ufl.MustParse(`
query collect timeout 8s
opgraph g disseminate broadcast {
    scan = Scan(table='logs')
    out  = Result()
    out <- scan
}
`)
	results := runQuery(t, env, nodes, 0, q)
	if len(results) != 8*3 {
		t.Fatalf("collected %d tuples, want 24", len(results))
	}
}

func TestDistributedSelection(t *testing.T) {
	env, nodes := cluster(t, 34, 6)
	for i, n := range nodes {
		n.PublishLocal("readings", tuple.New("readings").
			Set("v", tuple.Int(int64(i*10))), time.Hour)
	}
	q := ufl.MustParse(`
query sel timeout 8s
opgraph g disseminate broadcast {
    scan = Scan(table='readings')
    sel  = Select(pred='v >= 30')
    out  = Result()
    sel <- scan
    out <- sel
}
`)
	results := runQuery(t, env, nodes, 2, q)
	if len(results) != 3 { // v = 30, 40, 50
		t.Fatalf("selected %d tuples, want 3: %v", len(results), results)
	}
}

func TestMalformedTuplesSilentlyDiscarded(t *testing.T) {
	env, nodes := cluster(t, 35, 4)
	nodes[0].PublishLocal("mixed", tuple.New("mixed").Set("v", tuple.Int(5)), time.Hour)
	nodes[1].PublishLocal("mixed", tuple.New("mixed").Set("other", tuple.String("junk")), time.Hour)
	nodes[2].PublishLocal("mixed", tuple.New("mixed").Set("v", tuple.String("wrong-type")), time.Hour)
	q := ufl.MustParse(`
query mal timeout 8s
opgraph g disseminate broadcast {
    scan = Scan(table='mixed')
    sel  = Select(pred='v > 0')
    out  = Result()
    sel <- scan
    out <- sel
}
`)
	results := runQuery(t, env, nodes, 0, q)
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1 (malformed discarded, not errored)", len(results))
	}
}

func TestPublishedTableQueriedByRehash(t *testing.T) {
	// Two-phase aggregation: broadcast graph computes per-node partials
	// and rehashes them into a rendezvous namespace; a local graph on
	// the proxy sums the partials (multi-phase aggregation, §2.1.1).
	env, nodes := cluster(t, 36, 8)
	events := map[string]int64{"alpha": 7, "beta": 5, "gamma": 3}
	i := 0
	for src, count := range events {
		for j := int64(0); j < count; j++ {
			nodes[i%len(nodes)].PublishLocal("fw", tuple.New("fw").
				Set("src", tuple.String(src)), time.Hour)
			i++
		}
	}
	q := ufl.MustParse(`
query twophase timeout 12s
opgraph g1 disseminate broadcast {
    scan = Scan(table='fw')
    agg  = GroupBy(keys='src', aggs='count(*) as cnt', flushevery='3s')
    put  = Put(ns='twophase.partial', key='src')
    agg <- scan
    put <- agg
}
opgraph g2 disseminate broadcast {
    recv = Scan(table='twophase.partial')
    agg2 = GroupBy(keys='src', aggs='sum(cnt) as cnt')
    out  = Result()
    agg2 <- recv
    out <- agg2
}
`)
	results := runQuery(t, env, nodes, 0, q)
	got := map[string]int64{}
	for _, r := range results {
		src, _ := r.Get("src")
		cnt, _ := r.Get("cnt")
		c, _ := cnt.AsInt()
		got[src.String()] += c
	}
	for src, want := range events {
		if got[src] != want {
			t.Errorf("%s: count = %d, want %d (all: %v)", src, got[src], want, got)
		}
	}
}

// The second phase above is broadcast, not proxy-local: the rehash
// partitions partials by src across the whole network, so the summing
// graph must run wherever partitions land; each owner emits final counts
// for its own groups and only the Result hop converges on the proxy.

func TestRehashPartitionsByValue(t *testing.T) {
	// Put(ns, key) must send equal keys to one owner: publish the same
	// key from every node, then check a single node holds them all.
	env, nodes := cluster(t, 37, 8)
	for _, n := range nodes {
		n.PublishLocal("src", tuple.New("src").Set("k", tuple.String("same")), time.Hour)
	}
	q := ufl.MustParse(`
query rehash timeout 30s
opgraph g disseminate broadcast {
    scan = Scan(table='src')
    put  = Put(ns='rehash.out', key='k')
    put <- scan
}
`)
	if err := nodes[0].Submit(q, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(10 * time.Second) // count while rehash soft state is alive
	holders := 0
	total := 0
	for _, n := range nodes {
		c := n.DHT().LocalCount("rehash.out")
		if c > 0 {
			holders++
		}
		total += c
	}
	if holders != 1 {
		t.Errorf("rehashed tuples on %d nodes, want exactly 1 (value partitioning)", holders)
	}
	if total != len(nodes) {
		t.Errorf("rehashed %d tuples, want %d", total, len(nodes))
	}
}

// TestEqualityDisseminationReachesOnlyOwner: an equality-disseminated
// graph runs only at the owner of its key, and over the query phase it
// costs fewer messages and bytes than the broadcast form of the same
// plan on an identical cluster, for the same one-row answer (§3.3.3).
func TestEqualityDisseminationReachesOnlyOwner(t *testing.T) {
	type outcome struct {
		rows, executed int
		msgs, bytes    uint64
	}
	run := func(dissem string) outcome {
		env, nodes := cluster(t, 38, 8)
		// Publish a keyed table; the equality query goes only to the
		// owner of key "target".
		nodes[1].Publish("items", []string{"name"},
			tuple.New("items").Set("name", tuple.String("target")).Set("v", tuple.Int(9)),
			time.Hour, nil)
		env.Run(5 * time.Second)
		q := ufl.MustParse(fmt.Sprintf(`
query eq timeout 8s
opgraph g disseminate %s {
    scan = Scan(table='items')
    sel  = Select(pred='name = ''target''')
    out  = Result()
    sel <- scan
    out <- sel
}
`, dissem))
		_, m0, b0 := env.Stats()
		results := runQuery(t, env, nodes, 0, q)
		_, m1, b1 := env.Stats()
		o := outcome{rows: len(results), msgs: m1 - m0, bytes: b1 - b0}
		for _, n := range nodes {
			o.executed += int(n.Stats().GraphsExecuted)
		}
		return o
	}
	eq := run(`equality 'items' 'starget'`)
	if eq.rows != 1 {
		t.Fatalf("equality query returned %d tuples, want 1", eq.rows)
	}
	if eq.executed != 1 {
		t.Errorf("opgraph ran on %d nodes, want 1 (only the key's owner)", eq.executed)
	}
	bc := run("broadcast")
	if bc.rows != 1 || bc.executed != 8 {
		t.Fatalf("broadcast query returned %d tuples from %d nodes, want 1 from 8", bc.rows, bc.executed)
	}
	if eq.msgs >= bc.msgs || eq.bytes >= bc.bytes {
		t.Errorf("equality cost %d msgs / %d bytes, broadcast %d / %d: equality must cost less",
			eq.msgs, eq.bytes, bc.msgs, bc.bytes)
	}
	t.Logf("query phase: equality %d msgs / %d bytes, broadcast %d / %d", eq.msgs, eq.bytes, bc.msgs, bc.bytes)
}

func TestHierarchicalAggregationCountsEverything(t *testing.T) {
	env, nodes := cluster(t, 39, 12)
	perNode := 4
	for _, n := range nodes {
		for j := 0; j < perNode; j++ {
			n.PublishLocal("fw", tuple.New("fw").
				Set("src", tuple.String(fmt.Sprintf("s%d", j%2))), time.Hour)
		}
	}
	q := ufl.MustParse(`
query hier timeout 20s
opgraph g disseminate broadcast {
    scan = Scan(table='fw')
    agg  = HierAgg(keys='src', aggs='count(*) as cnt', senddelay='6s', wait='1s')
    out  = Result()
    agg <- scan
    out <- agg
}
`)
	results := runQuery(t, env, nodes, 0, q)
	got := map[string]int64{}
	for _, r := range results {
		src, _ := r.Get("src")
		cnt, _ := r.Get("cnt")
		c, _ := cnt.AsInt()
		got[src.String()] += c
	}
	want := int64(len(nodes) * perNode / 2)
	if got["s0"] != want || got["s1"] != want {
		t.Fatalf("hierarchical counts = %v, want s0=s1=%d", got, want)
	}
}

func TestFetchMatchesDistributedIndexJoin(t *testing.T) {
	env, nodes := cluster(t, 40, 8)
	// Inner relation: published (hash-indexed) by id.
	for i := 0; i < 5; i++ {
		nodes[i%len(nodes)].Publish("users", []string{"id"},
			tuple.New("users").
				Set("id", tuple.Int(int64(i))).
				Set("name", tuple.String(fmt.Sprintf("user-%d", i))),
			time.Hour, nil)
	}
	env.Run(5 * time.Second)
	// Outer relation: local order tuples on one node.
	for _, oid := range []int64{1, 3, 3, 9} { // 9 has no match
		nodes[6].PublishLocal("orders", tuple.New("orders").
			Set("uid", tuple.Int(oid)), time.Hour)
	}
	q := ufl.MustParse(`
query fm timeout 10s
opgraph g disseminate broadcast {
    scan = Scan(table='orders')
    fm   = FetchMatches(ns='users', key='uid', out='ou')
    out  = Result()
    fm <- scan
    out <- fm
}
`)
	results := runQuery(t, env, nodes, 0, q)
	if len(results) != 3 {
		t.Fatalf("index join returned %d rows, want 3", len(results))
	}
	for _, r := range results {
		if _, ok := r.Get("orders.uid"); !ok {
			t.Errorf("missing outer column in %v", r)
		}
		if _, ok := r.Get("users.name"); !ok {
			t.Errorf("missing inner column in %v", r)
		}
	}
}

// malformedDrops sums NodeStats.MalformedDrops over the cluster.
func malformedDrops(nodes []*Node) (sum uint64) {
	for _, n := range nodes {
		sum += n.Stats().MalformedDrops
	}
	return sum
}

// TestFetchMatchesCountsMalformedInner: a hostile object stored under a
// probed index name is counted, once, and skipped; the well-formed object
// beside it still joins.
func TestFetchMatchesCountsMalformedInner(t *testing.T) {
	env, nodes := cluster(t, 40, 8)
	user := tuple.New("users").Set("id", tuple.Int(3)).Set("name", tuple.String("user-3"))
	nodes[1].Publish("users", []string{"id"}, user, time.Hour, nil)
	key, _ := user.KeyString("id")
	nodes[2].DHT().Put("users", key, "hostile", []byte{0xff, 0x01}, time.Hour, nil)
	env.Run(5 * time.Second)
	nodes[6].PublishLocal("orders", tuple.New("orders").Set("uid", tuple.Int(3)), time.Hour)
	before := malformedDrops(nodes)
	results := runQuery(t, env, nodes, 0, ufl.MustParse(`
query fmbad timeout 10s
opgraph g disseminate broadcast {
    scan = Scan(table='orders')
    fm   = FetchMatches(ns='users', key='uid')
    out  = Result()
    fm <- scan
    out <- fm
}
`))
	if got := malformedDrops(nodes) - before; len(results) != 1 || got != 1 {
		t.Fatalf("rows=%d MalformedDrops +%d, want 1 row and exactly 1 drop", len(results), got)
	}
}

func TestSymmetricHashJoinViaRehash(t *testing.T) {
	// The full distributed equijoin: both relations are rehashed on the
	// join key into rendezvous namespaces (partitioned parallelism,
	// §3.3.6), and a broadcast join graph matches co-located partitions.
	env, nodes := cluster(t, 41, 8)
	for i := 0; i < 4; i++ {
		nodes[i%len(nodes)].PublishLocal("r", tuple.New("r").
			Set("id", tuple.Int(int64(i))).Set("rv", tuple.Int(int64(100+i))), time.Hour)
		nodes[(i+3)%len(nodes)].PublishLocal("s", tuple.New("s").
			Set("id", tuple.Int(int64(i))).Set("sv", tuple.Int(int64(200+i))), time.Hour)
	}
	q := ufl.MustParse(`
query shj timeout 14s
opgraph gr disseminate broadcast {
    scan = Scan(table='r')
    put  = Put(ns='shj.x', key='id')
    put <- scan
}
opgraph gs disseminate broadcast {
    scan = Scan(table='s')
    put  = Put(ns='shj.x', key='id')
    put <- scan
}
opgraph gj disseminate broadcast {
    rin  = Scan(table='shj.x', only='r')
    sin  = Scan(table='shj.x', only='s')
    j    = Join(leftkey='id', rightkey='id', out='rs')
    out  = Result()
    j.left <- rin
    j.right <- sin
    out <- j
}
`)
	results := runQuery(t, env, nodes, 0, q)
	if len(results) != 4 {
		t.Fatalf("join produced %d rows, want 4", len(results))
	}
	for _, r := range results {
		rid, ok1 := r.Get("r.id")
		sid, ok2 := r.Get("s.id")
		if !ok1 || !ok2 || !tuple.Equal(rid, sid) {
			t.Errorf("bad join row %v", r)
		}
	}
}

func TestContinuousQueryEmitsPerWindow(t *testing.T) {
	env, nodes := cluster(t, 42, 4)
	q := ufl.MustParse(`
query cont timeout 20s
opgraph g disseminate broadcast {
    scan = Scan(table='stream')
    agg  = GroupBy(keys='k', aggs='count(*) as cnt', flushevery='4s')
    out  = Result()
    agg <- scan
    out <- agg
}
`)
	var results []*tuple.Tuple
	done := false
	if err := nodes[0].Submit(q, "", func(tp *tuple.Tuple) { results = append(results, tp) }, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	// Feed the stream while the query runs; tuples arrive in different
	// windows.
	for w := 0; w < 3; w++ {
		w := w
		env.Schedule(time.Duration(w)*5*time.Second+2*time.Second, func() {
			nodes[1].PublishLocal("stream", tuple.New("stream").Set("k", tuple.String("x")), time.Hour)
		})
	}
	env.Run(35 * time.Second)
	if !done {
		t.Fatal("continuous query never completed")
	}
	if len(results) < 2 {
		t.Fatalf("continuous query emitted %d windows of results, want >= 2", len(results))
	}
}

func TestQueryTimeoutStopsExecution(t *testing.T) {
	env, nodes := cluster(t, 43, 4)
	q := ufl.MustParse(`
query short timeout 5s
opgraph g disseminate broadcast {
    scan = Scan(table='late')
    out  = Result()
    out <- scan
}
`)
	var results []*tuple.Tuple
	if err := nodes[0].Submit(q, "", func(tp *tuple.Tuple) { results = append(results, tp) }, nil); err != nil {
		t.Fatal(err)
	}
	// Publish AFTER the timeout: must not be returned.
	env.Schedule(10*time.Second, func() {
		nodes[1].PublishLocal("late", tuple.New("late").Set("v", tuple.Int(1)), time.Hour)
	})
	env.Run(20 * time.Second)
	if len(results) != 0 {
		t.Fatalf("%d results arrived after the query timeout", len(results))
	}
}

func TestDuplicateQueryIDRejected(t *testing.T) {
	env, nodes := cluster(t, 45, 3)
	_ = env
	q := ufl.MustParse("query dup timeout 5s\nopgraph g disseminate local {\n  scan = Scan(table='t')\n  out = Result()\n  out <- scan\n}\n")
	if err := nodes[0].Submit(q, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Submit(q, "", nil, nil); err == nil {
		t.Fatal("duplicate in-flight query id should be rejected")
	}
}

func TestResultsFlowFromRemoteExecutorToProxy(t *testing.T) {
	env, nodes := cluster(t, 46, 6)
	// Data only on node 5; proxy on node 0.
	nodes[5].PublishLocal("remote", tuple.New("remote").Set("v", tuple.Int(42)), time.Hour)
	q := ufl.MustParse(`
query rem timeout 8s
opgraph g disseminate broadcast {
    scan = Scan(table='remote')
    out  = Result()
    out <- scan
}
`)
	results := runQuery(t, env, nodes, 0, q)
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	if v, _ := results[0].Get("v"); v.String() != "42" {
		t.Errorf("v = %v", v)
	}
}

// TestUnbuildableGraphRefused: a graph outside the operator table — an
// unknown kind or argument, a slot beyond its kind's inputs, fan-out from
// anything but a Tee, an edge out of a sink, an op that reaches no sink, a
// value that does not parse or lies out of bounds — is refused by every
// executor through the reject path: counted, acked to the proxy, nothing
// built, no row sent and no query state left behind, instead of being
// built wrong or skipped unseen. Submit refuses all but a bad value, which
// only executors parse; the rest reach them in a stranger's frame.
func TestUnbuildableGraphRefused(t *testing.T) {
	var (
		scan = op("scan", "Scan", "table", "e")
		nd   = op("nd", "NewData", "table", "e")
		sel  = op("sel", "Select", "pred", "a >= 0")
		out  = op("out", "Result")
	)
	through := func(o ufl.OpSpec) ufl.Opgraph { return chainGraph([]ufl.OpSpec{scan, o, out}, "scan>op", "op>out") }
	cycle := []ufl.OpSpec{nd, sel, out, op("x", "Select"), op("y", "Select")}
	cases := []struct {
		name      string
		g         ufl.Opgraph
		submitted bool // Check accepts it: the executors refuse its value
	}{
		{"eddy", through(op("op", "Eddy", "preds", "a >= 10; b = 0")), false},
		{"dupelim", through(op("op", "DupElim", "cols", "b")), false},
		{"union", through(op("op", "Union")), false},
		{"queue", through(op("op", "Queue", "batch", "4")), false},
		{"send", through(op("op", "Send", "ns", "x", "key", "a")), false},
		{"scan-alias", chainGraph([]ufl.OpSpec{op("scan", "Scan", "ns", "e"), out}, "scan>out"), false},
		{"slot-beyond-arity", chainGraph([]ufl.OpSpec{scan, sel, out}, "scan>sel.1", "sel>out"), false},
		{"slot-fed-twice", chainGraph([]ufl.OpSpec{scan, nd, sel, out}, "scan>sel", "nd>sel", "sel>out"), false},
		{"edge-into-scan", chainGraph([]ufl.OpSpec{scan, sel, out}, "scan>sel", "sel>scan", "sel>out"), false},
		{"fan-out-without-tee", chainGraph([]ufl.OpSpec{scan, sel, out, op("out2", "Result")}, "scan>sel", "sel>out", "sel>out2"), false},
		{"edge-out-of-sink", chainGraph([]ufl.OpSpec{scan, out, sel, op("out2", "Result")}, "scan>out", "out>sel", "sel>out2"), false},
		{"dangling-newdata", chainGraph([]ufl.OpSpec{scan, out, nd}, "scan>out"), false},
		{"tail-less", chainGraph([]ufl.OpSpec{scan, sel}, "scan>sel"), false},
		{"disconnected-cycle", chainGraph(cycle, "nd>sel", "sel>out", "x>y", "y>x"), false},
		{"newdata-feeding-cycle", chainGraph(append(cycle, op("nd2", "NewData", "table", "e")), "nd>sel", "sel>out", "x>y", "y>x", "nd2>x"), false},
		{"topk-k0", through(op("op", "TopK", "k", "0", "col", "a")), true},
		{"unknown-func", through(op("op", "Select", "pred", "nosuchfn(a) = 1")), true},
		{"missing-argument", through(op("op", "Limit")), true},
		{"bloom-past-bound", chainGraph([]ufl.OpSpec{scan, op("bb", "BloomBuild", "ns", "b", "key", "a", "expected", "2000000")}, "scan>bb"), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, nodes := cluster(t, 47, 4)
			for i := int64(0); i < 20; i++ {
				nodes[int(i)%len(nodes)].PublishLocal("e", tuple.New("e").
					Set("a", tuple.Int(i)).Set("b", tuple.Int(i%5)), time.Hour)
			}
			q := &ufl.Query{ID: "bad", Timeout: 8 * time.Second, Graphs: []ufl.Opgraph{tc.g}}
			rs, err := nodes[0].SubmitCollect(q, "c")
			switch {
			case tc.submitted && err != nil:
				t.Fatal(err)
			case !tc.submitted && err == nil:
				t.Fatal("Submit accepted a graph outside the operator table")
			case !tc.submitted:
				msg := graphFrame(q.ID, nodes[0].Addr(), env.Now().Add(q.Timeout), tc.g)
				for _, n := range nodes {
					n.handleMessage(vri.Addr("stranger"), msg)
				}
			}
			env.Run(2 * time.Second)
			for i, n := range nodes {
				if len(n.running) != 0 {
					t.Errorf("node %d holds %d running queries after refusing", i, len(n.running))
				}
			}
			env.Run(q.Timeout + 10*time.Second)
			for i, n := range nodes {
				if st := n.Stats(); st.GraphsRejected != 1 || st.GraphsExecuted != 0 || st.ResultsSent != 0 || st.LiveGraphs != 0 || st.MalformedDrops != 0 {
					t.Errorf("node %d: rejected=%d executed=%d results sent=%d live=%d malformed=%d, want 1 0 0 0 0",
						i, st.GraphsRejected, st.GraphsExecuted, st.ResultsSent, st.LiveGraphs, st.MalformedDrops)
				}
			}
			if acks := nodes[0].Stats().RejectAcks; acks != 4 {
				t.Errorf("the proxy heard %d reject acks, want 4", acks)
			}
			if tc.submitted && (!rs.Done() || rs.Len() != 0 || rs.Rejects() != 4) {
				t.Errorf("done=%v rows=%d rejects=%d, want true 0 4", rs.Done(), rs.Len(), rs.Rejects())
			}
		})
	}
}
