package qp

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/wire"
)

// frameQuery is a same-shape continuous aggregation over table.
func frameQuery(id, table string) *ufl.Query {
	return ufl.MustParse(fmt.Sprintf(`
query %s timeout 30s
opgraph g disseminate broadcast {
    src = NewData(table='%s')
    sel = Select(pred='sev > 2')
    agg = GroupBy(keys='src', aggs='count(*) as cnt; sum(sev) as total', flushevery='1s')
    out = Result()
    sel <- src
    agg <- sel
    out <- agg
}
`, id, table))
}

// frameRun is what one way of disseminating a set of queries produced.
type frameRun struct {
	builds, hits, shared []uint64 // per node, once every graph is accepted
	fanout, executed     []uint64 // per node, after teardown
	rows                 map[string][]string
	admitted             map[string]int
}

// runFrames submits plans at the first node of a four-node cluster, takes
// the entries its dissemination batch collected, and hands them to every
// node as the qmDisseminateBatch frames split cuts them into — all frames
// at one driver barrier, so every way of cutting accepts every graph at
// the same instant. Then each node publishes for a few windows and the
// queries run to teardown. cluster is passed in so runs can share one.
func runFrames(t *testing.T, env *sim.Env, nodes []*Node, plans []*ufl.Query, split func([]ufl.BatchEntry) [][]ufl.BatchEntry) frameRun {
	t.Helper()
	proxy := nodes[0]
	sets := make(map[string]*ResultSet, len(plans))
	for _, q := range plans {
		rs, err := proxy.SubmitCollect(q, "c")
		if err != nil {
			t.Fatal(err)
		}
		sets[q.ID] = rs
	}
	entries := proxy.pendingBatch
	proxy.pendingBatch = nil
	proxy.batchTimer.Cancel()
	proxy.batchTimer = nil
	if len(entries) != len(plans) {
		t.Fatalf("dissemination batch holds %d entries, want %d", len(entries), len(plans))
	}
	before := make([]NodeStats, len(nodes))
	for i, n := range nodes {
		before[i] = n.Stats()
	}
	for _, group := range split(entries) {
		msg := frame(qmDisseminateBatch, func(w *wire.Writer) { w.Bytes32(ufl.EncodeBatch(group)) })
		for _, n := range nodes {
			if !n.dispatchMessage(msg) {
				t.Fatal("a well-formed dissemination frame failed to decode")
			}
		}
	}
	run := frameRun{rows: map[string][]string{}, admitted: map[string]int{}}
	for i, n := range nodes {
		st := n.Stats()
		run.builds = append(run.builds, st.SubtreeBuilds-before[i].SubtreeBuilds)
		run.hits = append(run.hits, st.SubtreeHits-before[i].SubtreeHits)
		run.shared = append(run.shared, uint64(st.SharedSubtrees))
	}
	for tick := 0; tick < 12; tick++ {
		for i, n := range nodes {
			n.PublishLocal("fw", tuple.New("fw").
				Set("src", tuple.String(fmt.Sprintf("10.0.0.%d", (tick+i)%3))).
				Set("sev", tuple.Int(int64((tick*7+i)%6))), time.Hour)
		}
		env.Run(250 * time.Millisecond)
	}
	env.Run(40 * time.Second) // past every deadline and the done grace
	for i, n := range nodes {
		st := n.Stats()
		run.fanout = append(run.fanout, st.SharedExecFanout-before[i].SharedExecFanout)
		run.executed = append(run.executed, st.GraphsExecuted-before[i].GraphsExecuted)
		if st.LiveGraphs != 0 || st.SharedSubtrees != 0 {
			t.Fatalf("node %d after teardown: %+v", i, st)
		}
	}
	for id, rs := range sets {
		if !rs.Done() {
			t.Fatalf("query %s did not finish", id)
		}
		for _, r := range rs.Rows() {
			run.rows[id] = append(run.rows[id], r.String())
		}
		sort.Strings(run.rows[id])
		run.admitted[id] = rs.admitted
	}
	return run
}

// oneFrame and oneEntryFrames are the two ways of cutting a batch.
func oneFrame(e []ufl.BatchEntry) [][]ufl.BatchEntry { return [][]ufl.BatchEntry{e} }

func oneEntryFrames(e []ufl.BatchEntry) [][]ufl.BatchEntry {
	out := make([][]ufl.BatchEntry, len(e))
	for i := range e {
		out[i] = e[i : i+1]
	}
	return out
}

// TestFrameOfSameShapeGraphsBuildsOneChain: 40 same-shape queries in one
// frame build one shared chain per node and hit it 39 times, and their
// rows, demux deliveries and admits are those of the same queries in 40
// one-entry frames.
func TestFrameOfSameShapeGraphsBuildsOneChain(t *testing.T) {
	const q = 40
	plans := func(prefix string) []*ufl.Query {
		out := make([]*ufl.Query, q)
		for i := range out {
			out[i] = frameQuery(fmt.Sprintf("%s%d", prefix, i), "fw")
		}
		return out
	}
	env, nodes := cluster(t, 11, 4)
	batched := runFrames(t, env, nodes, plans("s"), oneFrame)
	env2, nodes2 := cluster(t, 11, 4)
	single := runFrames(t, env2, nodes2, plans("s"), oneEntryFrames)
	for i := range nodes {
		if batched.builds[i] != 1 || batched.hits[i] != q-1 || batched.shared[i] != 1 {
			t.Fatalf("node %d: %d builds, %d hits, %d shared chains from one frame, want 1, %d, 1",
				i, batched.builds[i], batched.hits[i], batched.shared[i], q-1)
		}
		if batched.executed[i] != q {
			t.Fatalf("node %d executed %d graphs, want %d", i, batched.executed[i], q)
		}
	}
	if len(batched.rows) != q || len(batched.rows["s0"]) == 0 {
		t.Fatalf("the queries returned too little: %v", batched.rows)
	}
	if !reflect.DeepEqual(batched, single) {
		t.Fatalf("one frame of %d:\n%+v\n%d one-entry frames:\n%+v", q, batched, q, single)
	}
}

// TestFrameSignsQueriesItsGraphMentions: two byte-identical graphs in one
// frame whose namespace or an argument starts with one entry's query id
// normalize differently under the two ids, so each query must attach to
// the chain its own SubtreeSignatures selects, and builds and hits must be
// those of two separate frames.
func TestFrameSignsQueriesItsGraphMentions(t *testing.T) {
	cases := map[string]func(*ufl.Opgraph){
		"argument names the first query":  func(g *ufl.Opgraph) { g.Op("agg").Args["out"] = "m0.agg" },
		"namespace names the first query": func(g *ufl.Opgraph) { g.Dissem.Namespace = "m0.partial" },
		"argument names the second query": func(g *ufl.Opgraph) { g.Op("agg").Args["out"] = "m1.agg" },
		"namespace names both queries":    func(g *ufl.Opgraph) { g.Dissem.Namespace = "m1"; g.Op("src").Args["only"] = "m0" },
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			base := frameQuery("x", "fw").Graphs[0]
			edit(&base)
			entries := make([]ufl.BatchEntry, 2)
			for i := range entries {
				entries[i] = ufl.BatchEntry{QueryID: fmt.Sprintf("m%d", i), Deadline: fuzzDeadline, Proxy: "proxy", Client: "c", Graph: base}
			}
			accept := func(frames [][]ufl.BatchEntry) (builds, hits uint64) {
				env, n := soloNode(t, 3)
				var decoded []ufl.BatchEntry
				for _, f := range frames {
					got, err := ufl.DecodeBatch(ufl.EncodeBatch(f))
					if err != nil {
						t.Fatal(err)
					}
					n.acceptBatch(got)
					decoded = append(decoded, got...)
				}
				for _, e := range decoded {
					rq := n.running[e.QueryID]
					if rq == nil || len(rq.graphs) != 1 {
						t.Fatalf("query %s not running", e.QueryID)
					}
					want := e.Graph.SubtreeSignatures(e.QueryID)["agg"]
					if got := rq.graphs[0].feed.sig; got != want {
						t.Fatalf("query %s attached to chain %x, its own signature selects %x", e.QueryID, got, want)
					}
				}
				if a, b := decoded[0], decoded[1]; a.Graph.SubtreeSignatures(a.QueryID)["agg"] == b.Graph.SubtreeSignatures(b.QueryID)["agg"] {
					t.Fatal("the two queries sign alike: the case mentions neither id")
				}
				st := n.Stats()
				env.Run(time.Minute)
				return st.SubtreeBuilds, st.SubtreeHits
			}
			b1, h1 := accept(oneFrame(entries))
			b2, h2 := accept(oneEntryFrames(entries))
			if b1 != b2 || h1 != h2 {
				t.Fatalf("one frame: %d builds, %d hits; two frames: %d builds, %d hits", b1, h1, b2, h2)
			}
		})
	}
}

// TestSharedDecodeSurvivesTeardown: no operator build writes into the
// graph a frame's entries share — after the frame's queries ran to
// teardown, every entry's graph still deep-equals a fresh decode. The
// frame repeats a shareable and a private graph covering every network
// operator.
func TestSharedDecodeSurvivesTeardown(t *testing.T) {
	plan := fuzzPlan()
	var entries []ufl.BatchEntry
	for i := 0; i < 6; i++ {
		entries = append(entries, ufl.BatchEntry{
			QueryID: fmt.Sprintf("t%d", i), Deadline: fuzzDeadline, Proxy: "proxy", Client: "c",
			Graph: plan.Graphs[i%2],
		})
	}
	body := ufl.EncodeBatch(entries)
	shared, err := ufl.DecodeBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	env, n := soloNode(t, 9)
	n.acceptBatch(shared)
	if st := n.Stats(); st.LiveGraphs != len(entries) || st.SubtreeHits != 2 {
		t.Fatalf("frame not accepted as expected: %+v", st)
	}
	for i := 0; i < 20; i++ {
		n.PublishLocal("fw", tuple.New("fw").Set("src", tuple.String("a")).Set("sev", tuple.Int(int64(i%9))), time.Hour)
		env.Run(500 * time.Millisecond)
	}
	env.Run(time.Minute)
	if st := n.Stats(); st.LiveGraphs != 0 {
		t.Fatalf("queries still live after their deadline: %+v", st)
	}
	fresh, err := ufl.DecodeBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, fresh) {
		t.Fatalf("the shared decode changed while its queries ran:\n%+v\nfresh:\n%+v", shared, fresh)
	}
}
