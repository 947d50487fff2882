package qp

import (
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
	"pier/internal/wire"
)

// cyclicGraph is a broadcast graph with a cycle behind a Tee: t reads src
// and a, a reads t, and out reads t. Only a Tee feeds two consumers and
// out is a root, so nothing but the cycle is wrong with it.
func cyclicGraph() ufl.Opgraph {
	return ufl.Opgraph{
		ID:     "g",
		Dissem: ufl.Dissemination{Mode: ufl.DissemBroadcast},
		Ops: []ufl.OpSpec{
			{ID: "src", Kind: "NewData", Args: map[string]string{"table": "fw"}},
			{ID: "t", Kind: "Tee", Args: map[string]string{}},
			{ID: "a", Kind: "Select", Args: map[string]string{"pred": "sev > 2"}},
			{ID: "out", Kind: "Result", Args: map[string]string{}},
		},
		Edges: []ufl.Edge{{From: "src", To: "t"}, {From: "a", To: "t"}, {From: "t", To: "a"}, {From: "t", To: "out"}},
	}
}

// graphFrame is the qmDisseminateBatch frame a stranger would send to run
// g as query id for proxy until deadline.
func graphFrame(id string, proxy vri.Addr, deadline time.Time, g ufl.Opgraph) []byte {
	entries := []ufl.BatchEntry{{QueryID: id, Deadline: deadline, Proxy: string(proxy), Client: "c", Graph: g}}
	return frame(qmDisseminateBatch, func(w *wire.Writer) { w.Bytes32(ufl.EncodeBatch(entries)) })
}

// TestCyclicGraphRefused: a graph with a cycle is refused by Submit, and
// every executor a stranger's frame reaches refuses and counts it and
// keeps running. An executor that built it would recurse until its
// goroutine's stack ran out, a fatal error no test can recover from; the
// stack cap makes that failure quick.
func TestCyclicGraphRefused(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	env, nodes := cluster(t, 71, 4)
	q := &ufl.Query{ID: "cyc", Timeout: 20 * time.Second, Graphs: []ufl.Opgraph{cyclicGraph()}}
	if err := nodes[0].Submit(q, "c", nil, nil); err == nil {
		t.Error("Submit accepted a cyclic graph")
	}
	msg := graphFrame("cyc", nodes[0].Addr(), env.Now().Add(20*time.Second), cyclicGraph())
	for _, n := range nodes {
		n.handleMessage(vri.Addr("stranger"), msg)
	}
	env.Run(2 * time.Second)
	for i, n := range nodes {
		if st := n.Stats(); st.GraphsRejected != 1 || st.LiveGraphs != 0 || st.MalformedDrops != 0 {
			t.Errorf("node %d: rejected=%d live=%d malformed=%d, want 1 0 0", i, st.GraphsRejected, st.LiveGraphs, st.MalformedDrops)
		}
	}
	// Every node still executes: a broadcast count hears from all four.
	for i, n := range nodes {
		n.PublishLocal("fw", tuple.New("fw").Set("sev", tuple.Int(int64(i))), time.Hour)
	}
	rows := runQuery(t, env, nodes, 1, ufl.MustParse(`
query after timeout 10s
opgraph g disseminate broadcast {
    src = Scan(table='fw')
    out = Result()
    out <- src
}
`))
	if len(rows) != len(nodes) {
		t.Fatalf("a valid query after the refusal returned %d rows, want %d", len(rows), len(nodes))
	}
}

// chainGraph is a broadcast graph of ops wired by edges, each written
// "from>to" (slot 0) or "from>to.slot".
func chainGraph(ops []ufl.OpSpec, edges ...string) ufl.Opgraph {
	g := ufl.Opgraph{ID: "g", Dissem: ufl.Dissemination{Mode: ufl.DissemBroadcast}, Ops: ops}
	for _, e := range edges {
		slot := 0
		if i := strings.Index(e, "."); i >= 0 {
			slot = int(e[i+1] - '0')
			e = e[:i]
		}
		from, to, _ := strings.Cut(e, ">")
		g.Edges = append(g.Edges, ufl.Edge{From: from, To: to, Slot: slot})
	}
	return g
}

// op is an OpSpec whose args are name, value pairs.
func op(id, kind string, kv ...string) ufl.OpSpec {
	args := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		args[kv[i]] = kv[i+1]
	}
	return ufl.OpSpec{ID: id, Kind: kind, Args: args}
}
