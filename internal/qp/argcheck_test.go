package qp

import (
	"testing"
	"time"

	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
	"pier/internal/wire"
)

// TestMisspelledArgumentRefused: a Select whose predicate argument is
// misspelled (prd= for pred=) names an argument no operator reads. Built
// anyway, it would default its predicate to true and return every row;
// instead Submit refuses it, and every executor a stranger's frame
// reaches refuses and counts it, keeps running and sends no row.
func TestMisspelledArgumentRefused(t *testing.T) {
	env, nodes := cluster(t, 73, 4)
	for i, n := range nodes {
		for v := 0; v < 5; v++ {
			n.PublishLocal("fw", tuple.New("fw").Set("v", tuple.Int(int64(10*i+v))), time.Hour)
		}
	}
	g := ufl.Opgraph{
		ID:     "g",
		Dissem: ufl.Dissemination{Mode: ufl.DissemBroadcast},
		Ops: []ufl.OpSpec{
			{ID: "src", Kind: "Scan", Args: map[string]string{"table": "fw"}},
			{ID: "sel", Kind: "Select", Args: map[string]string{"prd": "v > 100"}},
			{ID: "out", Kind: "Result", Args: map[string]string{}},
		},
		Edges: []ufl.Edge{{From: "src", To: "sel"}, {From: "sel", To: "out"}},
	}
	q := &ufl.Query{ID: "typo", Timeout: 8 * time.Second, Graphs: []ufl.Opgraph{g}}
	if rs, err := nodes[0].SubmitCollect(q, "c"); err == nil {
		env.Run(q.Timeout + 10*time.Second)
		t.Errorf("Submit accepted Select(prd='v > 100'): %d rows came back, want an error", rs.Len())
	}

	before := make([]NodeStats, len(nodes))
	for i, n := range nodes {
		before[i] = n.Stats()
	}
	entries := []ufl.BatchEntry{{QueryID: "typo2", Deadline: env.Now().Add(8 * time.Second), Proxy: string(nodes[0].Addr()), Client: "c", Graph: g}}
	msg := frame(qmDisseminateBatch, func(w *wire.Writer) { w.Bytes32(ufl.EncodeBatch(entries)) })
	for _, n := range nodes {
		n.handleMessage(vri.Addr("stranger"), msg)
	}
	env.Run(20 * time.Second)
	for i, n := range nodes {
		st := n.Stats()
		if rej, sent := st.GraphsRejected-before[i].GraphsRejected, st.ResultsSent-before[i].ResultsSent; rej != 1 || sent != 0 || st.LiveGraphs != 0 {
			t.Errorf("node %d: rejected=%d results sent=%d live=%d, want 1 0 0", i, rej, sent, st.LiveGraphs)
		}
	}
}
