package qp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pier/internal/tuple"
	"pier/internal/ufl"
)

// lifecycleShapes are the opgraph shapes a chain has to host: each is
// run as two concurrent queries, so chains is what the pair costs a
// node — one signature-cached chain for the share-eligible shape, two
// private chains for every other. %s is the shape's own table. want is
// how many times EACH query returned each row at the commit before
// chains were unified.
var lifecycleShapes = []struct {
	name, body string
	chains     int
	want       map[string]int
}{
	{"share-eligible", `
    src = NewData(table='%s')
    agg = GroupBy(keys='k', aggs='count(*) as cnt', flushevery='3s')
    out = Result()
    agg <- src
    out <- agg`, 1,
		map[string]int{"groupby(k=k0, cnt=1)": 4, "groupby(k=k1, cnt=1)": 4}},
	{"scan-fed", `
    src = Scan(table='%s')
    sel = Select(pred='v >= 4', flushevery='3s')
    prj = Project(cols='k, v')
    out = Result()
    sel <- src
    prj <- sel
    out <- prj`, 2,
		map[string]int{
			"lc1(k=k0, v=4)": 1, "lc1(k=k1, v=5)": 1, "lc1(k=k0, v=6)": 1, "lc1(k=k1, v=7)": 1,
			"lc1(k=k0, v=8)": 1, "lc1(k=k1, v=9)": 1, "lc1(k=k0, v=10)": 1, "lc1(k=k1, v=11)": 1,
			"lc1(k=k0, v=12)": 1, "lc1(k=k1, v=13)": 1, "lc1(k=k0, v=14)": 1, "lc1(k=k1, v=15)": 1,
		}},
	{"tee-two-tails", `
    src = NewData(table='%s')
    tee = Tee()
    agg = GroupBy(keys='k', aggs='count(*) as cnt', flushevery='3s')
    sel = Select(pred='v >= 12')
    ra  = Result()
    rb  = Result()
    tee <- src
    agg <- tee
    sel <- tee
    ra <- agg
    rb <- sel`, 2,
		map[string]int{
			"groupby(k=k0, cnt=1)": 4, "groupby(k=k1, cnt=1)": 4,
			"lc2(k=k0, v=12)": 1, "lc2(k=k1, v=13)": 1, "lc2(k=k0, v=14)": 1, "lc2(k=k1, v=15)": 1,
		}},
	{"rowless-sink", `
    src = NewData(table='%s')
    sel = Select(pred='v >= 4', flushevery='3s')
    bb  = BloomBuild(ns='lc.bf', key='k')
    sel <- src
    bb <- sel`, 2, map[string]int{}},
	{"hieragg", `
    src = Scan(table='%s')
    agg = HierAgg(keys='k', aggs='count(*) as cnt', senddelay='5s', wait='250ms')
    out = Result()
    agg <- src
    out <- agg`, 2,
		map[string]int{"hieragg(k=k0, cnt=8)": 1, "hieragg(k=k1, cnt=8)": 1}},
}

// runLifecycle drives every shape through open, periodic flush and
// deadline teardown on one 8-node ring, checking the wheel and leak
// invariants per node, and returns each shape's rows in arrival order.
func runLifecycle(t *testing.T, workers int) map[string][]string {
	t.Helper()
	env, nodes := collectCluster(t, 77, workers)
	publish := func(table string, base int) {
		for i, n := range nodes {
			n.PublishLocal(table, tuple.New(table).
				Set("k", tuple.String(fmt.Sprintf("k%d", i%2))).
				Set("v", tuple.Int(int64(base+i))), time.Hour)
		}
	}
	got := make(map[string][]string)
	for si, sh := range lifecycleShapes {
		table := fmt.Sprintf("lc%d", si)
		before := make([]NodeStats, len(nodes))
		for i, n := range nodes {
			before[i] = n.Stats()
		}
		publish(table, 0) // stored before the queries: only catch-up scans see it
		sets := make(map[string]*ResultSet)
		for _, id := range []string{"a", "b"} {
			q := ufl.MustParse(fmt.Sprintf("query lc%d%s timeout 20s\nopgraph g disseminate broadcast {%s\n}\n",
				si, id, fmt.Sprintf(sh.body, table)))
			rs, err := nodes[1].SubmitCollect(q, "c")
			if err != nil {
				t.Fatal(err)
			}
			sets[id] = rs
		}
		env.Run(2 * time.Second)
		publish(table, 8) // arrives on the bus while the queries run
		env.Run(30 * time.Second)

		var rows []string
		for _, id := range []string{"a", "b"} {
			if !sets[id].Done() {
				t.Fatalf("%s: query %s did not complete", sh.name, id)
			}
			for _, r := range sets[id].Rows() {
				rows = append(rows, id+": "+r.String())
			}
		}
		got[sh.name] = rows
		for i, n := range nodes {
			st := n.Stats()
			fires := st.FlushTimerFires - before[i].FlushTimerFires
			flushes := st.GraphFlushes - before[i].GraphFlushes
			if strings.Contains(sh.body, "flushevery") && fires == 0 {
				t.Errorf("%s node %d: the wheel never ticked", sh.name, i)
			}
			if flushes != fires*uint64(sh.chains) {
				t.Errorf("%s node %d: %d flushes over %d wheel ticks, want %d per tick",
					sh.name, i, flushes, fires, sh.chains)
			}
			if leaked := st.LiveGraphs + st.Subscriptions + st.SharedSubscriptions + st.SharedSubtrees +
				st.SubtreeAttachments + st.WheelSlots + st.PendingSends + st.TrackedClients + st.HeldRows; leaked != 0 {
				t.Errorf("%s node %d leaked after the deadline: %+v", sh.name, i, st)
			}
		}
	}
	return got
}

// TestChainLifecycleAcrossGraphShapes: whatever its shape, an opgraph is
// hosted by chains with one lifecycle — same rows as before unification,
// one wheel flush per chain per tick, nothing left after the deadline —
// and the rows are identical under the sharded scheduler.
func TestChainLifecycleAcrossGraphShapes(t *testing.T) {
	seq := runLifecycle(t, 0)
	for _, sh := range lifecycleShapes {
		for _, id := range []string{"a: ", "b: "} {
			got := make(map[string]int)
			for _, row := range seq[sh.name] {
				if strings.HasPrefix(row, id) {
					got[strings.TrimPrefix(row, id)]++
				}
			}
			if !reflect.DeepEqual(got, sh.want) {
				t.Errorf("%s query %s rows:\n got %v\nwant %v", sh.name, id, got, sh.want)
			}
		}
	}
	if par := runLifecycle(t, 8); !reflect.DeepEqual(seq, par) {
		t.Errorf("workers=0 vs workers=8 diverged:\nseq: %v\npar: %v", seq, par)
	}
}
