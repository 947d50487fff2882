package qp

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/overlay"
	"pier/internal/sqlfront"
	"pier/internal/tuple"
)

// End-to-end: the SQL frontend's naive plans must run correctly on a
// real cluster (§4.2).

func TestSQLEndToEndTopKAggregation(t *testing.T) {
	env, nodes := cluster(t, 81, 10)
	// Skewed firewall events: source s0 dominates.
	counts := map[string]int{"s0": 20, "s1": 10, "s2": 5, "s3": 2}
	i := 0
	for src, c := range counts {
		for j := 0; j < c; j++ {
			nodes[i%len(nodes)].PublishLocal("fw", tuple.New("fw").
				Set("src", tuple.String(src)), time.Hour)
			i++
		}
	}
	q, err := sqlfront.Run("sqltop",
		"SELECT src, COUNT(*) AS cnt FROM fw GROUP BY src ORDER BY cnt DESC LIMIT 2 TIMEOUT 20s",
		sqlfront.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results := runQuery(t, env, nodes, 0, q)
	if len(results) != 2 {
		t.Fatalf("top-2 returned %d rows: %v", len(results), results)
	}
	top, _ := results[0].Get("src")
	cnt, _ := results[0].Get("cnt")
	if top.String() != "s0" || cnt.String() != "20" {
		t.Errorf("rank 1 = %v/%v, want s0/20", top, cnt)
	}
	second, _ := results[1].Get("src")
	if second.String() != "s1" {
		t.Errorf("rank 2 = %v, want s1", second)
	}
}

func TestSQLEndToEndAvg(t *testing.T) {
	env, nodes := cluster(t, 82, 6)
	for i := 0; i < 12; i++ {
		nodes[i%len(nodes)].PublishLocal("lat", tuple.New("lat").
			Set("svc", tuple.String("api")).
			Set("ms", tuple.Int(int64(10*(i+1)))), time.Hour)
	}
	q, err := sqlfront.Run("sqlavg",
		"SELECT svc, AVG(ms) AS mean FROM lat GROUP BY svc TIMEOUT 20s",
		sqlfront.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results := runQuery(t, env, nodes, 1, q)
	if len(results) != 1 {
		t.Fatalf("avg returned %d rows", len(results))
	}
	mean, _ := results[0].Get("mean")
	f, ok := mean.AsFloat()
	if !ok || f != 65 { // avg(10..120 step 10) = 65
		t.Errorf("mean = %v, want 65", mean)
	}
}

func TestSQLEndToEndJoin(t *testing.T) {
	env, nodes := cluster(t, 83, 8)
	for i := 0; i < 4; i++ {
		nodes[i%len(nodes)].PublishLocal("emp", tuple.New("emp").
			Set("dept", tuple.Int(int64(i%2))).
			Set("name", tuple.String(fmt.Sprintf("e%d", i))), time.Hour)
	}
	for d := 0; d < 2; d++ {
		nodes[(d+5)%len(nodes)].PublishLocal("dept", tuple.New("dept").
			Set("id", tuple.Int(int64(d))).
			Set("title", tuple.String(fmt.Sprintf("dept-%d", d))), time.Hour)
	}
	q, err := sqlfront.Run("sqljoin",
		"SELECT * FROM emp, dept WHERE emp.dept = dept.id TIMEOUT 20s",
		sqlfront.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results := runQuery(t, env, nodes, 0, q)
	if len(results) != 4 {
		t.Fatalf("join returned %d rows, want 4", len(results))
	}
	for _, r := range results {
		d, ok1 := r.Get("emp.dept")
		id, ok2 := r.Get("dept.id")
		if !ok1 || !ok2 || !tuple.Equal(d, id) {
			t.Errorf("bad row %v", r)
		}
	}
}

func TestSQLEndToEndEqualityDissemination(t *testing.T) {
	env, nodes := cluster(t, 84, 8)
	for i := 0; i < 5; i++ {
		nodes[i%len(nodes)].Publish("files", []string{"name"},
			tuple.New("files").
				Set("name", tuple.String(fmt.Sprintf("f%d", i))).
				Set("size", tuple.Int(int64(100*i))), time.Hour, nil)
	}
	env.Run(5 * time.Second)
	q, err := sqlfront.Run("sqleq",
		"SELECT * FROM files WHERE name = 'f3' TIMEOUT 10s",
		sqlfront.Options{TableIndexes: map[string][]string{"files": {"name"}}})
	if err != nil {
		t.Fatal(err)
	}
	results := runQuery(t, env, nodes, 0, q)
	if len(results) != 1 {
		t.Fatalf("equality lookup returned %d rows", len(results))
	}
	executed := 0
	for _, n := range nodes {
		executed += int(n.Stats().GraphsExecuted)
	}
	if executed != 1 {
		t.Errorf("ran on %d nodes, want 1", executed)
	}
}

// TestSQLEndToEndDisjunctionOnIndexedColumn: a disjunction over the
// partitioning column has no single owner. It used to be routed to the
// owner of the key "x' OR name = 'y" (the WHERE text split at its first
// '=') and answered with whatever that one node held.
func TestSQLEndToEndDisjunctionOnIndexedColumn(t *testing.T) {
	env, nodes := cluster(t, 85, 8)
	ownerOf := func(name string) int {
		for i, n := range nodes {
			if n.DHT().Owns(overlay.HashName("files", "s"+name)) {
				return i
			}
		}
		t.Fatalf("nobody owns %q", name)
		return -1
	}
	// Two names stored at different nodes: no single node can answer.
	a, b := "f0", ""
	for i := 1; b == ""; i++ {
		if name := fmt.Sprintf("f%d", i); ownerOf(name) != ownerOf(a) {
			b = name
		}
	}
	for _, name := range []string{a, b, "other"} {
		nodes[1].Publish("files", []string{"name"},
			tuple.New("files").Set("name", tuple.String(name)), time.Hour, nil)
	}
	env.Run(5 * time.Second)
	q, err := sqlfront.Run("sqlor",
		fmt.Sprintf("SELECT name FROM files WHERE name = '%s' OR name = '%s' TIMEOUT 10s", a, b),
		sqlfront.Options{TableIndexes: map[string][]string{"files": {"name"}}})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, r := range runQuery(t, env, nodes, 0, q) {
		name, _ := r.Get("name")
		got[name.String()]++
	}
	if len(got) != 2 || got[a] != 1 || got[b] != 1 {
		t.Fatalf("disjunction returned %v, want %s and %s once each", got, a, b)
	}
}
