package sqlfront

import (
	"strings"
	"testing"
	"time"

	"pier/internal/expr"
	"pier/internal/ufl"
)

func TestParseBasicSelect(t *testing.T) {
	st, err := Parse("SELECT src, dst FROM packets WHERE len > 100 LIMIT 5 TIMEOUT 10s")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Select) != 2 || st.Select[0].Expr != "src" {
		t.Errorf("select = %+v", st.Select)
	}
	if st.From[0] != "packets" {
		t.Errorf("from = %v", st.From)
	}
	if st.Where != "len > 100" {
		t.Errorf("where = %q", st.Where)
	}
	if st.Limit != 5 || st.Timeout != 10*time.Second {
		t.Errorf("limit=%d timeout=%v", st.Limit, st.Timeout)
	}
}

func TestParseAggregates(t *testing.T) {
	st, err := Parse("SELECT src, COUNT(*) AS cnt, AVG(len) AS mean FROM fw GROUP BY src ORDER BY cnt DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if st.Select[1].Agg != "count" || st.Select[1].As != "cnt" {
		t.Errorf("agg item = %+v", st.Select[1])
	}
	if st.Select[2].Agg != "avg" || st.Select[2].Expr != "len" {
		t.Errorf("avg item = %+v", st.Select[2])
	}
	if len(st.GroupBy) != 1 || st.GroupBy[0] != "src" {
		t.Errorf("group by = %v", st.GroupBy)
	}
	if st.OrderBy != "cnt" || !st.Desc || st.Limit != 10 {
		t.Errorf("order=%q desc=%v limit=%d", st.OrderBy, st.Desc, st.Limit)
	}
}

func TestParseStringLiteralsAndQuotes(t *testing.T) {
	st, err := Parse("SELECT * FROM t WHERE name = 'it''s here'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Where, "'it''s here'") {
		t.Errorf("where = %q", st.Where)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT FROM t",
		"SELECT * WHERE x = 1",
		"SELECT * FROM t LIMIT banana",
		"SELECT * FROM t TIMEOUT never",
		"SELECT * FROM t GROUP src",
		"SELECT * FROM t garbage trailing",
		"SELECT COUNT( FROM t",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestCompileScanBroadcast(t *testing.T) {
	q, err := Run("q1", "SELECT src FROM packets WHERE len > 10", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Graphs) != 1 {
		t.Fatalf("graphs = %d", len(q.Graphs))
	}
	g := q.Graphs[0]
	if g.Dissem.Mode != ufl.DissemBroadcast {
		t.Errorf("mode = %q", g.Dissem.Mode)
	}
	kinds := kindsOf(g)
	for _, want := range []string{"Scan", "Select", "Project", "Result"} {
		if !kinds[want] {
			t.Errorf("missing %s in %v", want, kinds)
		}
	}
}

func TestCompileEqualityDissemination(t *testing.T) {
	opts := Options{TableIndexes: map[string][]string{"files": {"name"}}}
	q, err := Run("q2", "SELECT * FROM files WHERE name = 'song.mp3'", opts)
	if err != nil {
		t.Fatal(err)
	}
	d := q.Graphs[0].Dissem
	if d.Mode != ufl.DissemEquality || d.Namespace != "files" || d.Key != "ssong.mp3" {
		t.Errorf("dissem = %+v", d)
	}
}

func TestCompileEqualityRequiresIndexedColumn(t *testing.T) {
	// Equality on a non-partitioning column must fall back to broadcast.
	opts := Options{TableIndexes: map[string][]string{"files": {"name"}}}
	q, err := Run("q3", "SELECT * FROM files WHERE size = 5", opts)
	if err != nil {
		t.Fatal(err)
	}
	if q.Graphs[0].Dissem.Mode != ufl.DissemBroadcast {
		t.Errorf("mode = %q, want broadcast", q.Graphs[0].Dissem.Mode)
	}
}

func TestCompileTwoPhaseAggregation(t *testing.T) {
	q, err := Run("q4", "SELECT src, COUNT(*) AS cnt FROM fw GROUP BY src ORDER BY cnt DESC LIMIT 10", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Graphs) != 2 {
		t.Fatalf("graphs = %d, want 2 (partial + final)", len(q.Graphs))
	}
	p1, p2 := q.Graphs[0], q.Graphs[1]
	if p1.Dissem.Mode != ufl.DissemBroadcast {
		t.Errorf("phase1 mode = %q", p1.Dissem.Mode)
	}
	if p2.Dissem.Mode != ufl.DissemEquality {
		t.Errorf("phase2 mode = %q", p2.Dissem.Mode)
	}
	// The partial count must be re-aggregated with SUM, not COUNT.
	final := p2.Op("final")
	if final == nil || !strings.Contains(final.Arg("aggs", ""), "sum(") {
		t.Errorf("final aggs = %q", final.Arg("aggs", ""))
	}
	if p2.Op("topk") == nil {
		t.Error("missing TopK in final phase")
	}
}

func TestCompileAvgDecomposition(t *testing.T) {
	q, err := Run("q5", "SELECT src, AVG(len) AS mean FROM fw GROUP BY src", Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1 := q.Graphs[0].Op("agg").Arg("aggs", "")
	if !strings.Contains(p1, "sum(len)") || !strings.Contains(p1, "count(*)") {
		t.Errorf("avg partials = %q", p1)
	}
	proj := q.Graphs[1].Op("proj")
	if proj == nil || !strings.Contains(proj.Arg("cols", ""), "/") {
		t.Error("avg needs a final division projection")
	}
}

func TestCompileGlobalAggregate(t *testing.T) {
	q, err := Run("q6", "SELECT COUNT(*) AS n FROM logs", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Graphs) != 2 {
		t.Fatalf("graphs = %d", len(q.Graphs))
	}
	if q.Graphs[0].Op("agg").Arg("keys", "") != "" {
		t.Error("global aggregate should have empty keys")
	}
}

func TestCompileJoin(t *testing.T) {
	q, err := Run("q7", "SELECT * FROM r, s WHERE r.id = s.id AND r.v > 3", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Graphs) != 3 {
		t.Fatalf("graphs = %d, want 2 rehash + 1 join", len(q.Graphs))
	}
	jg := q.Graphs[2]
	j := jg.Op("j")
	if j.Arg("leftkey", "") != "id" || j.Arg("rightkey", "") != "id" {
		t.Errorf("join keys = %+v", j.Args)
	}
	res := jg.Op("res")
	if res == nil || !strings.Contains(res.Arg("pred", ""), "r.v > 3") {
		t.Error("residual predicate lost")
	}
	// Both rehash phases must use the same namespace.
	if q.Graphs[0].Op("put").Arg("ns", "") != q.Graphs[1].Op("put").Arg("ns", "") {
		t.Error("rehash namespaces differ; join partitions will not co-locate")
	}
}

func TestCompileJoinReversedCondition(t *testing.T) {
	q, err := Run("q8", "SELECT * FROM r, s WHERE s.k = r.j", Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := q.Graphs[2].Op("j")
	if j.Arg("leftkey", "") != "j" || j.Arg("rightkey", "") != "k" {
		t.Errorf("reversed join keys = %+v", j.Args)
	}
}

func TestCompileRejectsUnsupported(t *testing.T) {
	cases := []string{
		"SELECT * FROM a, b, c WHERE a.x = b.x",          // 3-way join
		"SELECT * FROM a, b WHERE a.x > b.x",             // non-equijoin
		"SELECT COUNT(*) AS n FROM a, b WHERE a.x = b.x", // join + agg
		"SELECT COUNTDISTINCT(v) AS n FROM t GROUP BY k", // holistic
		"SELECT v FROM t ORDER BY v DESC LIMIT 3",        // order w/o group
	}
	for _, sql := range cases {
		if _, err := Run("qx", sql, Options{}); err == nil {
			t.Errorf("Run(%q) should be rejected by the naive optimizer", sql)
		}
	}
}

func TestCompiledPlansValidate(t *testing.T) {
	sqls := []string{
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a = 1",
		"SELECT k, COUNT(*) AS c, MIN(v) AS lo, MAX(v) AS hi, SUM(v) AS s FROM t GROUP BY k",
		"SELECT k, AVG(v) AS m FROM t GROUP BY k ORDER BY m DESC LIMIT 3",
		"SELECT * FROM r, s WHERE r.id = s.id",
	}
	for i, sql := range sqls {
		q, err := Run(strings.Repeat("q", i+1), sql, Options{})
		if err != nil {
			t.Errorf("%q: %v", sql, err)
			continue
		}
		if err := q.Validate(); err != nil {
			t.Errorf("%q: invalid plan: %v", sql, err)
		}
	}
}

func kindsOf(g ufl.Opgraph) map[string]bool {
	m := map[string]bool{}
	for _, op := range g.Ops {
		m[op.Kind] = true
	}
	return m
}

// TestCompiledPlansShareStructuralSignatures: compiling the same SQL text
// under different query ids yields opgraphs with identical structural
// signatures — the property the query processor's multi-query sharing
// (shared newData subscriptions for identical access methods) keys on.
// The query id leaks into the plan twice (opgraph ids, rendezvous
// namespaces like "<id>.partial"); ufl.Opgraph.Signature normalizes both.
func TestCompiledPlansShareStructuralSignatures(t *testing.T) {
	const sql = "SELECT src, COUNT(*) AS cnt FROM fwlogs GROUP BY src ORDER BY cnt DESC LIMIT 10 TIMEOUT 30s"
	qa, err := Run("storm-1", sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := Run("storm-2", sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qa.Graphs) != len(qb.Graphs) || len(qa.Graphs) < 2 {
		t.Fatalf("plan shapes differ: %d vs %d graphs", len(qa.Graphs), len(qb.Graphs))
	}
	for i := range qa.Graphs {
		sa := qa.Graphs[i].Signature(qa.ID)
		sb := qb.Graphs[i].Signature(qb.ID)
		if sa != sb {
			t.Errorf("graph %d (%s vs %s): signatures differ: %x vs %x",
				i, qa.Graphs[i].ID, qb.Graphs[i].ID, sa, sb)
		}
	}
	// A different query must not collide on the scan phase.
	qc, err := Run("storm-3", "SELECT dst, COUNT(*) AS cnt FROM pkts GROUP BY dst TIMEOUT 30s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if qa.Graphs[0].Signature(qa.ID) == qc.Graphs[0].Signature(qc.ID) {
		t.Error("structurally different plans share a signature")
	}
}

// TestEqualityKeyShapes: the index is used exactly when a top-level AND
// conjunct equates the partitioning column with a string or integer
// literal; every other predicate has no single owner and broadcasts.
func TestEqualityKeyShapes(t *testing.T) {
	opts := Options{TableIndexes: map[string][]string{"kv": {"k"}}}
	cases := []struct {
		where string
		key   string // "" = broadcast
	}{
		{"k = 'x'", "sx"},
		{"'x' = k", "sx"},
		{"k = 'it''s'", "sit's"},
		{"k = 7", "i7"},
		{"k = -7", "i-7"},
		{"7 = k", "i7"},
		{"k = 'x' AND v > 3", "sx"},
		{"v > 3 AND k = 'x'", "sx"},
		{"v > 3 AND (k = 'x' AND w = 1)", "sx"},
		{"k = 'x' AND v = 'y'", "sx"},
		{"v = 'y' AND k = 'x' AND w != 2", "sx"},
		{"k = 'x' OR k = 'y'", ""},
		{"k = 'x' OR v = 1", ""},
		{"(k = 'x' OR k = 'y') AND v > 3", ""},
		{"v > 3 AND (k = 'x' OR k = 'y')", ""},
		{"NOT k = 'x'", ""},
		{"NOT (k = 'x' AND v = 1)", ""},
		{"k != 'x'", ""},
		{"k > 'x'", ""},
		{"k >= 3 AND k <= 5", ""},
		{"k = 1.5", ""},
		{"k = v", ""},
		{"k = -v", ""},
		{"k = 3 + 4", ""},
		{"v = 'x'", ""},
		{"lower(k) = 'x'", ""},
	}
	for _, tc := range cases {
		q, err := Run("q", "SELECT k, v FROM kv WHERE "+tc.where, opts)
		if err != nil {
			t.Errorf("WHERE %s: %v", tc.where, err)
			continue
		}
		g := q.Graphs[0]
		// However it routes, the plan filters on the whole predicate.
		got, err := expr.Parse(g.Op("where").Arg("pred", ""))
		if want, _ := expr.Parse(tc.where); err != nil || got.String() != want.String() {
			t.Errorf("WHERE %s: Select filters on %v (%v), want %v", tc.where, got, err, want)
		}
		d := g.Dissem
		if tc.key == "" {
			if d.Mode != ufl.DissemBroadcast {
				t.Errorf("WHERE %s: dissem = %+v, want broadcast", tc.where, d)
			}
			continue
		}
		if d.Mode != ufl.DissemEquality || d.Namespace != "kv" || d.Key != tc.key {
			t.Errorf("WHERE %s: dissem = %+v, want equality kv %q", tc.where, d, tc.key)
		}
	}
}
