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
	if final == nil || !strings.Contains(final.Args["aggs"], "sum(") {
		t.Errorf("final aggs = %q", final.Args["aggs"])
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
	p1 := q.Graphs[0].Op("agg").Args["aggs"]
	if !strings.Contains(p1, "sum(len)") || !strings.Contains(p1, "count(*)") {
		t.Errorf("avg partials = %q", p1)
	}
	proj := q.Graphs[1].Op("proj")
	if proj == nil || !strings.Contains(proj.Args["cols"], "/") {
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
	if q.Graphs[0].Op("agg").Args["keys"] != "" {
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
	if j.Args["leftkey"] != "id" || j.Args["rightkey"] != "id" {
		t.Errorf("join keys = %+v", j.Args)
	}
	res := jg.Op("res")
	if res == nil || !strings.Contains(res.Args["pred"], "r.v > 3") {
		t.Error("residual predicate lost")
	}
	// Both rehash phases must use the same namespace.
	if q.Graphs[0].Op("put").Args["ns"] != q.Graphs[1].Op("put").Args["ns"] {
		t.Error("rehash namespaces differ; join partitions will not co-locate")
	}
}

func TestCompileJoinReversedCondition(t *testing.T) {
	q, err := Run("q8", "SELECT * FROM r, s WHERE s.k = r.j", Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := q.Graphs[2].Op("j")
	if j.Args["leftkey"] != "j" || j.Args["rightkey"] != "k" {
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
		"SELECT v FROM t WHERE nosuchfn(v) = 1",          // unknown function
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

// TestCompiledPlansSignTheirQueryIDs: the SQL frontend names each query's
// rendezvous namespace after the query ("<id>.partial"), and a signature
// takes names as written, so the same SQL text compiled under two query
// ids yields graphs that sign apart — the partial phase through its Put
// tail, the final phase through its dissemination target and Scan —
// while compiling it twice under one id signs alike. Beneath the tail
// the partial phase reads and groups the same data for either query,
// and its subtree keys alike.
func TestCompiledPlansSignTheirQueryIDs(t *testing.T) {
	const sql = "SELECT src, COUNT(*) AS cnt FROM fwlogs GROUP BY src ORDER BY cnt DESC LIMIT 10 TIMEOUT 30s"
	compile := func(id, sql string) *ufl.Query {
		q, err := Run(id, sql, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	qa, qa2, qb := compile("storm-1", sql), compile("storm-1", sql), compile("storm-2", sql)
	if len(qa.Graphs) != len(qb.Graphs) || len(qa.Graphs) < 2 {
		t.Fatalf("plan shapes differ: %d vs %d graphs", len(qa.Graphs), len(qb.Graphs))
	}
	for i := range qa.Graphs {
		if qa.Graphs[i].Signature(qa.ID) != qa2.Graphs[i].Signature(qa2.ID) {
			t.Errorf("graph %d: one SQL text compiled twice under one id signs apart", i)
		}
		if qa.Graphs[i].Signature(qa.ID) == qb.Graphs[i].Signature(qb.ID) {
			t.Errorf("graph %d (%s vs %s): queries rendezvousing in different namespaces sign alike",
				i, qa.Graphs[i].ID, qb.Graphs[i].ID)
		}
	}
	// The partial phase's top is the op feeding its tail.
	top := func(g ufl.Opgraph) string {
		consumed := map[string]bool{}
		for _, e := range g.Edges {
			consumed[e.From] = true
		}
		for _, e := range g.Edges {
			if !consumed[e.To] {
				return e.From
			}
		}
		t.Fatalf("graph %s has no tail", g.ID)
		return ""
	}
	pa, pb := qa.Graphs[0], qb.Graphs[0]
	if pa.SubtreeKey(top(pa)) != pb.SubtreeKey(top(pb)) {
		t.Error("the partial phase beneath its tail keys apart for two query ids")
	}
	// A different query must not collide on the scan phase.
	qc := compile("storm-3", "SELECT dst, COUNT(*) AS cnt FROM pkts GROUP BY dst TIMEOUT 30s")
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
		got, err := expr.Parse(g.Op("where").Args["pred"])
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

// TestProjectedCallWithCommasPlans: a projected column that calls a
// two-argument function compiles to a Project every executor's argument
// parse accepts, one column per SELECT item named by its alias, whether
// or not a comma sits inside the call or a quoted string.
func TestProjectedCallWithCommasPlans(t *testing.T) {
	for sql, want := range map[string]string{
		"SELECT contains(name, 'x') AS c FROM t":                     "c",
		"SELECT contains(name, 'x,y') AS c, lower(name) AS l FROM t": "c l",
		"SELECT coalesce(a, b, 'q;r') AS v FROM t WHERE a = 1":       "v",
	} {
		q, err := Run("q", sql, Options{})
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		var got []string
		for _, g := range q.Graphs {
			ps, err := g.Params()
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			for _, p := range ps {
				if a, ok := p.Args.(*ufl.ProjectArgs); ok {
					for _, c := range a.Cols {
						got = append(got, c.Name)
					}
				}
			}
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%q projects %q, want %q", sql, got, want)
		}
	}
}
