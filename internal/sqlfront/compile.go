package sqlfront

import (
	"fmt"
	"strings"
	"time"

	"pier/internal/expr"
	"pier/internal/tuple"
	"pier/internal/ufl"
)

// Compile turns a parsed statement into a UFL query plan using the naive
// optimizer's rules (see package doc). queryID must be unique in flight.
func Compile(queryID string, st *Statement, opts Options) (*ufl.Query, error) {
	timeout := st.Timeout
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	q := &ufl.Query{ID: queryID, Timeout: timeout}
	// Every executor parses the WHERE text again in its Select, and would
	// refuse the graph; a predicate that does not parse (an unknown
	// function, say) is refused here instead, before anything is sent.
	var where expr.Expr
	if st.Where != "" {
		var err error
		if where, err = expr.Parse(st.Where); err != nil {
			return nil, fmt.Errorf("sql: WHERE: %w", err)
		}
	}

	switch {
	case len(st.From) == 2:
		if err := compileJoin(q, st, opts); err != nil {
			return nil, err
		}
	case len(st.From) == 1 && len(st.GroupBy) > 0:
		if err := compileAggregate(q, st, opts); err != nil {
			return nil, err
		}
	case len(st.From) == 1:
		if hasAggregates(st) {
			// Global aggregate (no GROUP BY): same two-phase shape with
			// an empty key set.
			if err := compileAggregate(q, st, opts); err != nil {
				return nil, err
			}
		} else if err := compileScan(q, st, where, opts); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sql: FROM supports one or two tables, got %d", len(st.From))
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// Run parses, compiles and returns the plan in one step.
func Run(queryID, sql string, opts Options) (*ufl.Query, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return Compile(queryID, st, opts)
}

func hasAggregates(st *Statement) bool {
	for _, it := range st.Select {
		if it.Agg != "" {
			return true
		}
	}
	return false
}

// equalityKey looks among the top-level AND conjuncts of the WHERE
// predicate for an equality between the table's declared partitioning
// column and a string or integer literal, in either operand order; the
// literal's KeyString is the DHT key such a tuple was published under.
// where is the WHERE text parsed with expr.Parse (nil for none) — the
// grammar the plan's Select parses the same text with — so what routes a
// query and what filters it cannot disagree. The other conjuncts only
// narrow the answer at the key's owner; OR, NOT, != and ranges have no
// single owner and broadcast.
func equalityKey(st *Statement, where expr.Expr, opts Options) (ns, key string, ok bool) {
	idx := opts.TableIndexes[st.From[0]]
	if len(idx) != 1 || where == nil {
		return "", "", false
	}
	key, ok = conjunctKey(where, idx[0])
	return st.From[0], key, ok
}

func conjunctKey(e expr.Expr, col string) (key string, ok bool) {
	switch e := e.(type) {
	case expr.And:
		if key, ok = conjunctKey(e.L, col); ok {
			return key, true
		}
		return conjunctKey(e.R, col)
	case expr.Cmp:
		if e.Op != expr.EQ {
			return "", false
		}
		for _, side := range [2][2]expr.Expr{{e.L, e.R}, {e.R, e.L}} {
			if c, isCol := side[0].(expr.Col); isCol && c.Name == col {
				if v, isLit := literal(side[1]); isLit {
					return v.KeyString(), true
				}
			}
		}
	}
	return "", false
}

// literal reports the string or integer constant e denotes; -7 parses as
// Neg(Const) and is folded.
func literal(e expr.Expr) (v tuple.Value, ok bool) {
	switch e := e.(type) {
	case expr.Const:
		v = e.Val
	case expr.Neg:
		if _, isConst := e.E.(expr.Const); isConst {
			v, _ = e.Eval(nil)
		}
	}
	return v, v.Kind() == tuple.KindString || v.Kind() == tuple.KindInt
}

// compileScan handles SELECT cols FROM t [WHERE ...] [ORDER BY/LIMIT].
func compileScan(q *ufl.Query, st *Statement, where expr.Expr, opts Options) error {
	g := ufl.Opgraph{ID: q.ID + ".scan"}
	if ns, key, ok := equalityKey(st, where, opts); ok {
		g.Dissem = ufl.Dissemination{Mode: ufl.DissemEquality, Namespace: ns, Key: key}
	} else {
		g.Dissem = ufl.Dissemination{Mode: ufl.DissemBroadcast}
	}
	g.Ops = append(g.Ops, ufl.OpSpec{ID: "scan", Kind: "Scan",
		Args: map[string]string{"table": st.From[0]}})
	prev := "scan"
	if st.Where != "" {
		g.Ops = append(g.Ops, ufl.OpSpec{ID: "where", Kind: "Select",
			Args: map[string]string{"pred": st.Where}})
		g.Edges = append(g.Edges, ufl.Edge{From: prev, To: "where"})
		prev = "where"
	}
	if !(len(st.Select) == 1 && st.Select[0].Expr == "*") {
		cols := make([]string, len(st.Select))
		for i, it := range st.Select {
			cols[i] = it.Expr + " as " + it.OutName()
		}
		g.Ops = append(g.Ops, ufl.OpSpec{ID: "proj", Kind: "Project",
			Args: map[string]string{"cols": strings.Join(cols, "; ")}})
		g.Edges = append(g.Edges, ufl.Edge{From: prev, To: "proj"})
		prev = "proj"
	}
	if st.Limit > 0 && st.OrderBy == "" {
		g.Ops = append(g.Ops, ufl.OpSpec{ID: "lim", Kind: "Limit",
			Args: map[string]string{"n": fmt.Sprint(st.Limit)}})
		g.Edges = append(g.Edges, ufl.Edge{From: prev, To: "lim"})
		prev = "lim"
	}
	g.Ops = append(g.Ops, ufl.OpSpec{ID: "out", Kind: "Result"})
	g.Edges = append(g.Edges, ufl.Edge{From: prev, To: "out"})
	q.Graphs = append(q.Graphs, g)

	// ORDER BY + LIMIT without aggregation: a proxy-local top-k over the
	// result stream would need a third graph; the naive optimizer
	// rejects it rather than producing wrong answers.
	if st.OrderBy != "" {
		return fmt.Errorf("sql: ORDER BY without GROUP BY is not supported by the naive optimizer")
	}
	return nil
}

// compileAggregate builds the two-phase aggregation plan: broadcast
// partials → one rendezvous → finalize (+ optional ORDER BY/LIMIT). The
// partials flush every quarter of the query timeout, at least every second.
func compileAggregate(q *ufl.Query, st *Statement, opts Options) error {
	partialNS := q.ID + ".partial"
	partialEvery := max(q.Timeout/4, time.Second)

	// Build the partial and final aggregate lists. AVG decomposes into
	// SUM + COUNT partials recombined by a final projection.
	var partialAggs, finalAggs []string
	var finalProj []string
	haveProj := false
	for _, it := range st.Select {
		name := it.OutName()
		switch it.Agg {
		case "":
			// Must be a group-by column; passes through both phases.
			finalProj = append(finalProj, it.Expr+" as "+name)
			continue
		case "count":
			p := "p_" + name
			partialAggs = append(partialAggs, fmt.Sprintf("count(%s) as %s", starOr(it.Expr), p))
			finalAggs = append(finalAggs, fmt.Sprintf("sum(%s) as %s", p, name))
		case "sum":
			p := "p_" + name
			partialAggs = append(partialAggs, fmt.Sprintf("sum(%s) as %s", it.Expr, p))
			finalAggs = append(finalAggs, fmt.Sprintf("sum(%s) as %s", p, name))
		case "min", "max":
			p := "p_" + name
			partialAggs = append(partialAggs, fmt.Sprintf("%s(%s) as %s", it.Agg, it.Expr, p))
			finalAggs = append(finalAggs, fmt.Sprintf("%s(%s) as %s", it.Agg, p, name))
		case "avg":
			ps, pc := "p_s_"+name, "p_c_"+name
			partialAggs = append(partialAggs,
				fmt.Sprintf("sum(%s) as %s", it.Expr, ps),
				fmt.Sprintf("count(*) as %s", pc))
			finalAggs = append(finalAggs,
				fmt.Sprintf("sum(%s) as f_s_%s", ps, name),
				fmt.Sprintf("sum(%s) as f_c_%s", pc, name))
			finalProj = append(finalProj, fmt.Sprintf("(f_s_%s * 1.0) / f_c_%s as %s", name, name, name))
			haveProj = true
			continue
		case "countdistinct":
			// Holistic: correct only single-phase; the naive optimizer
			// refuses rather than approximating (§3.3.4).
			return fmt.Errorf("sql: countdistinct is holistic; not supported by the two-phase plan")
		default:
			return fmt.Errorf("sql: unknown aggregate %q", it.Agg)
		}
		finalProj = append(finalProj, name+" as "+name)
	}

	keys := strings.Join(st.GroupBy, ",")

	// Phase 1: everywhere, aggregate locally and ship partials to one
	// rendezvous name.
	g1 := ufl.Opgraph{ID: q.ID + ".p1", Dissem: ufl.Dissemination{Mode: ufl.DissemBroadcast}}
	g1.Ops = append(g1.Ops, ufl.OpSpec{ID: "scan", Kind: "Scan",
		Args: map[string]string{"table": st.From[0]}})
	prev := "scan"
	if st.Where != "" {
		g1.Ops = append(g1.Ops, ufl.OpSpec{ID: "where", Kind: "Select",
			Args: map[string]string{"pred": st.Where}})
		g1.Edges = append(g1.Edges, ufl.Edge{From: prev, To: "where"})
		prev = "where"
	}
	g1.Ops = append(g1.Ops, ufl.OpSpec{ID: "agg", Kind: "GroupBy",
		Args: map[string]string{
			"keys": keys, "aggs": strings.Join(partialAggs, "; "),
			"flushevery": partialEvery.String(),
		}})
	g1.Edges = append(g1.Edges, ufl.Edge{From: prev, To: "agg"})
	g1.Ops = append(g1.Ops, ufl.OpSpec{ID: "ship", Kind: "Put",
		Args: map[string]string{"ns": partialNS, "fixedkey": "all"}})
	g1.Edges = append(g1.Edges, ufl.Edge{From: "agg", To: "ship"})
	q.Graphs = append(q.Graphs, g1)

	// Phase 2: at the rendezvous owner, finalize.
	g2 := ufl.Opgraph{ID: q.ID + ".p2",
		Dissem: ufl.Dissemination{Mode: ufl.DissemEquality, Namespace: partialNS, Key: "all"}}
	g2.Ops = append(g2.Ops, ufl.OpSpec{ID: "recv", Kind: "Scan",
		Args: map[string]string{"table": partialNS}})
	g2.Ops = append(g2.Ops, ufl.OpSpec{ID: "final", Kind: "GroupBy",
		Args: map[string]string{"keys": keys, "aggs": strings.Join(finalAggs, "; ")}})
	g2.Edges = append(g2.Edges, ufl.Edge{From: "recv", To: "final"})
	prev = "final"
	if haveProj {
		cols := append([]string(nil), finalProj...)
		g2.Ops = append(g2.Ops, ufl.OpSpec{ID: "proj", Kind: "Project",
			Args: map[string]string{"cols": strings.Join(cols, "; ")}})
		g2.Edges = append(g2.Edges, ufl.Edge{From: prev, To: "proj"})
		prev = "proj"
	}
	if st.OrderBy != "" {
		k := st.Limit
		if k <= 0 {
			k = 100
		}
		args := map[string]string{"k": fmt.Sprint(k), "col": st.OrderBy}
		if !st.Desc {
			args["asc"] = "true"
		}
		g2.Ops = append(g2.Ops, ufl.OpSpec{ID: "topk", Kind: "TopK", Args: args})
		g2.Edges = append(g2.Edges, ufl.Edge{From: prev, To: "topk"})
		prev = "topk"
	} else if st.Limit > 0 {
		g2.Ops = append(g2.Ops, ufl.OpSpec{ID: "lim", Kind: "Limit",
			Args: map[string]string{"n": fmt.Sprint(st.Limit)}})
		g2.Edges = append(g2.Edges, ufl.Edge{From: prev, To: "lim"})
		prev = "lim"
	}
	g2.Ops = append(g2.Ops, ufl.OpSpec{ID: "out", Kind: "Result"})
	g2.Edges = append(g2.Edges, ufl.Edge{From: prev, To: "out"})
	q.Graphs = append(q.Graphs, g2)
	return nil
}

func starOr(s string) string {
	if s == "" {
		return "*"
	}
	return s
}

// compileJoin handles FROM a, b WHERE a.x = b.y [AND residual].
func compileJoin(q *ufl.Query, st *Statement, opts Options) error {
	if len(st.GroupBy) > 0 || hasAggregates(st) {
		return fmt.Errorf("sql: join with aggregation is not supported by the naive optimizer")
	}
	a, b := st.From[0], st.From[1]
	leftKey, rightKey, residual, err := splitJoinPredicate(st.Where, a, b)
	if err != nil {
		return err
	}
	ns := q.ID + ".x"
	for i, table := range []string{a, b} {
		key := leftKey
		if i == 1 {
			key = rightKey
		}
		g := ufl.Opgraph{ID: fmt.Sprintf("%s.rehash%d", q.ID, i),
			Dissem: ufl.Dissemination{Mode: ufl.DissemBroadcast}}
		g.Ops = append(g.Ops,
			ufl.OpSpec{ID: "scan", Kind: "Scan", Args: map[string]string{"table": table}},
			ufl.OpSpec{ID: "put", Kind: "Put", Args: map[string]string{"ns": ns, "key": key}})
		g.Edges = append(g.Edges, ufl.Edge{From: "scan", To: "put"})
		q.Graphs = append(q.Graphs, g)
	}
	g := ufl.Opgraph{ID: q.ID + ".join", Dissem: ufl.Dissemination{Mode: ufl.DissemBroadcast}}
	g.Ops = append(g.Ops,
		ufl.OpSpec{ID: "l", Kind: "Scan", Args: map[string]string{"table": ns, "only": a}},
		ufl.OpSpec{ID: "r", Kind: "Scan", Args: map[string]string{"table": ns, "only": b}},
		ufl.OpSpec{ID: "j", Kind: "Join", Args: map[string]string{
			"leftkey": leftKey, "rightkey": rightKey, "out": a + "_" + b}})
	g.Edges = append(g.Edges,
		ufl.Edge{From: "l", To: "j", Slot: 0},
		ufl.Edge{From: "r", To: "j", Slot: 1})
	prev := "j"
	if residual != "" {
		g.Ops = append(g.Ops, ufl.OpSpec{ID: "res", Kind: "Select",
			Args: map[string]string{"pred": residual}})
		g.Edges = append(g.Edges, ufl.Edge{From: prev, To: "res"})
		prev = "res"
	}
	if !(len(st.Select) == 1 && st.Select[0].Expr == "*") {
		cols := make([]string, len(st.Select))
		for i, it := range st.Select {
			cols[i] = it.Expr + " as " + it.OutName()
		}
		g.Ops = append(g.Ops, ufl.OpSpec{ID: "proj", Kind: "Project",
			Args: map[string]string{"cols": strings.Join(cols, "; ")}})
		g.Edges = append(g.Edges, ufl.Edge{From: prev, To: "proj"})
		prev = "proj"
	}
	g.Ops = append(g.Ops, ufl.OpSpec{ID: "out", Kind: "Result"})
	g.Edges = append(g.Edges, ufl.Edge{From: prev, To: "out"})
	q.Graphs = append(q.Graphs, g)
	return nil
}

// splitJoinPredicate extracts the equijoin condition "a.x = b.y" from a
// WHERE clause of ANDed terms; remaining terms become the residual
// predicate (with table qualifiers preserved, matching the join's
// prefixed output columns).
func splitJoinPredicate(where, a, b string) (leftKey, rightKey, residual string, err error) {
	if where == "" {
		return "", "", "", fmt.Errorf("sql: two-table FROM needs an equijoin in WHERE")
	}
	terms := splitTopLevelAnd(where)
	var rest []string
	for _, term := range terms {
		if leftKey == "" {
			parts := strings.SplitN(term, "=", 2)
			if len(parts) == 2 {
				l := strings.TrimSpace(parts[0])
				r := strings.TrimSpace(parts[1])
				if strings.HasPrefix(l, a+".") && strings.HasPrefix(r, b+".") {
					leftKey = strings.TrimPrefix(l, a+".")
					rightKey = strings.TrimPrefix(r, b+".")
					continue
				}
				if strings.HasPrefix(l, b+".") && strings.HasPrefix(r, a+".") {
					leftKey = strings.TrimPrefix(r, a+".")
					rightKey = strings.TrimPrefix(l, b+".")
					continue
				}
			}
		}
		rest = append(rest, term)
	}
	if leftKey == "" {
		return "", "", "", fmt.Errorf("sql: no equijoin condition %s.col = %s.col found in WHERE", a, b)
	}
	return leftKey, rightKey, strings.Join(rest, " AND "), nil
}

// splitTopLevelAnd splits on AND at parenthesis depth 0 outside quotes.
func splitTopLevelAnd(src string) []string {
	var parts []string
	depth := 0
	inQuote := false
	start := 0
	upper := strings.ToUpper(src)
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '\'':
			inQuote = !inQuote
		case '(':
			if !inQuote {
				depth++
			}
		case ')':
			if !inQuote {
				depth--
			}
		}
		if !inQuote && depth == 0 && i+5 <= len(src) && upper[i:i+5] == " AND " {
			parts = append(parts, strings.TrimSpace(src[start:i]))
			start = i + 5
			i += 4
		}
	}
	parts = append(parts, strings.TrimSpace(src[start:]))
	return parts
}
