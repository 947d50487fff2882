package exec

import (
	"sort"

	"pier/internal/expr"
	"pier/internal/tuple"
)

// The reference interpreter: a row-at-a-time evaluator of every
// diffGraphs graph and of the symmetric hash join, the oracle the batch
// operators are held to (TestBatchVsRowEquivalence,
// TestJoinBatchVsRowEquivalence, FuzzBatchVsRowEquivalence). It works
// over []*tuple.Tuple with Expr.Eval, Tuple.Get/AppendKey/Set and the
// scalar aggState add and result, and shares no code with the batch
// path: it never calls AddBatch, a fold kernel, CompilePred, CmpKernel,
// AppendRowKey or EmitBatch.

// refOp is one reference operator: push takes one row and hands what it
// emits to emit; flush ends a window, emitting what the operator holds.
type refOp interface {
	push(t *tuple.Tuple, emit func(*tuple.Tuple))
	flush(emit func(*tuple.Tuple))
}

// refChain is a graph of one-input operators, ops[0] fed first.
type refChain []refOp

// run feeds the windows through the chain, flushing after each, and
// returns every emitted row as a string, the way collect.strings does.
func (c refChain) run(windows [][]*tuple.Tuple) []string {
	out := []string{}
	var feed func(i int, t *tuple.Tuple)
	feed = func(i int, t *tuple.Tuple) {
		if i == len(c) {
			out = append(out, t.String())
			return
		}
		c[i].push(t, func(u *tuple.Tuple) { feed(i+1, u) })
	}
	for _, w := range windows {
		for _, t := range w {
			feed(0, t)
		}
		// A flush reaches the child before its parent emits.
		for i, op := range c {
			op.flush(func(u *tuple.Tuple) { feed(i+1, u) })
		}
	}
	return out
}

// refSelect keeps the rows whose predicate evaluates to true; a row it
// cannot evaluate, or that yields no boolean, is dropped.
type refSelect struct{ pred expr.Expr }

func (s *refSelect) push(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	v, ok := s.pred.Eval(t)
	if !ok {
		return
	}
	if b, ok := v.AsBool(); ok && b {
		emit(t)
	}
}

func (s *refSelect) flush(func(*tuple.Tuple)) {}

// refProject builds each output row by Set, so a repeated output name
// keeps its first position and takes the last value; a row any column
// cannot evaluate on is dropped.
type refProject struct{ cols []ProjectCol }

func (p *refProject) push(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	out := tuple.New(t.Table())
	for _, c := range p.cols {
		v, ok := c.E.Eval(t)
		if !ok {
			return
		}
		out.Set(c.Name, v)
	}
	emit(out)
}

func (p *refProject) flush(func(*tuple.Tuple)) {}

// refLimit passes the first n rows it ever sees; a flush does not reset
// it.
type refLimit struct{ n, seen int }

func (l *refLimit) push(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	if l.seen < l.n {
		l.seen++
		emit(t)
	}
}

func (l *refLimit) flush(func(*tuple.Tuple)) {}

// refGroupBy groups rows by the key bytes Tuple.AppendKey builds,
// dropping rows that lack a key column, folds each aggregate's input
// with aggState.add in row order, and at a flush emits one row per group
// in creation order, built by Set: the key columns, then one column per
// aggregate.
type refGroupBy struct {
	keys   []string
	aggs   []AggSpec
	index  map[string]int
	groups []refGroup
}

type refGroup struct {
	keys   []tuple.Value
	states []aggState
}

func newRefGroupBy(keys []string, aggs []AggSpec) *refGroupBy {
	return &refGroupBy{keys: keys, aggs: aggs, index: map[string]int{}}
}

func (g *refGroupBy) push(t *tuple.Tuple, _ func(*tuple.Tuple)) {
	kb, ok := t.AppendKey(nil, g.keys)
	if !ok {
		return
	}
	gi, ok := g.index[string(kb)]
	if !ok {
		gi = len(g.groups)
		g.index[string(kb)] = gi
		grp := refGroup{states: make([]aggState, len(g.aggs))}
		for _, k := range g.keys {
			v, _ := t.Get(k)
			grp.keys = append(grp.keys, v)
		}
		g.groups = append(g.groups, grp)
	}
	for ai, a := range g.aggs {
		st := &g.groups[gi].states[ai]
		if a.Col == "" {
			st.add(a.Kind, tuple.Null())
		} else if v, ok := t.Get(a.Col); ok {
			st.add(a.Kind, v)
		}
	}
}

func (g *refGroupBy) flush(emit func(*tuple.Tuple)) {
	for _, grp := range g.groups {
		out := tuple.New("groupby")
		for ki, k := range g.keys {
			out.Set(k, grp.keys[ki])
		}
		for ai, a := range g.aggs {
			out.Set(a.OutName(), grp.states[ai].result(a.Kind))
		}
		emit(out)
	}
	g.index, g.groups = map[string]int{}, nil
}

// refTopK ranks each row as it arrives, re-sorting the retained rows
// stably and trimming them to k, and emits them in rank order at a
// flush. Rows lacking the column are dropped.
type refTopK struct {
	k    int
	col  string
	asc  bool
	kept []refRanked
}

type refRanked struct {
	v tuple.Value
	t *tuple.Tuple
}

func (tk *refTopK) push(t *tuple.Tuple, _ func(*tuple.Tuple)) {
	v, ok := t.Get(tk.col)
	if !ok {
		return
	}
	tk.kept = append(tk.kept, refRanked{v, t})
	sort.SliceStable(tk.kept, func(i, j int) bool {
		c, ok := tuple.Compare(tk.kept[i].v, tk.kept[j].v)
		return ok && ((tk.asc && c < 0) || (!tk.asc && c > 0))
	})
	if len(tk.kept) > tk.k {
		tk.kept = tk.kept[:tk.k]
	}
}

func (tk *refTopK) flush(emit func(*tuple.Tuple)) {
	for _, r := range tk.kept {
		emit(r.t)
	}
	tk.kept = nil
}

// refJoin is the symmetric hash equijoin a row at a time: each arriving
// row joins every resident row of the other side under its key bytes,
// left columns first, then becomes resident itself.
type refJoin struct {
	keys  [2][]string
	sides [2]map[string][]*tuple.Tuple
}

func newRefJoin(left, right []string) *refJoin {
	return &refJoin{keys: [2][]string{left, right}, sides: [2]map[string][]*tuple.Tuple{{}, {}}}
}

// push inserts t on side (0 left, 1 right) and returns the join rows.
func (j *refJoin) push(side int, t *tuple.Tuple) (out []*tuple.Tuple) {
	kb, ok := t.AppendKey(nil, j.keys[side])
	if !ok {
		return nil
	}
	key := string(kb)
	for _, m := range j.sides[1-side][key] {
		if side == 0 {
			out = append(out, tuple.Join("join", t, m, true))
		} else {
			out = append(out, tuple.Join("join", m, t, true))
		}
	}
	j.sides[side][key] = append(j.sides[side][key], t)
	return out
}

// size is the resident row count of one side.
func (j *refJoin) size(side int) (n int) {
	for _, rows := range j.sides[side] {
		n += len(rows)
	}
	return n
}

// Emit is the reference form of GroupSet.EmitBatch: one fresh tuple per
// group, in creation order, built by Set — the key columns (a column a
// merged partial lacked is omitted), then one column per aggregate.
func (g *GroupSet) Emit(table string, fn func(*tuple.Tuple)) {
	nk, na := len(g.Keys), len(g.Aggs)
	for gi := range g.keys {
		out := tuple.New(table)
		for ki, kc := range g.Keys {
			if g.keyHas[gi*nk+ki] {
				out.Set(kc, g.keyVals[gi*nk+ki])
			}
		}
		for ai, a := range g.Aggs {
			out.Set(a.OutName(), g.states[gi*na+ai].result(a.Kind))
		}
		fn(out)
	}
}
