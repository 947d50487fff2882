package exec

import (
	"pier/internal/expr"
	"pier/internal/tuple"
)

// Input is the generic access-method endpoint: external code (a DHT scan,
// a newData subscription, a file reader, a workload generator) injects
// batches by calling PushBatch, and they flow up the opgraph. It
// corresponds to the paper's access methods, which convert a source's
// native format into PIER tuples and inject them into the dataflow
// (§3.3.1). A source may also hold arrivals back and push them when a flush reaches
// the input (OnFlush; see the package doc for why that is safe).
type Input struct {
	Out
	opened bool
	tag    Tag
	// OnOpen, if set, runs when the first probe arrives — access methods
	// use it to register callbacks or start their source.
	OnOpen func(tag Tag)
	// OnFlush, if set, runs when a flush reaches the input — a source
	// holding arrivals pushes them here.
	OnFlush func(tag Tag)
}

// NewInput creates an access-method endpoint.
func NewInput() *Input { return &Input{} }

// Open records the probe and triggers the source. Re-opening with the
// same tag is a no-op: graphs with several roots (e.g. a Tee feeding two
// terminal operators) propagate one probe down shared subtrees more than
// once, and the access method must register its source exactly once.
func (i *Input) Open(tag Tag) {
	if i.opened && i.tag == tag {
		return
	}
	i.opened = true
	i.tag = tag
	if i.OnOpen != nil {
		i.OnOpen(tag)
	}
}

// PushBatch injects a shared read-only batch from the external source
// (the table bus and the catch-up scan hand decoded frames here) under
// the most recent probe tag: sources push with the tag they were opened
// with.
func (i *Input) PushBatch(_ Tag, b *tuple.Batch) {
	if i.opened {
		i.Emit(i.tag, b)
	}
}

// Flush runs OnFlush, so a source holding arrivals delivers them before
// the operators above emit.
func (i *Input) Flush(tag Tag) {
	if i.OnFlush != nil {
		i.OnFlush(tag)
	}
}

// Close marks the input closed.
func (i *Input) Close() { i.opened = false }

// Select filters tuples by a predicate. Tuples for which the predicate is
// malformed (missing field, type mismatch) are discarded, per §3.3.4.
//
// The predicate is compiled once (expr.CompilePred) into a vectorized
// loop over typed columns. The output is a selection view over the input
// batch: the shared input is never mutated.
type Select struct {
	Base
	Pred expr.Expr
	// Dropped counts tuples discarded as malformed (not merely filtered).
	Dropped Discarded

	// compiled is the vectorized predicate, built lazily on the first
	// batch (Pred must not change after execution starts).
	compiled expr.BatchPred
}

// NewSelect creates a selection with the given predicate.
func NewSelect(pred expr.Expr) *Select { return &Select{Pred: pred} }

// SetChild wires the child for control propagation.
func (s *Select) SetChild(c Op) { s.Adopt(s, c) }

// PushBatch applies the predicate to a whole batch, emitting a selection
// view of the passing rows. All-pass batches are forwarded unchanged and
// all-fail batches allocate nothing.
func (s *Select) PushBatch(tag Tag, b *tuple.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if s.compiled == nil {
		s.compiled = expr.CompilePred(s.Pred)
	}
	sc := getScratch()
	keep := sc.keep[:0]
	res := grow(sc.res, 2*n)[:n] // n spare: expr.BatchPred's scratch
	sc.res = res
	s.compiled(b, res)
	for i, r := range res {
		switch r {
		case expr.RowPass:
			keep = append(keep, int32(i))
		case expr.RowMalformed:
			s.Dropped.Inc()
		}
	}
	sc.keep = keep
	out := view(b, keep)
	sc.release()
	if out != nil {
		s.Emit(tag, out)
	}
}

// ProjectCol is one output column: an expression and its output name.
type ProjectCol struct {
	Name string
	E    expr.Expr
}

// Project evaluates expressions into a fresh tuple. A tuple for which any
// projection expression is malformed is discarded. A repeated output
// name is one column, at its first position, holding the last value
// written to it.
type Project struct {
	Base
	Cols    []ProjectCol
	Dropped Discarded

	names []string // output schema, built once
	slots []int    // per column: its position in names
}

// NewProject creates a projection.
func NewProject(cols ...ProjectCol) *Project { return &Project{Cols: cols} }

// SetChild wires the child for control propagation.
func (p *Project) SetChild(c Op) { p.Adopt(p, c) }

// PushBatch evaluates the projection over a whole batch into one fresh
// output batch under the input's table, reusing a scratch row view and
// value row across rows.
func (p *Project) PushBatch(tag Tag, b *tuple.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if p.names == nil {
		names := make([]string, len(p.Cols))
		for i, c := range p.Cols {
			names[i] = c.Name
		}
		p.names, p.slots = outSchema(names)
	}
	out := tuple.NewColumnarBatch(b.Table(), p.names, n)
	sc := getScratch()
	row := grow(sc.rowVals, len(p.names))
	sc.rowVals = row
	emitted := 0
rows:
	for i := 0; i < n; i++ {
		b.RowInto(i, &sc.row)
		for c := range p.Cols {
			v, ok := p.Cols[c].E.Eval(&sc.row)
			if !ok {
				p.Dropped.Inc()
				continue rows
			}
			row[p.slots[c]] = v
		}
		out.AppendRow(row)
		emitted++
	}
	sc.release()
	if emitted > 0 {
		p.Emit(tag, out)
	}
}

// Tee replicates its input to several parents. It is how one dataflow
// feeds both, say, a local result handler and a network put.
type Tee struct {
	In
	parents []Sink
}

// NewTee creates an empty tee; add outputs with AddParent.
func NewTee() *Tee { return &Tee{} }

// SetParent adds (not replaces) an output; Tee keeps them all.
func (t *Tee) SetParent(s Sink) { t.parents = append(t.parents, s) }

// AddParent is explicit spelling of SetParent for multi-output wiring.
func (t *Tee) AddParent(s Sink) { t.parents = append(t.parents, s) }

// SetChild wires the child for control propagation.
func (t *Tee) SetChild(c Op) { t.Adopt(t, c) }

// PushBatch replicates the SAME shared batch to every parent (read-only
// by contract, so no copies are needed).
func (t *Tee) PushBatch(tag Tag, b *tuple.Batch) {
	for _, p := range t.parents {
		p.PushBatch(tag, b)
	}
}

// Limit passes at most N tuples per probe.
type Limit struct {
	Base
	N     int
	count map[Tag]int
}

// NewLimit creates a limit operator.
func NewLimit(n int) *Limit { return &Limit{N: n, count: make(map[Tag]int)} }

// SetChild wires the child for control propagation.
func (l *Limit) SetChild(c Op) { l.Adopt(l, c) }

// PushBatch forwards a prefix of the batch up to the per-probe quota.
func (l *Limit) PushBatch(tag Tag, b *tuple.Batch) {
	rem := l.N - l.count[tag]
	if rem <= 0 {
		return
	}
	n := b.Len()
	if n <= rem {
		l.count[tag] += n
		l.Emit(tag, b)
		return
	}
	l.count[tag] += rem
	l.Emit(tag, b.Prefix(rem))
}

// Close drops counters.
func (l *Limit) Close() {
	l.count = make(map[Tag]int)
	l.In.Close()
}
