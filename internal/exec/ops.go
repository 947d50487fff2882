package exec

import (
	"pier/internal/expr"
	"pier/internal/tuple"
	"pier/internal/wire"
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
// The batch path compiles the predicate once (expr.CompilePred) into a
// vectorized loop over typed columns; batches outside the compilable
// subset — or row-backed batches — evaluate row-wise through a scratch
// view. Either way the output is a selection view over the input batch:
// the shared input is never mutated.
type Select struct {
	Base
	Pred expr.Expr
	// Dropped counts tuples discarded as malformed (not merely filtered).
	Dropped Discarded

	// compiled is the vectorized predicate, built lazily on the first
	// batch (Pred must not change after execution starts).
	compiled     expr.BatchPred
	compiledInit bool
	res          []int8
	keep         []int32
	scratch      tuple.Tuple
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
	if !s.compiledInit {
		s.compiledInit = true
		s.compiled = expr.CompilePred(s.Pred)
	}
	s.keep = s.keep[:0]
	if s.compiled != nil && b.Columnar() {
		if cap(s.res) < n {
			s.res = make([]int8, n)
		}
		res := s.res[:n]
		s.compiled(b, res)
		for i, r := range res {
			switch r {
			case expr.RowPass:
				s.keep = append(s.keep, int32(i))
			case expr.RowMalformed:
				s.Dropped.Inc()
			}
		}
	} else {
		for i := 0; i < n; i++ {
			b.RowInto(i, &s.scratch)
			v, ok := s.Pred.Eval(&s.scratch)
			if !ok {
				s.Dropped.Inc()
				continue
			}
			bv, ok := v.AsBool()
			if !ok {
				s.Dropped.Inc()
				continue
			}
			if bv {
				s.keep = append(s.keep, int32(i))
			}
		}
	}
	switch len(s.keep) {
	case 0:
	case n:
		s.Emit(tag, b)
	default:
		// The derived view retains its selection, so hand over a fresh
		// slice rather than the reused scratch.
		s.Emit(tag, b.SelectLogical(append([]int32(nil), s.keep...)))
	}
}

// ProjectCol is one output column: an expression and its output name.
type ProjectCol struct {
	Name string
	E    expr.Expr
}

// Project evaluates expressions into a fresh tuple. A tuple for which any
// projection expression is malformed is discarded.
type Project struct {
	Base
	Cols    []ProjectCol
	Dropped Discarded

	names   []string // output schema, built once
	rowVals []tuple.Value
	scratch tuple.Tuple
}

// NewProject creates a projection.
func NewProject(cols ...ProjectCol) *Project { return &Project{Cols: cols} }

// SetChild wires the child for control propagation.
func (p *Project) SetChild(c Op) { p.Adopt(p, c) }

// PushBatch evaluates the projection over a whole batch into one fresh
// columnar output batch (the projection's schema is uniform by
// construction), reusing a scratch row view and value row across rows.
func (p *Project) PushBatch(tag Tag, b *tuple.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if !b.Columnar() {
		// Row-backed batches may mix table names: each output row keeps
		// its input row's table.
		var outs []*tuple.Tuple
		for i := 0; i < n; i++ {
			t := b.Row(i)
			out := tuple.New(t.Table())
			ok := true
			for _, c := range p.Cols {
				v, vok := c.E.Eval(t)
				if !vok {
					p.Dropped.Inc()
					ok = false
					break
				}
				out.Set(c.Name, v)
			}
			if ok {
				outs = append(outs, out)
			}
		}
		if len(outs) > 0 {
			p.Emit(tag, tuple.FromTuples(outs))
		}
		return
	}
	if p.names == nil {
		p.names = make([]string, len(p.Cols))
		for i, c := range p.Cols {
			p.names[i] = c.Name
		}
	}
	out := tuple.NewColumnarBatch(b.Table(), p.names, n)
	if cap(p.rowVals) < len(p.Cols) {
		p.rowVals = make([]tuple.Value, len(p.Cols))
	}
	row := p.rowVals[:len(p.Cols)]
	emitted := 0
rows:
	for i := 0; i < n; i++ {
		b.RowInto(i, &p.scratch)
		for c := range p.Cols {
			v, ok := p.Cols[c].E.Eval(&p.scratch)
			if !ok {
				p.Dropped.Inc()
				continue rows
			}
			row[c] = v
		}
		out.AppendRow(row)
		emitted++
	}
	if emitted > 0 {
		p.Emit(tag, out)
	}
}

// Tee replicates its input to several parents (the inverse of Union). It
// is how one dataflow feeds both, say, a local result handler and a
// network put.
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

// Union merges several children into one output stream. No order
// guarantees — PIER uses no distributed sort-based algorithms (§2.1.3).
type Union struct {
	Out
	children []Op
}

// NewUnion creates an empty union; attach children with AddChild.
func NewUnion() *Union { return &Union{} }

// AddChild wires one more input.
func (u *Union) AddChild(c Op) { u.children = append(u.children, c); c.SetParent(u) }

// Open forwards the probe to every child.
func (u *Union) Open(tag Tag) {
	for _, c := range u.children {
		c.Open(tag)
	}
}

// PushBatch forwards any child's batch upstream.
func (u *Union) PushBatch(tag Tag, b *tuple.Batch) { u.Emit(tag, b) }

// Flush forwards to all children.
func (u *Union) Flush(tag Tag) {
	for _, c := range u.children {
		c.Flush(tag)
	}
}

// Close forwards to all children.
func (u *Union) Close() {
	for _, c := range u.children {
		c.Close()
	}
}

// DupElim suppresses duplicate tuples within a probe, keyed by the full
// encoded tuple (or by a chosen column subset).
type DupElim struct {
	Base
	// KeyCols, when non-empty, restricts the duplicate key to these
	// columns; otherwise the whole tuple is the key.
	KeyCols []string
	Dropped Discarded
	seen    map[Tag]map[string]struct{}

	keyBuf []byte
	keep   []int32
	enc    wire.Writer
}

// NewDupElim creates a duplicate-eliminator over whole tuples.
func NewDupElim(keyCols ...string) *DupElim {
	return &DupElim{KeyCols: keyCols, seen: make(map[Tag]map[string]struct{})}
}

// SetChild wires the child for control propagation.
func (d *DupElim) SetChild(c Op) { d.Adopt(d, c) }

// PushBatch suppresses duplicates across a whole batch, emitting a
// selection view of the first-seen rows. Keys are built into a reused
// scratch buffer; the map lookup converts without allocating, and the
// key string is only materialized when a new entry is inserted.
func (d *DupElim) PushBatch(tag Tag, b *tuple.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	set := d.seen[tag]
	if set == nil {
		set = make(map[string]struct{})
		d.seen[tag] = set
	}
	var colIdx []int
	if len(d.KeyCols) > 0 && b.Columnar() {
		colIdx = make([]int, len(d.KeyCols))
		for i, c := range d.KeyCols {
			ci, ok := b.ColIndex(c)
			if !ok {
				// Column absent from the uniform schema: every row is
				// malformed for this key.
				d.Dropped.Add(n)
				return
			}
			colIdx[i] = ci
		}
	}
	d.keep = d.keep[:0]
	for i := 0; i < n; i++ {
		var key []byte
		switch {
		case colIdx != nil:
			d.keyBuf = b.AppendRowKey(d.keyBuf[:0], i, colIdx)
			key = d.keyBuf
		case len(d.KeyCols) > 0:
			kb, ok := b.Row(i).AppendKey(d.keyBuf[:0], d.KeyCols)
			if !ok {
				d.Dropped.Inc()
				continue
			}
			d.keyBuf = kb
			key = d.keyBuf
		default:
			d.enc.Reset()
			b.EncodeRowTo(i, &d.enc)
			key = d.enc.Bytes()
		}
		if _, dup := set[string(key)]; dup {
			continue
		}
		set[string(key)] = struct{}{}
		d.keep = append(d.keep, int32(i))
	}
	switch len(d.keep) {
	case 0:
	case n:
		d.Emit(tag, b)
	default:
		d.Emit(tag, b.SelectLogical(append([]int32(nil), d.keep...)))
	}
}

// Close drops all state.
func (d *DupElim) Close() {
	d.seen = make(map[Tag]map[string]struct{})
	d.In.Close()
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
