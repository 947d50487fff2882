package exec

import (
	"bytes"
	"fmt"
	"sort"

	"pier/internal/tuple"
	"pier/internal/wire"
)

// AggSpec declares one aggregate output column.
type AggSpec struct {
	Kind AggKind
	// Col is the input column to aggregate; empty means count(*) — every
	// tuple counts regardless of columns.
	Col string
	// As is the output column name; defaults to kind(col).
	As string
}

// OutName returns the output column name.
func (a AggSpec) OutName() string {
	if a.As != "" {
		return a.As
	}
	if a.Col == "" {
		return fmt.Sprintf("%s(*)", a.Kind)
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Col)
}

// GroupSet is the shared aggregation core: a keyed collection of
// aggregate states. The GroupBy operator wraps one GroupSet per probe;
// the query processor's hierarchical aggregation (§3.3.4) uses GroupSets
// directly, shipping encoded partials up the aggregation tree and merging
// them hop by hop.
type GroupSet struct {
	Keys []string
	Aggs []AggSpec

	groups map[string]*groupEntry
	order  []string // insertion order, for deterministic emission

	// keyBuf is the reused scratch the batch path builds group keys into;
	// the bytes must match KeyString exactly (partials merge across nodes
	// keyed by these strings).
	keyBuf []byte

	// Columnar-batch scratch, reused across AddBatch calls: the key arena
	// holds every row's group key back to back (keyOffs delimits them),
	// slots maps each row to its dense index in touched (the groups this
	// batch hits, first-touch order), and acc holds the typed accumulator
	// arrays the fold kernels run over.
	keyArena []byte
	keyOffs  []int32
	slots    []int32
	touched  []*groupEntry
	epoch    uint32
	acc      aggScratch
}

type groupEntry struct {
	key    *tuple.Tuple // the group's key columns
	states []AggState
	// epoch/slot stamp the entry into the current AddBatch's touched set
	// so slot resolution is one comparison per repeat row, no map probe.
	epoch uint32
	slot  int32
}

// aggScratch is the reusable dense accumulator storage behind the typed
// fold kernels. Arrays are resized per batch to the touched-group count
// and fully loaded from the per-group states before each kernel runs, so
// stale contents never leak between batches or specs.
type aggScratch struct {
	i  []int64
	f  []float64
	s  []string
	b1 []bool
	b2 []bool
}

func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growStr(buf []string, n int) []string {
	if cap(buf) < n {
		return make([]string, n)
	}
	return buf[:n]
}

func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// NewGroupSet creates an empty aggregation table.
func NewGroupSet(keys []string, aggs []AggSpec) *GroupSet {
	return &GroupSet{Keys: keys, Aggs: aggs, groups: make(map[string]*groupEntry)}
}

// Len returns the number of groups.
func (g *GroupSet) Len() int { return len(g.groups) }

// AddBatch folds a whole batch into the table, returning how many rows
// were discarded as malformed (missing key column); missing aggregate
// inputs simply do not contribute to that aggregate. Keys are built into
// a reused scratch buffer and the map is read without allocating; for
// columnar batches every column reference is resolved once up front. The
// row-backed branch is the semantics reference for the typed kernels.
func (g *GroupSet) AddBatch(b *tuple.Batch) (malformed int) {
	n := b.Len()
	if n == 0 {
		return 0
	}
	if !b.Columnar() {
		for i := 0; i < n; i++ {
			t := b.Row(i)
			kb, ok := t.AppendKey(g.keyBuf[:0], g.Keys)
			g.keyBuf = kb[:0]
			if !ok {
				malformed++
				continue
			}
			e := g.lookupOrCreate(kb, func() *tuple.Tuple {
				keyTuple := tuple.New(t.Table())
				for _, kc := range g.Keys {
					v, _ := t.Get(kc)
					keyTuple.Set(kc, v)
				}
				return keyTuple
			})
			for ai, a := range g.Aggs {
				if a.Col == "" {
					e.states[ai].Add(tuple.Null())
					continue
				}
				if v, ok := t.Get(a.Col); ok {
					e.states[ai].Add(v)
				}
			}
		}
		return malformed
	}
	keyIdx := make([]int, len(g.Keys))
	for i, kc := range g.Keys {
		ci, ok := b.ColIndex(kc)
		if !ok {
			// Key column absent from the uniform schema: every row is
			// malformed.
			return n
		}
		keyIdx[i] = ci
	}
	aggIdx := make([]int, len(g.Aggs))
	for i, a := range g.Aggs {
		aggIdx[i] = -1
		if a.Col == "" {
			continue
		}
		if ci, ok := b.ColIndex(a.Col); ok {
			aggIdx[i] = ci
		}
	}

	// Phase 1 — resolve a group slot for every row. Keys for the whole
	// batch are built into the reused arena first; a row whose key bytes
	// equal the previous row's reuses its entry outright, so runs of
	// equal keys cost one map probe. Key columns are resolved by index,
	// so no columnar row can be malformed past the schema check above.
	g.epoch++
	arena := g.keyArena[:0]
	offs := append(g.keyOffs[:0], 0)
	for i := 0; i < n; i++ {
		arena = b.AppendRowKey(arena, i, keyIdx)
		offs = append(offs, int32(len(arena)))
	}
	g.keyArena, g.keyOffs = arena, offs
	slots := g.slots[:0]
	touched := g.touched[:0]
	row := 0
	mkKey := func() *tuple.Tuple {
		keyTuple := tuple.New(b.Table())
		for ki, kc := range g.Keys {
			keyTuple.Set(kc, b.At(row, keyIdx[ki]))
		}
		return keyTuple
	}
	var prev *groupEntry
	for i := 0; i < n; i++ {
		kb := arena[offs[i]:offs[i+1]]
		e := prev
		if i == 0 || !bytes.Equal(kb, arena[offs[i-1]:offs[i]]) {
			row = i
			e = g.lookupOrCreate(kb, mkKey)
		}
		prev = e
		if e.epoch != g.epoch {
			e.epoch = g.epoch
			e.slot = int32(len(touched))
			touched = append(touched, e)
		}
		slots = append(slots, e.slot)
	}
	g.slots, g.touched = slots, touched

	// Phase 2 — fold each aggregate column with a typed kernel when its
	// kind is uniform and every touched state is kernel-compatible;
	// otherwise fall back to the per-row Add sequence over the resolved
	// slots (bit-identical by construction: same calls, same row order).
	for ai := range g.Aggs {
		a := g.Aggs[ai]
		ci := aggIdx[ai]
		if a.Col != "" && ci < 0 {
			continue // missing aggregate input contributes nothing
		}
		if g.foldColumn(b, a, ai, ci, slots, touched) {
			continue
		}
		for i := range slots {
			st := touched[slots[i]].states[ai]
			if a.Col == "" {
				st.Add(tuple.Null())
			} else {
				st.Add(b.At(i, ci))
			}
		}
	}
	return malformed
}

// foldColumn runs one aggregate spec over the batch with a typed kernel,
// reporting false when the column or the existing states are outside the
// kernels' reach (mixed kinds, holistic aggregates, exotic value kinds)
// so AddBatch falls back to the per-row path. Accumulators are loaded
// from the touched states, folded in row order, and stored back, which
// keeps results bit-identical to per-row AggState.Add — including
// sumState's int/float promotion and Compare's NaN/mixed-kind ordering.
func (g *GroupSet) foldColumn(b *tuple.Batch, a AggSpec, ai, ci int, slots []int32, touched []*groupEntry) bool {
	nt := len(touched)
	switch a.Kind {
	case AggCount:
		// countState ignores its input, so count(*) and count(col) over a
		// present column both reduce to one increment per row.
		cnt := growI64(g.acc.i, nt)
		g.acc.i = cnt
		for ti, e := range touched {
			cnt[ti] = e.states[ai].(*countState).n
		}
		b.FoldCountCol(slots, cnt)
		for ti, e := range touched {
			e.states[ai].(*countState).n = cnt[ti]
		}
		return true
	case AggSum:
		if a.Col == "" {
			return true // Add(Null) never contributes to a sum
		}
		k, ok := b.ColKind(ci)
		if !ok {
			return false
		}
		switch k {
		case tuple.KindInt:
			acc := growI64(g.acc.i, nt)
			any := growBool(g.acc.b1, nt)
			g.acc.i, g.acc.b1 = acc, any
			for ti, e := range touched {
				st := e.states[ai].(*sumState)
				acc[ti], any[ti] = st.i, st.any
			}
			if !b.FoldSumInt64Col(ci, slots, acc, any) {
				return false
			}
			for ti, e := range touched {
				st := e.states[ai].(*sumState)
				st.i, st.any = acc[ti], any[ti]
			}
			return true
		case tuple.KindFloat:
			accI := growI64(g.acc.i, nt)
			accF := growF64(g.acc.f, nt)
			isF := growBool(g.acc.b1, nt)
			any := growBool(g.acc.b2, nt)
			g.acc.i, g.acc.f, g.acc.b1, g.acc.b2 = accI, accF, isF, any
			for ti, e := range touched {
				st := e.states[ai].(*sumState)
				accI[ti], accF[ti], isF[ti], any[ti] = st.i, st.f, st.isFloat, st.any
			}
			if !b.FoldSumFloat64Col(ci, slots, accI, accF, isF, any) {
				return false
			}
			for ti, e := range touched {
				st := e.states[ai].(*sumState)
				st.f, st.isFloat, st.any = accF[ti], isF[ti], any[ti]
			}
			return true
		default:
			// Uniform non-numeric column: AsInt and AsFloat both fail, so
			// every Add would be a no-op.
			return true
		}
	case AggMin, AggMax:
		if a.Col == "" {
			return true // Add(Null) is skipped by min/max
		}
		k, ok := b.ColKind(ci)
		if !ok {
			return false
		}
		min := a.Kind == AggMin
		switch k {
		case tuple.KindNull:
			return true // a uniform null column never contributes
		case tuple.KindInt:
			// A slot whose incumbent is a different kind would compare
			// through Value.Compare's cross-kind rules; keep those on the
			// per-row path.
			for _, e := range touched {
				st := e.states[ai].(*minMaxState)
				if st.any && st.best.Kind() != tuple.KindInt {
					return false
				}
			}
			best := growI64(g.acc.i, nt)
			any := growBool(g.acc.b1, nt)
			g.acc.i, g.acc.b1 = best, any
			for ti, e := range touched {
				st := e.states[ai].(*minMaxState)
				any[ti] = st.any
				if st.any {
					best[ti], _ = st.best.AsInt()
				}
			}
			if !b.FoldMinMaxInt64Col(ci, min, slots, best, any) {
				return false
			}
			for ti, e := range touched {
				st := e.states[ai].(*minMaxState)
				if any[ti] {
					st.best, st.any = tuple.Int(best[ti]), true
				}
			}
			return true
		case tuple.KindFloat:
			for _, e := range touched {
				st := e.states[ai].(*minMaxState)
				if st.any && st.best.Kind() != tuple.KindFloat {
					return false
				}
			}
			best := growF64(g.acc.f, nt)
			any := growBool(g.acc.b1, nt)
			g.acc.f, g.acc.b1 = best, any
			for ti, e := range touched {
				st := e.states[ai].(*minMaxState)
				any[ti] = st.any
				if st.any {
					best[ti], _ = st.best.AsFloat()
				}
			}
			if !b.FoldMinMaxFloat64Col(ci, min, slots, best, any) {
				return false
			}
			for ti, e := range touched {
				st := e.states[ai].(*minMaxState)
				if any[ti] {
					st.best, st.any = tuple.Float(best[ti]), true
				}
			}
			return true
		case tuple.KindString:
			for _, e := range touched {
				st := e.states[ai].(*minMaxState)
				if st.any && st.best.Kind() != tuple.KindString {
					return false
				}
			}
			best := growStr(g.acc.s, nt)
			any := growBool(g.acc.b1, nt)
			g.acc.s, g.acc.b1 = best, any
			for ti, e := range touched {
				st := e.states[ai].(*minMaxState)
				any[ti] = st.any
				if st.any {
					best[ti], _ = st.best.AsString()
				}
			}
			if !b.FoldMinMaxStringCol(ci, min, slots, best, any) {
				return false
			}
			for ti, e := range touched {
				st := e.states[ai].(*minMaxState)
				if any[ti] {
					st.best, st.any = tuple.String(best[ti]), true
				}
			}
			return true
		default:
			return false // bool/time/bytes: comparable but rare — row path
		}
	case AggAvg:
		if a.Col == "" {
			return true // Add(Null) never contributes to an average
		}
		k, ok := b.ColKind(ci)
		if !ok {
			return false
		}
		if k != tuple.KindInt && k != tuple.KindFloat {
			return true // AsFloat fails on every row: no-op
		}
		sum := growF64(g.acc.f, nt)
		cnt := growI64(g.acc.i, nt)
		g.acc.f, g.acc.i = sum, cnt
		for ti, e := range touched {
			st := e.states[ai].(*avgState)
			sum[ti], cnt[ti] = st.sum, st.n
		}
		if !b.FoldAvgCol(ci, slots, sum, cnt) {
			return false
		}
		for ti, e := range touched {
			st := e.states[ai].(*avgState)
			st.sum, st.n = sum[ti], cnt[ti]
		}
		return true
	default:
		// Holistic aggregates (count distinct) keep per-row state.
		return false
	}
}

// lookupOrCreate finds the group for a scratch key, materializing the key
// string and the key tuple only on first sight.
func (g *GroupSet) lookupOrCreate(kb []byte, mkKey func() *tuple.Tuple) *groupEntry {
	if e := g.groups[string(kb)]; e != nil {
		return e
	}
	e := &groupEntry{key: mkKey(), states: make([]AggState, len(g.Aggs))}
	for i, a := range g.Aggs {
		e.states[i] = NewAggState(a.Kind)
	}
	key := string(kb)
	g.groups[key] = e
	g.order = append(g.order, key)
	return e
}

// Merge folds another GroupSet with the identical spec into this one.
func (g *GroupSet) Merge(o *GroupSet) {
	for _, key := range o.order {
		oe := o.groups[key]
		e := g.groups[key]
		if e == nil {
			g.groups[key] = oe
			g.order = append(g.order, key)
			continue
		}
		for i := range e.states {
			e.states[i].Merge(oe.states[i])
		}
	}
}

// Encode serializes the whole partial-aggregate table for shipping up an
// aggregation tree.
func (g *GroupSet) Encode() []byte {
	w := wire.NewWriter(64 + 32*len(g.groups))
	w.U32(uint32(len(g.order)))
	for _, key := range g.order {
		e := g.groups[key]
		w.String(key)
		e.key.EncodeTo(w)
		for _, s := range e.states {
			s.EncodeTo(w)
		}
	}
	return w.Bytes()
}

// MergeEncoded merges a serialized GroupSet (with the identical spec)
// into this one. Malformed input is reported, leaving this set intact for
// the groups already merged.
func (g *GroupSet) MergeEncoded(b []byte) error {
	r := wire.NewReader(b)
	n := int(r.U32())
	for i := 0; i < n; i++ {
		key := r.String()
		keyTuple := tuple.DecodeFrom(r)
		states := make([]AggState, len(g.Aggs))
		for j, a := range g.Aggs {
			states[j] = DecodeAggState(a.Kind, r)
		}
		if err := r.Err(); err != nil {
			return err
		}
		e := g.groups[key]
		if e == nil {
			g.groups[key] = &groupEntry{key: keyTuple, states: states}
			g.order = append(g.order, key)
			continue
		}
		for j := range e.states {
			e.states[j].Merge(states[j])
		}
	}
	return r.Err()
}

// Emit produces one result tuple per group: the key columns followed by
// one column per aggregate. Emission follows group-creation order.
func (g *GroupSet) Emit(table string, fn func(*tuple.Tuple)) {
	for _, key := range g.order {
		e := g.groups[key]
		out := tuple.New(table)
		for _, kc := range g.Keys {
			if v, ok := e.key.Get(kc); ok {
				out.Set(kc, v)
			}
		}
		for i, a := range g.Aggs {
			out.Set(a.OutName(), e.states[i].Result())
		}
		fn(out)
	}
}

// EmitBatch materializes the whole window as ONE fresh columnar batch —
// key columns followed by one column per aggregate, rows in
// group-creation order — carrying exactly the values Emit's per-group
// tuples would. The batch is handed downstream under the shared
// read-only ownership contract (see the package comment in op.go), so a
// single emission can be fanned to any number of consumers. Returns nil
// when there is nothing to emit or when an output name collides with a
// key column (Emit's set-overwrites semantics cannot be expressed as
// distinct columns; callers fall back to Emit).
func (g *GroupSet) EmitBatch(table string) *tuple.Batch {
	if len(g.order) == 0 {
		return nil
	}
	names := make([]string, 0, len(g.Keys)+len(g.Aggs))
	names = append(names, g.Keys...)
	for _, a := range g.Aggs {
		names = append(names, a.OutName())
	}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[i] == names[j] {
				return nil
			}
		}
	}
	out := tuple.NewColumnarBatch(table, names, len(g.order))
	row := make([]tuple.Value, len(names))
	for _, key := range g.order {
		e := g.groups[key]
		for ki, kc := range g.Keys {
			// Key columns are always present on key tuples built by
			// AddBatch; a partial decoded off the wire could lack one,
			// in which case the column holds an explicit null.
			v, _ := e.key.Get(kc)
			row[ki] = v
		}
		for i := range g.Aggs {
			row[len(g.Keys)+i] = e.states[i].Result()
		}
		out.AppendRow(row)
	}
	return out
}

// Reset clears all groups.
func (g *GroupSet) Reset() {
	g.groups = make(map[string]*groupEntry)
	g.order = nil
}

// GroupBy is the aggregation operator: it absorbs input tuples into
// per-probe GroupSets and emits one tuple per group when flushed. PIER
// has no EOF, so emission is driven by the query timeout or a periodic
// timer (§3.3.2); Flush emits and resets, giving per-window semantics for
// continuous queries.
type GroupBy struct {
	Base
	Keys []string
	Aggs []AggSpec
	// OutTable names emitted tuples; defaults to "groupby".
	OutTable string
	Dropped  Discarded

	sets map[Tag]*GroupSet
}

// NewGroupBy creates an aggregation operator.
func NewGroupBy(keys []string, aggs []AggSpec) *GroupBy {
	return &GroupBy{Keys: keys, Aggs: aggs, OutTable: "groupby", sets: make(map[Tag]*GroupSet)}
}

// SetChild wires the child for control propagation.
func (g *GroupBy) SetChild(c Op) { g.Adopt(g, c) }

// PushBatch absorbs a whole batch into the probe's group table.
func (g *GroupBy) PushBatch(tag Tag, b *tuple.Batch) {
	set := g.sets[tag]
	if set == nil {
		set = NewGroupSet(g.Keys, g.Aggs)
		g.sets[tag] = set
	}
	g.Dropped.Add(set.AddBatch(b))
}

// Flush emits the accumulated groups downstream and resets the window.
// The window leaves as one columnar batch so a Demux parent can fan a
// single emission to every attached query tail.
func (g *GroupBy) Flush(tag Tag) {
	g.In.Flush(tag)
	set := g.sets[tag]
	if set == nil {
		return
	}
	if b := set.EmitBatch(g.OutTable); b != nil {
		g.Emit(tag, b)
	} else {
		set.Emit(g.OutTable, func(t *tuple.Tuple) { g.Emit(tag, tuple.OfTuple(t)) })
	}
	delete(g.sets, tag)
}

// Close drops all state.
func (g *GroupBy) Close() {
	g.sets = make(map[Tag]*GroupSet)
	g.In.Close()
}

// TopK retains the K tuples with the greatest (or least) value of a
// column and emits them in order on Flush. It is the final step of
// queries like Figure 2's "top ten sources of firewall events".
type TopK struct {
	Base
	K   int
	Col string
	// Ascending selects the K smallest instead of the K largest.
	Ascending bool
	Dropped   Discarded

	heaps map[Tag][]topkItem
}

type topkItem struct {
	v tuple.Value
	t *tuple.Tuple
}

// NewTopK creates a top-k operator on col (descending by default).
func NewTopK(k int, col string) *TopK {
	return &TopK{K: k, Col: col, heaps: make(map[Tag][]topkItem)}
}

// SetChild wires the child for control propagation.
func (tk *TopK) SetChild(c Op) { tk.Adopt(tk, c) }

// PushBatch considers every row of a batch for the running top-K. Only
// the column resolution is vectorized: with a comparator that is partial
// over mixed-kind values a single end-of-batch sort is NOT equivalent to
// sort-per-insert, and the retained set must not depend on how the rows
// were batched, so each row goes through insert on its own.
func (tk *TopK) PushBatch(tag Tag, b *tuple.Batch) {
	n := b.Len()
	if b.Columnar() {
		ci, ok := b.ColIndex(tk.Col)
		if !ok {
			tk.Dropped.Add(n)
			return
		}
		for i := 0; i < n; i++ {
			tk.insert(tag, b.At(i, ci), b.Row(i))
		}
		return
	}
	for i := 0; i < n; i++ {
		t := b.Row(i)
		v, ok := t.Get(tk.Col)
		if !ok {
			tk.Dropped.Inc()
			continue
		}
		tk.insert(tag, v, t)
	}
}

// insert is the per-row ranking step.
func (tk *TopK) insert(tag Tag, v tuple.Value, t *tuple.Tuple) {
	items := append(tk.heaps[tag], topkItem{v: v, t: t})
	// K is small (10 in Figure 2); sort-and-trim keeps the code simple
	// and the cost K·log K per insert batch.
	sort.SliceStable(items, func(i, j int) bool {
		c, ok := tuple.Compare(items[i].v, items[j].v)
		if !ok {
			return false
		}
		if tk.Ascending {
			return c < 0
		}
		return c > 0
	})
	if len(items) > tk.K {
		items = items[:tk.K]
	}
	tk.heaps[tag] = items
}

// Flush emits the retained tuples in rank order, each a batch of one, and
// resets.
func (tk *TopK) Flush(tag Tag) {
	tk.In.Flush(tag)
	for _, it := range tk.heaps[tag] {
		tk.Emit(tag, tuple.OfTuple(it.t))
	}
	delete(tk.heaps, tag)
}

// Close drops all state.
func (tk *TopK) Close() {
	tk.heaps = make(map[Tag][]topkItem)
	tk.In.Close()
}
