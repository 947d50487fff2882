package exec

import (
	"bytes"
	"fmt"
	"slices"
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
//
// Groups are rows of flat slabs numbered in creation order, the emission
// order: the map takes a group's key bytes to its number, each group has
// its key string, its table and len(Keys) key values, and its aggregate
// states are len(Aggs) consecutive aggStates. Creating a group allocates
// only its key string. Reset empties the set and keeps the map's buckets
// and the slabs' capacity, and GroupBy.Flush hands its window's set to a
// package pool for the next window, so a window's storage is recycled
// once it is flushed: nothing downstream may retain it, and Emit,
// EmitBatch and Encode copy values out into fresh tuples, batches and
// bytes. Everything AddBatch works in — column indices, key buffers,
// slots, accumulators — is per-call scratch from the package pool (see
// the package doc), taken at the start of the call and returned before
// it ends, never retained.
type GroupSet struct {
	Keys []string
	Aggs []AggSpec

	// names is EmitBatch's schema, nil when an output name collides:
	// worked out once per spec, shared by every batch emitted.
	names   []string
	index   map[string]int32
	keys    []string      // per group: its key bytes
	tables  []string      // per group: the table its key columns came from
	keyVals []tuple.Value // len(Keys) per group
	keyHas  []bool        // len(Keys) per group: false where a merged partial lacked the column
	states  []aggState    // len(Aggs) per group
	// marks stamp a group into the current AddBatch's touched set so slot
	// resolution is one comparison per repeat row, no map probe.
	marks []groupMark
	epoch uint32
}

type groupMark struct {
	epoch uint32
	slot  int32
}

// NewGroupSet creates an empty aggregation table.
func NewGroupSet(keys []string, aggs []AggSpec) *GroupSet {
	return &GroupSet{Keys: keys, Aggs: aggs, names: outNames(keys, aggs), index: make(map[string]int32)}
}

// outNames is the output schema of a spec — key columns, then one column
// per aggregate — or nil when two names collide (Emit's set-overwrites
// semantics cannot be expressed as distinct columns).
func outNames(keys []string, aggs []AggSpec) []string {
	names := make([]string, 0, len(keys)+len(aggs))
	names = append(names, keys...)
	for _, a := range aggs {
		names = append(names, a.OutName())
	}
	for i := range names {
		if slices.Contains(names[i+1:], names[i]) {
			return nil
		}
	}
	return names
}

// Len returns the number of groups.
func (g *GroupSet) Len() int { return len(g.keys) }

// Reset empties the set for reuse under the same spec, keeping the map's
// buckets and the slabs' capacity and clearing every value that could
// pin memory.
func (g *GroupSet) Reset() {
	clear(g.index)
	clear(g.keys)
	clear(g.tables)
	clear(g.keyVals)
	clear(g.states)
	g.keys, g.tables, g.keyVals, g.keyHas = g.keys[:0], g.tables[:0], g.keyVals[:0], g.keyHas[:0]
	g.states, g.marks, g.epoch = g.states[:0], g.marks[:0], 0
}

// newGroup appends a group with empty states under key and returns its
// number; the caller appends its len(Keys) key values.
func (g *GroupSet) newGroup(key, table string) int32 {
	gi := int32(len(g.keys))
	g.index[key] = gi
	g.keys = append(g.keys, key)
	g.tables = append(g.tables, table)
	g.marks = append(g.marks, groupMark{})
	g.states = append(g.states, make([]aggState, len(g.Aggs))...)
	return gi
}

func (g *GroupSet) appendKey(v tuple.Value, ok bool) {
	g.keyVals = append(g.keyVals, v)
	g.keyHas = append(g.keyHas, ok)
}

// rowGroup returns the group of columnar row i of b, whose key bytes are
// kb, creating it from the row's key columns on first sight.
func (g *GroupSet) rowGroup(b *tuple.Batch, i int, keyIdx []int, kb []byte) int32 {
	if gi, ok := g.index[string(kb)]; ok {
		return gi
	}
	gi := g.newGroup(string(kb), b.Table())
	for _, ci := range keyIdx {
		g.appendKey(b.At(i, ci), true)
	}
	return gi
}

// aggCol addresses one aggregate's states across the groups of a slab.
type aggCol struct {
	states     []aggState
	ai, stride int
}

func (c aggCol) at(gi int32) *aggState { return &c.states[int(gi)*c.stride+c.ai] }

// AddBatch folds a whole batch into the table, returning how many rows
// were discarded as malformed (missing key column); missing aggregate
// inputs simply do not contribute to that aggregate. Keys are built into
// scratch and the map is read without allocating; for columnar batches
// every column reference is resolved once up front. The row-backed
// branch is the semantics reference for the typed kernels.
func (g *GroupSet) AddBatch(b *tuple.Batch) (malformed int) {
	n := b.Len()
	if n == 0 {
		return 0
	}
	sc := getScratch()
	defer sc.release()
	if !b.Columnar() {
		for i := 0; i < n; i++ {
			t := b.Row(i)
			kb, ok := t.AppendKey(sc.keyBuf[:0], g.Keys)
			sc.keyBuf = kb[:0]
			if !ok {
				malformed++
				continue
			}
			gi, ok := g.index[string(kb)]
			if !ok {
				gi = g.newGroup(string(kb), t.Table())
				for _, kc := range g.Keys {
					g.appendKey(t.Get(kc))
				}
			}
			for ai, a := range g.Aggs {
				st := aggCol{g.states, ai, len(g.Aggs)}.at(gi)
				if a.Col == "" {
					st.add(a.Kind, tuple.Null())
					continue
				}
				if v, ok := t.Get(a.Col); ok {
					st.add(a.Kind, v)
				}
			}
		}
		return malformed
	}
	keyIdx := sc.keyIdx[:0]
	for _, kc := range g.Keys {
		ci, ok := b.ColIndex(kc)
		if !ok {
			// Key column absent from the uniform schema: every row is
			// malformed.
			return n
		}
		keyIdx = append(keyIdx, ci)
	}
	aggIdx := sc.aggIdx[:0]
	for _, a := range g.Aggs {
		ci, ok := b.ColIndex(a.Col)
		if a.Col == "" || !ok {
			ci = -1
		}
		aggIdx = append(aggIdx, ci)
	}
	sc.keyIdx, sc.aggIdx = keyIdx, aggIdx

	// Phase 1 — resolve a group slot for every row. Slots number groups
	// in first-appearance order, so they depend only on the batch and the
	// key columns: when the scratch already resolved this batch (the bus
	// hands one batch to every chain on a node), only the distinct keys
	// are probed. Otherwise keys for the whole batch are built into the
	// arena; a row whose key bytes equal the previous row's reuses its
	// group outright, so runs of equal keys cost one map probe. Key
	// columns are resolved by index, so no columnar row can be malformed
	// past the schema check above.
	touched := sc.touched[:0]
	if sc.memo == b && sc.memoLen == n && slices.Equal(sc.memoIdx, keyIdx) {
		for _, r := range sc.firsts {
			touched = append(touched, g.rowGroup(b, int(r), keyIdx, sc.keyArena[sc.keyOffs[r]:sc.keyOffs[r+1]]))
		}
	} else {
		g.epoch++
		arena := sc.keyArena[:0]
		offs := append(sc.keyOffs[:0], 0)
		for i := 0; i < n; i++ {
			arena = b.AppendRowKey(arena, i, keyIdx)
			offs = append(offs, int32(len(arena)))
		}
		slots, firsts := sc.slots[:0], sc.firsts[:0]
		var gi int32
		for i := 0; i < n; i++ {
			kb := arena[offs[i]:offs[i+1]]
			if i == 0 || !bytes.Equal(kb, arena[offs[i-1]:offs[i]]) {
				gi = g.rowGroup(b, i, keyIdx, kb)
			}
			m := &g.marks[gi]
			if m.epoch != g.epoch {
				m.epoch = g.epoch
				m.slot = int32(len(touched))
				touched = append(touched, gi)
				firsts = append(firsts, int32(i))
			}
			slots = append(slots, m.slot)
		}
		sc.keyArena, sc.keyOffs, sc.slots, sc.firsts = arena, offs, slots, firsts
		sc.memo, sc.memoLen, sc.memoIdx = b, n, append(sc.memoIdx[:0], keyIdx...)
	}
	sc.touched = touched
	slots := sc.slots

	// Phase 2 — fold each aggregate column with a typed kernel when its
	// kind is uniform and every touched state is kernel-compatible;
	// otherwise fall back to the per-row add sequence over the resolved
	// slots (bit-identical by construction: same calls, same row order).
	for ai, a := range g.Aggs {
		ci := aggIdx[ai]
		if a.Col != "" && ci < 0 {
			continue // missing aggregate input contributes nothing
		}
		col := aggCol{g.states, ai, len(g.Aggs)}
		if foldColumn(&sc.acc, b, a, ci, slots, touched, col) {
			continue
		}
		for i := range slots {
			st := col.at(touched[slots[i]])
			if a.Col == "" {
				st.add(a.Kind, tuple.Null())
			} else {
				st.add(a.Kind, b.At(i, ci))
			}
		}
	}
	return malformed
}

// foldColumn runs one aggregate spec over the batch with a typed kernel,
// reporting false when the column or the existing states are outside the
// kernels' reach (mixed kinds, holistic aggregates, exotic value kinds)
// so AddBatch falls back to the per-row path. Accumulators are loaded
// from the touched groups' states in the slab, folded in row order, and
// stored back, which keeps results bit-identical to per-row aggState.add
// — including sum's int/float promotion and Compare's NaN/mixed-kind
// ordering.
func foldColumn(buf *aggScratch, b *tuple.Batch, a AggSpec, ci int, slots, touched []int32, col aggCol) bool {
	nt := len(touched)
	switch a.Kind {
	case AggCount:
		// count ignores its input, so count(*) and count(col) over a
		// present column both reduce to one increment per row.
		cnt := grow(buf.i, nt)
		buf.i = cnt
		for ti, gi := range touched {
			cnt[ti] = col.at(gi).n
		}
		b.FoldCountCol(slots, cnt)
		for ti, gi := range touched {
			col.at(gi).n = cnt[ti]
		}
		return true
	case AggSum:
		if a.Col == "" {
			return true // add(Null) never contributes to a sum
		}
		k, ok := b.ColKind(ci)
		if !ok {
			return false
		}
		switch k {
		case tuple.KindInt:
			acc := grow(buf.i, nt)
			any := grow(buf.b1, nt)
			buf.i, buf.b1 = acc, any
			for ti, gi := range touched {
				st := col.at(gi)
				acc[ti], any[ti] = st.n, st.any
			}
			if !b.FoldSumInt64Col(ci, slots, acc, any) {
				return false
			}
			for ti, gi := range touched {
				st := col.at(gi)
				st.n, st.any = acc[ti], any[ti]
			}
			return true
		case tuple.KindFloat:
			accI := grow(buf.i, nt)
			accF := grow(buf.f, nt)
			isF := grow(buf.b1, nt)
			any := grow(buf.b2, nt)
			buf.i, buf.f, buf.b1, buf.b2 = accI, accF, isF, any
			for ti, gi := range touched {
				st := col.at(gi)
				accI[ti], accF[ti], isF[ti], any[ti] = st.n, st.f, st.isFloat, st.any
			}
			if !b.FoldSumFloat64Col(ci, slots, accI, accF, isF, any) {
				return false
			}
			for ti, gi := range touched {
				st := col.at(gi)
				st.f, st.isFloat, st.any = accF[ti], isF[ti], any[ti]
			}
			return true
		default:
			// Uniform non-numeric column: AsInt and AsFloat both fail, so
			// every add would be a no-op.
			return true
		}
	case AggMin, AggMax:
		if a.Col == "" {
			return true // add(Null) is skipped by min/max
		}
		k, ok := b.ColKind(ci)
		if !ok {
			return false
		}
		switch k {
		case tuple.KindNull:
			return true // a uniform null column never contributes
		case tuple.KindInt, tuple.KindFloat, tuple.KindString:
		default:
			return false // bool/time/bytes: comparable but rare — row path
		}
		min := a.Kind == AggMin
		// A slot whose incumbent is a different kind would compare through
		// Value.Compare's cross-kind rules; keep those on the per-row path.
		for _, gi := range touched {
			if st := col.at(gi); st.any && st.best.Kind() != k {
				return false
			}
		}
		any := grow(buf.b1, nt)
		buf.b1 = any
		for ti, gi := range touched {
			any[ti] = col.at(gi).any
		}
		switch k {
		case tuple.KindInt:
			best := grow(buf.i, nt)
			buf.i = best
			for ti, gi := range touched {
				best[ti], _ = col.at(gi).best.AsInt()
			}
			if !b.FoldMinMaxInt64Col(ci, min, slots, best, any) {
				return false
			}
			for ti, gi := range touched {
				if any[ti] {
					st := col.at(gi)
					st.best, st.any = tuple.Int(best[ti]), true
				}
			}
			return true
		case tuple.KindFloat:
			best := grow(buf.f, nt)
			buf.f = best
			for ti, gi := range touched {
				best[ti], _ = col.at(gi).best.AsFloat()
			}
			if !b.FoldMinMaxFloat64Col(ci, min, slots, best, any) {
				return false
			}
			for ti, gi := range touched {
				if any[ti] {
					st := col.at(gi)
					st.best, st.any = tuple.Float(best[ti]), true
				}
			}
			return true
		default: // tuple.KindString
			best := grow(buf.s, nt)
			buf.s = best
			for ti, gi := range touched {
				best[ti], _ = col.at(gi).best.AsString()
			}
			if !b.FoldMinMaxStringCol(ci, min, slots, best, any) {
				return false
			}
			for ti, gi := range touched {
				if any[ti] {
					st := col.at(gi)
					st.best, st.any = tuple.String(best[ti]), true
				}
			}
			return true
		}
	case AggAvg:
		if a.Col == "" {
			return true // add(Null) never contributes to an average
		}
		k, ok := b.ColKind(ci)
		if !ok {
			return false
		}
		if k != tuple.KindInt && k != tuple.KindFloat {
			return true // AsFloat fails on every row: no-op
		}
		sum := grow(buf.f, nt)
		cnt := grow(buf.i, nt)
		buf.f, buf.i = sum, cnt
		for ti, gi := range touched {
			st := col.at(gi)
			sum[ti], cnt[ti] = st.f, st.n
		}
		if !b.FoldAvgCol(ci, slots, sum, cnt) {
			return false
		}
		for ti, gi := range touched {
			st := col.at(gi)
			st.f, st.n = sum[ti], cnt[ti]
		}
		return true
	default:
		// Holistic aggregates (count distinct) keep per-row state.
		return false
	}
}

// Merge folds another GroupSet with the identical spec into this one,
// copying o's groups: o may be reset or reused afterwards.
func (g *GroupSet) Merge(o *GroupSet) {
	nk, na := len(g.Keys), len(g.Aggs)
	for ogi, key := range o.keys {
		gi, ok := g.index[key]
		if !ok {
			gi = g.newGroup(key, o.tables[ogi])
			g.keyVals = append(g.keyVals, o.keyVals[ogi*nk:(ogi+1)*nk]...)
			g.keyHas = append(g.keyHas, o.keyHas[ogi*nk:(ogi+1)*nk]...)
		}
		for ai, a := range g.Aggs {
			g.states[int(gi)*na+ai].merge(a.Kind, &o.states[ogi*na+ai])
		}
	}
}

// Encode serializes the whole partial-aggregate table for shipping up an
// aggregation tree.
func (g *GroupSet) Encode() []byte {
	w := wire.NewWriter(64 + 32*len(g.keys))
	w.U32(uint32(len(g.keys)))
	nk, na := len(g.Keys), len(g.Aggs)
	for gi, key := range g.keys {
		w.String(key)
		kt := tuple.New(g.tables[gi])
		for ki, kc := range g.Keys {
			if g.keyHas[gi*nk+ki] {
				kt.Set(kc, g.keyVals[gi*nk+ki])
			}
		}
		kt.EncodeTo(w)
		for ai, a := range g.Aggs {
			g.states[gi*na+ai].encodeTo(a.Kind, w)
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
	na := len(g.Aggs)
	states := make([]aggState, na)
	for i := 0; i < n; i++ {
		key := r.String()
		keyTuple := tuple.DecodeFrom(r)
		for ai, a := range g.Aggs {
			states[ai] = decodeAggState(a.Kind, r)
		}
		if err := r.Err(); err != nil {
			return err
		}
		gi, ok := g.index[key]
		if !ok {
			gi = g.newGroup(key, keyTuple.Table())
			for _, kc := range g.Keys {
				g.appendKey(keyTuple.Get(kc))
			}
			copy(g.states[int(gi)*na:], states)
			continue
		}
		for ai, a := range g.Aggs {
			g.states[int(gi)*na+ai].merge(a.Kind, &states[ai])
		}
	}
	return r.Err()
}

// Emit produces one fresh result tuple per group: the key columns
// followed by one column per aggregate. Emission follows group-creation
// order.
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

// EmitBatch materializes the whole window as ONE fresh columnar batch —
// key columns followed by one column per aggregate, rows in
// group-creation order — carrying exactly the values Emit's per-group
// tuples would; a key column a merged partial lacked holds an explicit
// null. The batch is handed downstream under the shared read-only
// ownership contract (see the package comment in op.go), so a single
// emission can be fanned to any number of consumers. Returns nil when
// there is nothing to emit or when an output name collides with another
// (callers fall back to Emit).
func (g *GroupSet) EmitBatch(table string) *tuple.Batch {
	if len(g.keys) == 0 || g.names == nil {
		return nil
	}
	out := tuple.NewColumnarBatch(table, g.names, len(g.keys))
	sc := getScratch()
	row := grow(sc.rowVals, len(g.names))
	nk, na := len(g.Keys), len(g.Aggs)
	for gi := range g.keys {
		copy(row, g.keyVals[gi*nk:(gi+1)*nk])
		for ai, a := range g.Aggs {
			row[nk+ai] = g.states[gi*na+ai].result(a.Kind)
		}
		out.AppendRow(row)
	}
	clear(row)
	sc.rowVals = row
	sc.release()
	return out
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

// PushBatch absorbs a whole batch into the probe's group table, taking
// the window's set from the pool on its first batch.
func (g *GroupBy) PushBatch(tag Tag, b *tuple.Batch) {
	set := g.sets[tag]
	if set == nil {
		set = getGroupSet(g.Keys, g.Aggs)
		g.sets[tag] = set
	}
	g.Dropped.Add(set.AddBatch(b))
}

// Flush emits the accumulated groups downstream and resets the window,
// returning its set to the pool. The window leaves as one fresh columnar
// batch so a Demux parent can fan a single emission to every attached
// query tail.
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
	set.release()
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
