package tuple

import (
	"fmt"
	"slices"

	"pier/internal/wire"
)

// Batch is a multi-row tuple container: the unit of the vectorized
// execution path. Operators exchange batches instead of single tuples so
// per-tuple costs (column lookup by name, predicate tree walks, map-key
// construction) amortize to per-batch costs.
//
// A batch has two storage modes:
//
//   - Columnar: every row shares one schema (table name + column names).
//     Values live in a row-major matrix with per-column kind summaries,
//     so vectorized consumers resolve a column index ONCE per batch and
//     then read values by position. Row views materialize lazily and
//     alias the matrix (zero copy).
//   - Row-backed: an ordered list of self-describing tuples with
//     arbitrary, possibly heterogeneous schemas. The fallback for mixed
//     streams and for wrapping single tuples (OfTuple).
//
// Ownership contract (the batch extension of the shared-tuple rules in
// internal/overlay/subs.go): a *Batch handed to another component is
// SHARED and READ-ONLY, exactly like a dispatched *Tuple. Consumers may
// retain the batch or any row view obtained from it — both are immutable
// under the contract — but must never mutate column values, append to a
// row view, or modify a selection. Deriving a filtered view
// (SelectLogical, FilterTable, Prefix) allocates a new Batch header that
// shares the underlying storage; the parent batch is never touched.
// Column slices escape only through row views, which are constructed
// with full slice expressions so a buggy append reallocates instead of
// corrupting shared storage.
type Batch struct {
	table string
	// names/kinds/vals: columnar mode. vals is row-major with stride
	// len(names); kinds[c] is the column's uniform kind or kindMixed.
	names []string
	kinds []Kind
	vals  []Value
	// rows: row-backed mode (names == nil).
	rows []*Tuple
	// n is the physical row count; sel, when non-nil, restricts the
	// batch to the listed physical rows, in order.
	n   int
	sel []int32
}

// kindMixed marks a column whose rows carry more than one value kind;
// vectorized fast paths fall back to generic comparison for it. It never
// appears on the wire.
const kindMixed Kind = 0xff

// NewColumnarBatch creates an empty columnar batch for the given uniform
// schema. The names slice is retained and must not change afterwards.
func NewColumnarBatch(table string, names []string, capRows int) *Batch {
	b := &Batch{table: table, names: names, kinds: make([]Kind, len(names))}
	if capRows > 0 {
		b.vals = make([]Value, 0, capRows*len(names))
	}
	for i := range b.kinds {
		b.kinds[i] = KindNull
	}
	return b
}

// AppendRow copies one row of values (aligned with Names) into a
// columnar batch and folds the value kinds into the column summaries.
// The caller may reuse vals. Panics on a row-backed batch or a length
// mismatch — batch construction is internal engine code, not a
// best-effort boundary.
func (b *Batch) AppendRow(vals []Value) {
	if b.names == nil || len(vals) != len(b.names) {
		panic("tuple: AppendRow on non-columnar batch or wrong arity")
	}
	for c, v := range vals {
		if b.n == 0 {
			b.kinds[c] = v.kind
		} else if b.kinds[c] != v.kind {
			b.kinds[c] = kindMixed
		}
	}
	b.vals = append(b.vals, vals...)
	b.n++
}

// FromTuples wraps rows as a row-backed batch. The slice is retained.
// The batch's Table is the rows' common table name, or "" when mixed.
func FromTuples(rows []*Tuple) *Batch {
	b := &Batch{rows: rows, n: len(rows)}
	for i, t := range rows {
		if i == 0 {
			b.table = t.table
		} else if b.table != t.table {
			b.table = ""
			break
		}
	}
	return b
}

// OfTuple wraps one tuple as a 1-row batch — the compatibility shim
// behind every converted operator's single-tuple Push.
func OfTuple(t *Tuple) *Batch {
	return &Batch{table: t.table, rows: []*Tuple{t}, n: 1}
}

// Concat joins the selected rows of bs, in order, into one fresh batch.
// When every row carries one table and one column list (compared name by
// name) the result is columnar, its kinds folded per column exactly as
// AppendRow folds them; any other mix is row-backed (FromTuples). A
// single input is returned as is. The inputs are not modified.
func Concat(bs []*Batch) *Batch {
	if len(bs) == 1 {
		return bs[0]
	}
	var table string
	var names []string
	var row Tuple
	total, uniform := 0, true
	for _, b := range bs {
		for i := 0; i < b.Len() && uniform; i++ {
			b.RowInto(i, &row)
			if total+i == 0 {
				table, names = row.table, row.names
			} else {
				uniform = row.table == table && slices.Equal(row.names, names)
			}
		}
		total += b.Len()
	}
	if !uniform || len(names) == 0 {
		rows := make([]*Tuple, 0, total)
		for _, b := range bs {
			rows = b.Tuples(rows)
		}
		return FromTuples(rows)
	}
	out := NewColumnarBatch(table, names, total)
	for _, b := range bs {
		for i, n := 0, b.Len(); i < n; i++ {
			b.RowInto(i, &row)
			out.AppendRow(row.vals)
		}
	}
	return out
}

// Len returns the number of selected rows.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// Table returns the rows' common self-described table name, or "" when a
// row-backed batch mixes tables.
func (b *Batch) Table() string { return b.table }

// Names returns the uniform column names of a columnar batch, or nil for
// a row-backed batch. Callers must not modify the slice.
func (b *Batch) Names() []string { return b.names }

// Columnar reports whether the batch has a uniform column layout.
func (b *Batch) Columnar() bool { return b.names != nil }

// ColIndex resolves a column name to its index in a columnar batch.
func (b *Batch) ColIndex(name string) (int, bool) {
	for i, n := range b.names {
		if n == name {
			return i, true
		}
	}
	return -1, false
}

// ColKind returns the column's uniform value kind. ok is false when the
// column mixes kinds across rows (consumers fall back to generic paths).
func (b *Batch) ColKind(c int) (Kind, bool) {
	k := b.kinds[c]
	return k, k != kindMixed
}

// phys maps a logical (selected) row index to its physical row.
func (b *Batch) phys(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

// At returns the value at logical row i, column c of a columnar batch.
func (b *Batch) At(i, c int) Value {
	return b.vals[b.phys(i)*len(b.names)+c]
}

// Row returns logical row i as a tuple. Row-backed batches return the
// stored tuple; columnar batches materialize a view that aliases the
// shared storage (one small allocation, no value copies). Views are
// immutable under the batch contract and safe to retain.
func (b *Batch) Row(i int) *Tuple {
	p := b.phys(i)
	if b.rows != nil {
		return b.rows[p]
	}
	s := len(b.names)
	return &Tuple{
		table: b.table,
		names: b.names[:s:s],
		vals:  b.vals[p*s : (p+1)*s : (p+1)*s],
	}
}

// RowInto points a scratch tuple at logical row i without allocating.
// The scratch is valid until the next RowInto and must not escape the
// caller (hand Row(i) downstream instead) or be mutated.
func (b *Batch) RowInto(i int, t *Tuple) {
	p := b.phys(i)
	if b.rows != nil {
		*t = *b.rows[p]
		return
	}
	s := len(b.names)
	t.table = b.table
	t.names = b.names[:s:s]
	t.vals = b.vals[p*s : (p+1)*s : (p+1)*s]
}

// Tuples appends every selected row, materialized, to dst.
func (b *Batch) Tuples(dst []*Tuple) []*Tuple {
	for i, n := 0, b.Len(); i < n; i++ {
		dst = append(dst, b.Row(i))
	}
	return dst
}

// SelectLogical derives a filtered view keeping the listed logical rows,
// in order. The keep slice is retained when no composition is needed —
// callers hand over ownership. The receiver is not modified.
func (b *Batch) SelectLogical(keep []int32) *Batch {
	nb := *b
	if b.sel == nil {
		nb.sel = keep
	} else {
		sel := make([]int32, len(keep))
		for i, k := range keep {
			sel[i] = b.sel[k]
		}
		nb.sel = sel
	}
	return &nb
}

// Prefix derives a view of the first k selected rows.
func (b *Batch) Prefix(k int) *Batch {
	nb := *b
	if b.sel != nil {
		nb.sel = b.sel[:k:k]
		return &nb
	}
	sel := make([]int32, k)
	for i := range sel {
		sel[i] = int32(i)
	}
	nb.sel = sel
	return &nb
}

// FilterTable derives the view of rows whose self-described table name
// matches only. It returns b unchanged when every row matches (the
// uniform fast path), nil when none do, and a selection otherwise.
func (b *Batch) FilterTable(only string) *Batch {
	if only == "" || b.table == only {
		return b
	}
	if b.names != nil || b.table != "" {
		// Uniform table name that does not match.
		return nil
	}
	var keep []int32
	for i, n := 0, b.Len(); i < n; i++ {
		if b.rows[b.phys(i)].table == only {
			keep = append(keep, int32(i))
		}
	}
	if keep == nil {
		return nil
	}
	if len(keep) == b.Len() {
		return b
	}
	return b.SelectLogical(keep)
}

// CmpKernel compares two operands — column index li/ri, or constant
// lc/rc when the index is negative — across every logical row of a
// columnar batch, writing tbl[cmp+1] into out (tbl is indexed by
// Compare's -1/0/+1 outcome). It runs only when both operand kinds are
// uniform across the batch and covered by a typed loop: int/int
// compares as ints, any other numeric mix as floats, string/string as
// strings — exactly Compare's ordering, including its NaN behavior.
// Returns false otherwise (row-backed batch, mixed-kind column,
// uncovered kind pair) so the caller falls back to per-row Compare.
// The typed loops read value fields directly from the shared storage,
// skipping the per-row Value copies that dominate the generic path.
func (b *Batch) CmpKernel(li int, lc Value, ri int, rc Value, tbl *[3]int8, out []int8) bool {
	if b.names == nil {
		return false
	}
	lk, lok := b.operandKind(li, lc)
	rk, rok := b.operandKind(ri, rc)
	if !lok || !rok {
		return false
	}
	stride := len(b.names)
	vals := b.vals
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	switch {
	case lk == KindInt && rk == KindInt:
		ca, cz := lc.i, rc.i
		for i := range out {
			p := b.phys(i) * stride
			a, z := ca, cz
			if li >= 0 {
				a = vals[p+li].i
			}
			if ri >= 0 {
				z = vals[p+ri].i
			}
			out[i] = tbl[cmpOrdered(a, z)+1]
		}
	case numeric(lk) && numeric(rk):
		ca, _ := lc.AsFloat()
		cz, _ := rc.AsFloat()
		lInt, rInt := lk == KindInt, rk == KindInt
		for i := range out {
			p := b.phys(i) * stride
			a, z := ca, cz
			if li >= 0 {
				if v := &vals[p+li]; lInt {
					a = float64(v.i)
				} else {
					a = v.f
				}
			}
			if ri >= 0 {
				if v := &vals[p+ri]; rInt {
					z = float64(v.i)
				} else {
					z = v.f
				}
			}
			out[i] = tbl[cmpOrdered(a, z)+1]
		}
	case lk == KindString && rk == KindString:
		ca, cz := lc.s, rc.s
		for i := range out {
			p := b.phys(i) * stride
			a, z := ca, cz
			if li >= 0 {
				a = vals[p+li].s
			}
			if ri >= 0 {
				z = vals[p+ri].s
			}
			out[i] = tbl[cmpOrdered(a, z)+1]
		}
	default:
		return false
	}
	return true
}

// operandKind reports the statically known kind of a CmpKernel operand:
// the folded column kind for a column, the constant's kind otherwise.
func (b *Batch) operandKind(col int, c Value) (Kind, bool) {
	if col >= 0 {
		return b.ColKind(col)
	}
	return c.kind, true
}

// AppendRowKey appends the canonical DHT key of logical row i over the
// pre-resolved column indices (see Tuple.KeyString for the format). It
// is the zero-allocation twin of KeyString for columnar batches: the
// caller owns dst and typically reuses it across rows.
func (b *Batch) AppendRowKey(dst []byte, i int, cols []int) []byte {
	p := b.phys(i) * len(b.names)
	for j, c := range cols {
		if j > 0 {
			dst = append(dst, 0x1f)
		}
		dst = b.vals[p+c].AppendKey(dst)
	}
	return dst
}

// EncodeRowTo appends logical row i in the single-tuple wire format.
func (b *Batch) EncodeRowTo(i int, w *wire.Writer) {
	p := b.phys(i)
	if b.rows != nil {
		b.rows[p].EncodeTo(w)
		return
	}
	w.String(b.table)
	w.U16(uint16(len(b.names)))
	base := p * len(b.names)
	for c, name := range b.names {
		w.String(name)
		b.vals[base+c].encodeTo(w)
	}
}

// Frame format. A frame is the payload of one published DHT object and
// decodes to one batch. Every legacy single-tuple encoding begins with
// the U32 length of the table name, so its first byte is 0x00 for any
// sane name; 0xff therefore marks the start of a multi-row frame:
//
//	0xff 'C' table ncols names nrows (kind payload)*ncols per row
//	0xff 'B' count tuple-encoding*count
//
// 'C' carries a uniform-schema batch with the schema encoded ONCE (the
// common case: one producer operator emits one schema); 'B' carries
// arbitrary rows. DecodeFrame accepts all three forms, so stored
// objects, checkpoints, and mixed-version traffic keep decoding.
const (
	frameMagic    = 0xff
	frameColumnar = 'C'
	frameRows     = 'B'
)

// EncodeRowsTo appends a frame holding the listed logical rows (all
// selected rows when idx is nil). Columnar batches emit the 'C' form;
// row-backed batches emit 'B'.
func (b *Batch) EncodeRowsTo(w *wire.Writer, idx []int32) {
	n := len(idx)
	if idx == nil {
		n = b.Len()
	}
	row := func(j int) int {
		if idx != nil {
			return int(idx[j])
		}
		return j
	}
	w.U8(frameMagic)
	if b.names == nil {
		w.U8(frameRows)
		w.U32(uint32(n))
		for j := 0; j < n; j++ {
			b.rows[b.phys(row(j))].EncodeTo(w)
		}
		return
	}
	w.U8(frameColumnar)
	w.String(b.table)
	w.U16(uint16(len(b.names)))
	for _, name := range b.names {
		w.String(name)
	}
	w.U32(uint32(n))
	s := len(b.names)
	for j := 0; j < n; j++ {
		base := b.phys(row(j)) * s
		for c := 0; c < s; c++ {
			b.vals[base+c].encodeTo(w)
		}
	}
}

// EncodeFrame serializes the batch as one frame.
func (b *Batch) EncodeFrame() []byte {
	w := wire.NewWriter(64 + 16*b.Len())
	b.EncodeRowsTo(w, nil)
	return w.Bytes()
}

// DecodeFrame parses one frame — a multi-row 'C'/'B' frame or a legacy
// single-tuple encoding — into a batch. It is the decode-once entry
// point of the batch handoff: one call per arriving object, whatever
// the producer shipped.
func DecodeFrame(data []byte) (*Batch, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("tuple: empty frame")
	}
	if data[0] != frameMagic {
		t, err := Decode(data)
		if err != nil {
			return nil, err
		}
		return OfTuple(t), nil
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("tuple: truncated frame header")
	}
	r := wire.NewReader(data[2:])
	switch data[1] {
	case frameRows:
		count := int(r.U32())
		if count > r.Remaining() {
			return nil, fmt.Errorf("tuple: frame row count %d exceeds input", count)
		}
		rows := make([]*Tuple, 0, count)
		for i := 0; i < count; i++ {
			t := DecodeFrom(r)
			if r.Err() != nil {
				return nil, r.Err()
			}
			rows = append(rows, t)
		}
		return FromTuples(rows), nil
	case frameColumnar:
		table := r.String()
		ncols := int(r.U16())
		names := make([]string, 0, ncols)
		for c := 0; c < ncols && r.Err() == nil; c++ {
			names = append(names, r.String())
		}
		nrows := int(r.U32())
		if err := r.Err(); err != nil {
			return nil, err
		}
		// Each value costs at least its kind byte, bounding hostile counts.
		if ncols > 0 && nrows > r.Remaining()/ncols {
			return nil, fmt.Errorf("tuple: frame row count %d exceeds input", nrows)
		}
		b := NewColumnarBatch(table, names, nrows)
		rowVals := make([]Value, ncols)
		for i := 0; i < nrows; i++ {
			for c := 0; c < ncols; c++ {
				rowVals[c] = decodeValue(r)
			}
			if err := r.Err(); err != nil {
				return nil, err
			}
			b.AppendRow(rowVals)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("tuple: unknown frame kind 0x%02x", data[1])
	}
}

// encodeTo appends the value's kind byte and payload (the per-column
// body shared by the tuple and frame codecs).
func (v Value) encodeTo(w *wire.Writer) {
	w.U8(uint8(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool, KindInt, KindTime:
		w.I64(v.i)
	case KindFloat:
		w.F64(v.f)
	case KindString:
		w.String(v.s)
	case KindBytes:
		w.Bytes32(v.b)
	}
}

// decodeValue reads one kind byte and payload; unknown kinds decode as
// null (best-effort self-description, matching DecodeFrom).
func decodeValue(r *wire.Reader) Value {
	kind := Kind(r.U8())
	switch kind {
	case KindNull:
		return Null()
	case KindBool:
		return Value{kind: KindBool, i: r.I64()}
	case KindInt:
		return Int(r.I64())
	case KindTime:
		return Value{kind: KindTime, i: r.I64()}
	case KindFloat:
		return Float(r.F64())
	case KindString:
		return String(r.String())
	case KindBytes:
		return Bytes(append([]byte(nil), r.Bytes32()...))
	default:
		return Null()
	}
}
