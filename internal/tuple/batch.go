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
// A batch has one representation: a table name, column names shared by
// every row, and a row-major value matrix with per-column kind
// summaries, so consumers resolve a column index ONCE per batch and then
// read values by position. Row views materialize lazily and alias the
// matrix (zero copy). A stream whose schema changes is a sequence of
// batches, one per run of rows with equal table and column names (Runs,
// Concat); a lone tuple is a batch of one that aliases it (OfTuple).
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
	// vals is row-major with stride len(names). kinds[c] is column c's
	// uniform kind or kindMixed; it is nil in a batch of one row
	// (OfTuple), whose column kinds are its values' kinds.
	names []string
	kinds []Kind
	vals  []Value
	// n is the physical row count; sel, when non-nil, restricts the
	// batch to the listed physical rows, in order.
	n   int
	sel []int32
}

// kindMixed marks a column whose rows carry more than one value kind;
// vectorized fast paths fall back to generic comparison for it. It never
// appears on the wire.
const kindMixed Kind = 0xff

// NewColumnarBatch creates an empty batch for the given schema. The
// names slice is retained and must not change afterwards.
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

// AppendRow copies one row of values (aligned with Names) into a batch
// made by NewColumnarBatch and folds the value kinds into the column
// summaries. The caller may reuse vals. Panics on a length mismatch —
// batch construction is internal engine code, not a best-effort
// boundary.
func (b *Batch) AppendRow(vals []Value) {
	if len(vals) != len(b.names) {
		panic("tuple: AppendRow with the wrong arity")
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

// OfTuple wraps one tuple as a batch of one row that aliases its names
// and values: how a lone row — a TopK rank, a join match, a decoded
// legacy frame — crosses an edge.
func OfTuple(t *Tuple) *Batch {
	return &Batch{table: t.table, names: t.names, vals: t.vals[:len(t.vals):len(t.vals)], n: 1}
}

// Runs builds rows into fresh batches, one per run of consecutive rows
// with equal table and column names, in order. The rows' name slices are
// retained.
func Runs(rows []*Tuple) []*Batch {
	var rs runs
	for i, t := range rows {
		rs.add(t, len(rows)-i)
	}
	return rs
}

// Concat joins the selected rows of bs, in order, into fresh batches,
// one per schema run as Runs cuts them: one batch when every row carries
// one table and one column list, its kinds folded per column exactly as
// AppendRow folds them. A single input is returned as is. The inputs are
// not modified.
func Concat(bs []*Batch) []*Batch {
	if len(bs) == 1 {
		return []*Batch{bs[0]}
	}
	left := 0
	for _, b := range bs {
		left += b.Len()
	}
	var rs runs
	var row Tuple
	for _, b := range bs {
		for i, n := 0, b.Len(); i < n; i++ {
			b.RowInto(i, &row)
			rs.add(&row, left)
			left--
		}
	}
	return rs
}

// runs is the builder behind Runs and Concat.
type runs []*Batch

// add appends t's values to the last batch, first starting a batch when
// t's schema differs from it. The first batch has room for left rows,
// the rows still to come; later ones grow as they fill, so a stream
// that changes schema every row costs O(rows), not O(rows²).
func (rs *runs) add(t *Tuple, left int) {
	last := len(*rs) - 1
	if last < 0 || (*rs)[last].table != t.table || !slices.Equal((*rs)[last].names, t.names) {
		if last >= 0 {
			left = 0
		}
		*rs = append(*rs, NewColumnarBatch(t.table, t.names, left))
		last++
	}
	(*rs)[last].AppendRow(t.vals)
}

// Len returns the number of selected rows.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// Table returns the rows' self-described table name.
func (b *Batch) Table() string { return b.table }

// Names returns the rows' column names. Callers must not modify the
// slice.
func (b *Batch) Names() []string { return b.names }

// ColIndex resolves a column name to its index.
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
	if b.kinds == nil {
		return b.vals[c].kind, true
	}
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

// At returns the value at logical row i, column c.
func (b *Batch) At(i, c int) Value {
	return b.vals[b.phys(i)*len(b.names)+c]
}

// Row returns logical row i as a tuple: a view that aliases the shared
// storage (one small allocation, no value copies). Views are immutable
// under the batch contract and safe to retain.
func (b *Batch) Row(i int) *Tuple {
	t := new(Tuple)
	b.RowInto(i, t)
	return t
}

// RowInto points a scratch tuple at logical row i without allocating.
// The scratch is valid until the next RowInto and must not escape the
// caller (hand Row(i) downstream instead) or be mutated.
func (b *Batch) RowInto(i int, t *Tuple) {
	p, s := b.phys(i), len(b.names)
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

// FilterTable returns b when its rows' table name is only (or only is
// empty), else nil.
func (b *Batch) FilterTable(only string) *Batch {
	if only == "" || b.table == only {
		return b
	}
	return nil
}

// CmpKernel compares two operands — column index li/ri, or constant
// lc/rc when the index is negative — across every logical row of a
// batch, writing tbl[cmp+1] into out (tbl is indexed by
// Compare's -1/0/+1 outcome). It runs only when both operand kinds are
// uniform across the batch and covered by a typed loop: int/int
// compares as ints, any other numeric mix as floats, string/string as
// strings — exactly Compare's ordering, including its NaN behavior.
// Returns false otherwise (mixed-kind column, uncovered kind pair) so
// the caller falls back to per-row Compare.
// The typed loops read value fields directly from the shared storage,
// skipping the per-row Value copies that dominate the generic path.
func (b *Batch) CmpKernel(li int, lc Value, ri int, rc Value, tbl *[3]int8, out []int8) bool {
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
					a = v.float()
				}
			}
			if ri >= 0 {
				if v := &vals[p+ri]; rInt {
					z = float64(v.i)
				} else {
					z = v.float()
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
// is the zero-allocation twin of KeyString: the caller owns dst and
// typically reuses it across rows.
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
	w.String(b.table)
	w.U16(uint16(len(b.names)))
	base := b.phys(i) * len(b.names)
	for c, name := range b.names {
		w.String(name)
		b.vals[base+c].encodeTo(w)
	}
}

// Frame format. A frame is the payload of one published DHT object or
// result message and decodes to one batch. Every legacy single-tuple
// encoding begins with the U32 length of the table name, so its first
// byte is 0x00 for any sane name; 0xff therefore marks a multi-row
// frame, whose schema a batch shares across its rows and which is
// encoded once:
//
//	0xff 'C' table ncols names nrows row*nrows
//
// The header's lengths and counts are fixed-width (U32 string lengths,
// U16 ncols, U32 nrows), as in the legacy encoding. A row is
// (kind payload)*ncols, or one 0x00 byte when ncols is 0, so every row
// costs at least one input byte; a payload is the value in its natural
// width (encodeTo), the same bytes the legacy encoding writes after a
// column's name. DecodeFrame accepts the legacy encoding and 'C'; any
// other kind byte is refused, among them 'B', the row-list frame that
// only a version-2 checkpoint can hold.
const (
	frameMagic    = 0xff
	frameColumnar = 'C'
)

// EncodeRowsTo appends a 'C' frame holding the listed logical rows (all
// selected rows when idx is nil).
func (b *Batch) EncodeRowsTo(w *wire.Writer, idx []int32) {
	n := len(idx)
	if idx == nil {
		n = b.Len()
	}
	w.U8(frameMagic)
	w.U8(frameColumnar)
	w.String(b.table)
	w.U16(uint16(len(b.names)))
	for _, name := range b.names {
		w.String(name)
	}
	w.U32(uint32(n))
	s := len(b.names)
	for j := 0; j < n; j++ {
		i := j
		if idx != nil {
			i = int(idx[j])
		}
		if s == 0 {
			w.U8(0)
		}
		base := b.phys(i) * s
		for c := 0; c < s; c++ {
			b.vals[base+c].encodeTo(w)
		}
	}
}

// EncodeFrame serializes the batch as one frame. Nothing in the engine
// encodes a whole batch this way (result and put frames go through
// EncodeRowsTo and EncodeRowTo); the benchmark's codec replay and the
// frame tests do.
func (b *Batch) EncodeFrame() []byte {
	w := wire.NewWriter(64 + 16*b.Len())
	b.EncodeRowsTo(w, nil)
	return w.Bytes()
}

// DecodeFrame parses one frame — a 'C' frame or a legacy single-tuple
// encoding — into a batch. It is the decode-once entry point of the
// batch handoff: one call per arriving object, whatever the producer
// shipped.
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
	if data[1] != frameColumnar {
		return nil, fmt.Errorf("tuple: unknown frame kind 0x%02x", data[1])
	}
	r := wire.NewReader(data[2:])
	table := r.String()
	ncols := int(r.U16())
	names := make([]string, 0, min(ncols, r.Remaining()/4)) // a name costs its 4-byte length
	for c := 0; c < ncols && r.Err() == nil; c++ {
		names = append(names, r.String())
	}
	nrows := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	// A row costs at least one byte per column, and one byte when there
	// are none: a count the input cannot carry is refused before anything
	// is sized by it.
	if nrows > r.Remaining()/max(ncols, 1) {
		return nil, fmt.Errorf("tuple: frame row count %d exceeds input", nrows)
	}
	b := NewColumnarBatch(table, names, nrows)
	rowVals := make([]Value, ncols)
	for i := 0; i < nrows; i++ {
		if ncols == 0 {
			r.U8()
		}
		for c := range rowVals {
			rowVals[c] = decodeValue(r)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		b.AppendRow(rowVals)
	}
	return b, nil
}

// encodeTo appends the value's kind byte and payload (the per-column
// body shared by the tuple and frame codecs), each in its natural width:
// a bool, int or time as a zigzag varint (one byte for 0 or ±1, nine for
// a present-day time in nanoseconds), a float as its 8 IEEE-754 bytes, a
// string or bytes as a uvarint length and the bytes, a null as nothing.
func (v Value) encodeTo(w *wire.Writer) {
	w.U8(uint8(v.kind))
	switch v.kind {
	case KindBool, KindInt, KindTime:
		w.Varint(v.i)
	case KindFloat:
		w.I64(v.i)
	case KindString, KindBytes:
		w.VarString(v.s)
	}
}

// decodeValue reads one kind byte and payload. An unknown kind — self-
// description from a newer or foreign node — decodes as null rather than
// failing the tuple (best effort).
func decodeValue(r *wire.Reader) Value {
	switch kind := Kind(r.U8()); kind {
	case KindBool, KindInt, KindTime:
		return Value{kind: kind, i: r.Varint()}
	case KindFloat:
		return Value{kind: kind, i: r.I64()}
	case KindString, KindBytes:
		return Value{kind: kind, s: r.VarString()}
	default:
		return Null()
	}
}
