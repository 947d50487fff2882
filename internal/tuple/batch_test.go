package tuple

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

func mkRow(table string, sev int64, src string) *Tuple {
	return New(table).
		Set("severity", Int(sev)).
		Set("src", String(src)).
		Set("score", Float(float64(sev)/2)).
		Set("seen", Bool(sev%2 == 0))
}

func mkColumnar(t *testing.T, n int) *Batch {
	t.Helper()
	b := NewColumnarBatch("fwlogs", []string{"severity", "src", "score", "seen"}, n)
	for i := 0; i < n; i++ {
		b.AppendRow([]Value{
			Int(int64(i % 7)),
			String("host" + string(rune('a'+i%3))),
			Float(float64(i) / 2),
			Bool(i%2 == 0),
		})
	}
	return b
}

func sameRows(t *testing.T, got, want *Batch) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("row count: got %d want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.Row(i), want.Row(i)
		if g.String() != w.String() {
			t.Fatalf("row %d: got %v want %v", i, g, w)
		}
	}
}

func TestBatchFrameRoundTripColumnar(t *testing.T) {
	b := mkColumnar(t, 17)
	back, err := DecodeFrame(b.EncodeFrame())
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if back.Table() != "fwlogs" {
		t.Fatalf("table: got %q", back.Table())
	}
	sameRows(t, back, b)
}

// Heterogeneous rows are one batch, and one frame, per schema run; the
// frames decode back to the rows in order, a zero-column run included.
func TestBatchFrameRoundTripRows(t *testing.T) {
	rows := []*Tuple{
		mkRow("fwlogs", 5, "a"),
		mkRow("fwlogs", 6, "b"),
		mkRow("dnslogs", 2, "b"),
		New("empty"),
		New("empty"),
		mkRow("fwlogs", 7, "c"),
	}
	bs := Runs(rows)
	if len(bs) != 4 {
		t.Fatalf("%d runs, want 4", len(bs))
	}
	var got []string
	for _, b := range bs {
		back, err := DecodeFrame(b.EncodeFrame())
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		sameRows(t, back, b)
		for i := 0; i < back.Len(); i++ {
			got = append(got, back.Row(i).String())
		}
	}
	for i, r := range rows {
		if got[i] != r.String() {
			t.Fatalf("row %d: got %s want %s", i, got[i], r)
		}
	}
}

func TestBatchFrameRoundTripLegacySingle(t *testing.T) {
	tt := mkRow("fwlogs", 9, "solo")
	back, err := DecodeFrame(tt.Encode())
	if err != nil {
		t.Fatalf("DecodeFrame(legacy): %v", err)
	}
	if back.Len() != 1 {
		t.Fatalf("legacy decode rows: %d", back.Len())
	}
	if back.Row(0).String() != tt.String() {
		t.Fatalf("legacy row mismatch: %v vs %v", back.Row(0), tt)
	}
}

func TestBatchFrameRoundTripSelection(t *testing.T) {
	b := mkColumnar(t, 10)
	view := b.SelectLogical([]int32{1, 3, 8})
	back, err := DecodeFrame(view.EncodeFrame())
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	sameRows(t, back, view)
}

func TestDecodeFrameHostile(t *testing.T) {
	cases := map[string][]byte{
		"empty":                nil,
		"bare magic":           {0xff},
		"unknown kind":         {0xff, 'Z', 0, 0, 0, 0},
		"former row-list kind": append([]byte{0xff, 'B', 0, 0, 0, 1}, mkRow("fwlogs", 1, "x").Encode()...),
		"columnar truncated":   {0xff, 'C', 0, 0, 0, 2, 'n', 's'},
		"columnar count lie":   append([]byte{0xff, 'C', 0, 0, 0, 1, 'n', 0, 1, 'x'}, 0xff, 0xff, 0xff, 0xff),
		"legacy garbage name":  {0x00, 0x00, 0x00, 0xfe, 'x'},
	}
	for name, data := range cases {
		if _, err := DecodeFrame(data); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

// A 'C' frame with no columns still pays one byte per row: a 12-byte
// frame declaring 2^28 or 2^32-1 rows is refused before anything is
// sized by the count, and a zero-column batch the writer produces still
// round-trips.
func TestDecodeFrameZeroColumnRows(t *testing.T) {
	for _, rows := range [][4]byte{{0, 0, 0, 0x10}, {0xff, 0xff, 0xff, 0xff}} {
		data := []byte{0xff, 'C', 0, 0, 0, 0, 0, 0, rows[0], rows[1], rows[2], rows[3]}
		var err error
		if allocs := testing.AllocsPerRun(10, func() { _, err = DecodeFrame(data) }); err == nil || allocs > 4 {
			t.Errorf("%x: err %v after %v allocations, want an error after a few", data, err, allocs)
		}
	}
	b := Runs([]*Tuple{New("e"), New("e"), New("e")})[0]
	back, err := DecodeFrame(b.EncodeFrame())
	if err != nil || back.Len() != 3 || back.Table() != "e" {
		t.Fatalf("zero-column round trip: %v, %v", back, err)
	}
}

// A column count reserves no more names than the input could carry: an
// 8-byte frame declaring 65535 columns is refused without reserving a
// megabyte for their names.
func TestDecodeFrameColumnCountCostsBytes(t *testing.T) {
	data := []byte{0xff, 'C', 0, 0, 0, 0, 0xff, 0xff}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, err := DecodeFrame(data); err == nil {
			t.Fatal("a frame with no room for its names decoded")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 4096 {
		t.Errorf("each refused decode allocated %d bytes", per)
	}
}

// TestValueEncodedWidths pins each kind's encoded width — kind byte plus
// payload — and a bit-exact round trip, through the legacy single-tuple
// encoding and a 'C' frame alike: ints, bools and times are zigzag
// varints, strings a uvarint length and the bytes, floats their 8 bits.
func TestValueEncodedWidths(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	cases := []struct {
		v     Value
		width int
	}{
		{Int(0), 2}, {Int(1), 2}, {Int(-1), 2}, {Int(63), 2}, {Int(-64), 2}, {Int(64), 3},
		{Int(math.MinInt64), 11}, {Int(math.MaxInt64), 11},
		{Time(time.Unix(0, 0)), 2},
		{Time(time.Date(2026, 10, 18, 12, 0, 0, 1, time.UTC)), 10},
		{Bool(false), 2}, {Bool(true), 2},
		{String(""), 2}, {String(strings.Repeat("x", 127)), 129}, {String(strings.Repeat("x", 128)), 131},
		{Float(math.Copysign(0, -1)), 9}, {Float(nan), 9}, {Float(math.Inf(1)), 9}, {Float(math.Inf(-1)), 9},
	}
	legacyHeader := len(New("t").Set("v", Null()).Encode()) - 1 // a null is its kind byte alone
	empty := len(NewColumnarBatch("t", []string{"v"}, 0).EncodeFrame())
	for _, c := range cases {
		enc := New("t").Set("v", c.v).Encode()
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: %v", c.v, err)
		}
		got, _ := back.Get("v")
		if w := len(enc) - legacyHeader; w != c.width || got != c.v {
			t.Errorf("legacy %v: width %d, round trip %v; want %d and the same bits", c.v, w, got, c.width)
		}
		b := NewColumnarBatch("t", []string{"v"}, 1)
		b.AppendRow([]Value{c.v})
		frame := b.EncodeFrame()
		fb, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%v: %v", c.v, err)
		}
		if w := len(frame) - empty; w != c.width || fb.At(0, 0) != c.v {
			t.Errorf("frame %v: width %d, round trip %v; want %d and the same bits", c.v, w, fb.At(0, 0), c.width)
		}
	}
}

// Frames must be distinguishable from every legacy single-tuple encoding:
// those always start with the table name's U32 length, whose first byte
// is 0x00 for any sane name length.
func TestFrameMagicDisjointFromLegacy(t *testing.T) {
	enc := mkRow("fwlogs", 1, "x").Encode()
	if enc[0] == frameMagic {
		t.Fatalf("legacy encoding collides with frame magic")
	}
	if fr := mkColumnar(t, 2).EncodeFrame(); fr[0] != frameMagic {
		t.Fatalf("frame does not start with magic")
	}
}

// AppendKey (value, tuple, and batch forms) must stay byte-identical to
// KeyString: group keys built via either form merge across the wire.
func TestAppendKeyMatchesKeyString(t *testing.T) {
	vals := []Value{
		Null(), Bool(true), Bool(false), Int(-42), Int(0),
		Float(3.25), Float(-0.0), String("héllo"), Bytes([]byte{0, 1, 0xff}),
		Ts(2026, 8, 7, 1, 2, 3),
	}
	for _, v := range vals {
		if got := string(v.AppendKey(nil)); got != v.KeyString() {
			t.Errorf("AppendKey(%v) = %q, KeyString = %q", v, got, v.KeyString())
		}
	}

	tt := mkRow("fwlogs", 5, "h")
	cols := []string{"src", "severity"}
	ks, ok1 := tt.KeyString(cols...)
	ab, ok2 := tt.AppendKey(nil, cols)
	if ok1 != ok2 || string(ab) != ks {
		t.Fatalf("tuple AppendKey %q/%v != KeyString %q/%v", ab, ok2, ks, ok1)
	}
	if _, ok := tt.AppendKey(nil, []string{"missing"}); ok {
		t.Fatalf("AppendKey over a missing column must report !ok")
	}

	b := mkColumnar(t, 6)
	si, _ := b.ColIndex("src")
	vi, _ := b.ColIndex("severity")
	for i := 0; i < b.Len(); i++ {
		want, _ := b.Row(i).KeyString("src", "severity")
		got := b.AppendRowKey(nil, i, []int{si, vi})
		if string(got) != want {
			t.Errorf("row %d: AppendRowKey %q != KeyString %q", i, got, want)
		}
	}
}

func TestBatchSelectionComposition(t *testing.T) {
	b := mkColumnar(t, 10)
	first := b.SelectLogical([]int32{0, 2, 4, 6, 8}) // evens
	second := first.SelectLogical([]int32{1, 3})     // physical rows 2, 6
	if second.Len() != 2 {
		t.Fatalf("len: %d", second.Len())
	}
	for i, wantPhys := range []int{2, 6} {
		want, _ := b.Row(wantPhys).Get("score")
		got, _ := second.Row(i).Get("score")
		if !Equal(got, want) {
			t.Fatalf("composed selection row %d: got %v want %v", i, got, want)
		}
	}
	pre := second.Prefix(1)
	if pre.Len() != 1 || pre.Row(0).String() != b.Row(2).String() {
		t.Fatalf("prefix after selection broken")
	}
	// The parent batches must be untouched.
	if b.Len() != 10 || first.Len() != 5 {
		t.Fatalf("derived views mutated parents")
	}
}

func TestBatchFilterTable(t *testing.T) {
	uni := mkColumnar(t, 3)
	if got := uni.FilterTable(""); got != uni {
		t.Fatalf("empty filter must return the batch unchanged")
	}
	if got := uni.FilterTable("fwlogs"); got != uni {
		t.Fatalf("matching uniform filter must return the batch unchanged")
	}
	if got := uni.FilterTable("other"); got != nil {
		t.Fatalf("non-matching uniform filter must return nil, got %v", got)
	}
	one := OfTuple(mkRow("a", 1, "x"))
	if one.FilterTable("a") != one || one.FilterTable("b") != nil {
		t.Fatalf("a batch of one filters by its tuple's table")
	}
}

// A row view caps its slices: appending to a retained view must not
// write into the batch's shared storage.
func TestBatchRowViewAppendSafety(t *testing.T) {
	b := mkColumnar(t, 3)
	before := b.Row(1).String()
	v := b.Row(0)
	v.Set("extra", Int(999)) // forces append; must reallocate, not overwrite
	if got := b.Row(1).String(); got != before {
		t.Fatalf("appending to a row view corrupted the batch: %q -> %q", before, got)
	}
}

// OfTuple aliases the tuple's names and values, and each column's kind
// is its value's.
func TestOfTupleAndRowInto(t *testing.T) {
	tt := mkRow("fwlogs", 3, "q")
	b := OfTuple(tt)
	if b.Len() != 1 || b.Row(0).String() != tt.String() || &b.Names()[0] != &tt.Columns()[0] {
		t.Fatalf("OfTuple must alias the tuple")
	}
	for c := range tt.Columns() {
		_, v := tt.At(c)
		if k, ok := b.ColKind(c); !ok || k != v.Kind() || !Equal(b.At(0, c), v) {
			t.Fatalf("column %d: kind %v (uniform %v), value %v; want %v", c, k, ok, b.At(0, c), v)
		}
	}
	cb := mkColumnar(t, 4)
	var scratch Tuple
	for i := 0; i < cb.Len(); i++ {
		cb.RowInto(i, &scratch)
		if scratch.String() != cb.Row(i).String() {
			t.Fatalf("RowInto row %d mismatch", i)
		}
	}
}

func TestBatchKindFolding(t *testing.T) {
	b := NewColumnarBatch("t", []string{"a"}, 4)
	b.AppendRow([]Value{Int(1)})
	if k, ok := b.ColKind(0); !ok || k != KindInt {
		t.Fatalf("uniform kind: %v %v", k, ok)
	}
	b.AppendRow([]Value{String("x")})
	if _, ok := b.ColKind(0); ok {
		t.Fatalf("mixed column must report !ok")
	}
}

func TestBatchFrameRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := rng.Intn(20)
		b := NewColumnarBatch("r", []string{"i", "s", "f"}, n)
		for i := 0; i < n; i++ {
			b.AppendRow([]Value{
				Int(rng.Int63n(1000) - 500),
				String(string(rune('a' + rng.Intn(26)))),
				Float(rng.NormFloat64()),
			})
		}
		enc := b.EncodeFrame()
		back, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		sameRows(t, back, b)
		if !bytes.Equal(enc, back.EncodeFrame()) {
			t.Fatalf("iter %d: re-encode not byte-identical", iter)
		}
	}
}

// A stream that changes schema every row costs O(rows) to cut into
// runs: only the first run is sized for the rows still to come.
func TestConcatAlternatingSchemasIsLinear(t *testing.T) {
	x, y := OfTuple(New("t").Set("x", Int(1))), OfTuple(New("t").Set("y", Int(2)))
	in := make([]*Batch, 2000)
	for i := range in {
		in[i] = x
		if i%2 == 1 {
			in[i] = y
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runs := Concat(in)
	runtime.ReadMemStats(&after)
	if len(runs) != len(in) {
		t.Fatalf("%d runs, want %d", len(runs), len(in))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("cutting %d alternating rows allocated %d bytes", len(in), got)
	}
}

// TestConcat pins the one place held arrivals become batches: rows in
// order, one batch per run of rows sharing one table and column list,
// kinds folded as AppendRow folds them.
func TestConcat(t *testing.T) {
	fw := func(sev Value) *Tuple {
		return New("fwlogs").Set("src", String("h")).Set("dstport", Int(22)).Set("severity", sev)
	}
	noPort := New("fwlogs").Set("src", String("h")).Set("severity", Int(1))
	reordered := New("fwlogs").Set("dstport", Int(22)).Set("src", String("h")).Set("severity", Int(1))
	other := New("alerts").Set("src", String("h")).Set("dstport", Int(22)).Set("severity", Int(1))
	cols := NewColumnarBatch("fwlogs", []string{"src", "dstport", "severity"}, 4)
	for i := int64(0); i < 4; i++ {
		cols.AppendRow([]Value{String("c"), Int(80 + i), Int(i)})
	}
	ones := func(ts ...*Tuple) []*Batch {
		out := make([]*Batch, len(ts))
		for i, t := range ts {
			out[i] = OfTuple(t)
		}
		return out
	}
	cases := []struct {
		name string
		in   []*Batch
		runs int
		// sevKind is the folded kind of severity (one-run results only);
		// mixed means ColKind reports !ok.
		sevKind Kind
		mixed   bool
	}{
		{"batches of one", ones(fw(Int(1)), fw(Int(2)), fw(Int(3))), 1, KindInt, false},
		{"selections", []*Batch{cols.SelectLogical([]int32{1, 3}), cols.Prefix(1), OfTuple(fw(Int(9)))}, 1, KindInt, false},
		{"empty inputs skipped", []*Batch{cols.Prefix(0), OfTuple(fw(Int(9))), NewColumnarBatch("alerts", nil, 0)}, 1, KindInt, false},
		{"mixed kinds", ones(fw(Int(1)), fw(Float(2.5)), fw(String("hi")), fw(Int(4))), 1, 0, true},
		{"null then int", ones(fw(Null()), fw(Int(4))), 1, 0, true},
		{"missing column", ones(fw(Int(1)), noPort, fw(Int(3))), 3, 0, false},
		{"column order", ones(fw(Int(1)), reordered), 2, 0, false},
		{"table mismatch", ones(fw(Int(1)), other), 2, 0, false},
		{"columnar then mismatch", []*Batch{cols, OfTuple(other)}, 2, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []string
			for _, b := range tc.in {
				for i := 0; i < b.Len(); i++ {
					want = append(want, b.Row(i).String())
				}
			}
			runs := Concat(tc.in)
			var rows []string
			for _, b := range runs {
				for i := 0; i < b.Len(); i++ {
					rows = append(rows, b.Row(i).String())
				}
			}
			if len(rows) != len(want) {
				t.Fatalf("%d rows, want %d", len(rows), len(want))
			}
			for i, w := range want {
				if rows[i] != w {
					t.Errorf("row %d: %s, want %s", i, rows[i], w)
				}
			}
			if len(runs) != tc.runs {
				t.Fatalf("%d runs, want %d", len(runs), tc.runs)
			}
			if tc.runs > 1 {
				return
			}
			got := runs[0]
			ci, _ := got.ColIndex("severity")
			k, ok := got.ColKind(ci)
			if ok == tc.mixed || (ok && k != tc.sevKind) {
				t.Errorf("severity kind %v (uniform %v), want %v (mixed %v)", k, ok, tc.sevKind, tc.mixed)
			}
			if si, _ := got.ColIndex("src"); !tc.mixed {
				if k, ok := got.ColKind(si); !ok || k != KindString {
					t.Errorf("src kind %v (uniform %v), want string", k, ok)
				}
			}
		})
	}
	if one := OfTuple(noPort); Concat([]*Batch{one})[0] != one {
		t.Errorf("a single input must be returned as is")
	}
	if got := Concat(ones(fw(Int(1)), other)); got[0].Table() != "fwlogs" || got[1].Table() != "alerts" {
		t.Errorf("a table mismatch gave tables %q and %q", got[0].Table(), got[1].Table())
	}
}
