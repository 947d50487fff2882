package tuple

import (
	"bytes"
	"math/rand"
	"testing"
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
	if !back.Columnar() {
		t.Fatalf("columnar frame decoded as row-backed")
	}
	if back.Table() != "fwlogs" {
		t.Fatalf("table: got %q", back.Table())
	}
	sameRows(t, back, b)
}

func TestBatchFrameRoundTripRows(t *testing.T) {
	rows := []*Tuple{
		mkRow("fwlogs", 5, "a"),
		mkRow("dnslogs", 2, "b"), // heterogeneous tables force 'B'
		New("empty"),
	}
	b := FromTuples(rows)
	if b.Table() != "" {
		t.Fatalf("mixed tables should yield empty common table, got %q", b.Table())
	}
	back, err := DecodeFrame(b.EncodeFrame())
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if back.Columnar() {
		t.Fatalf("row frame decoded as columnar")
	}
	sameRows(t, back, b)
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
		"empty":               nil,
		"bare magic":          {0xff},
		"unknown kind":        {0xff, 'Z', 0, 0, 0, 0},
		"rows count lie":      {0xff, 'B', 0xff, 0xff, 0xff, 0xff},
		"columnar truncated":  {0xff, 'C', 0, 0, 0, 2, 'n', 's'},
		"columnar count lie":  append([]byte{0xff, 'C', 0, 0, 0, 1, 'n', 0, 1, 'x'}, 0xff, 0xff, 0xff, 0xff),
		"legacy garbage name": {0x00, 0x00, 0x00, 0xfe, 'x'},
	}
	for name, data := range cases {
		if _, err := DecodeFrame(data); err == nil {
			t.Errorf("%s: expected error, got none", name)
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
	mixed := FromTuples([]*Tuple{
		mkRow("a", 1, "x"), mkRow("b", 2, "y"), mkRow("a", 3, "z"),
	})
	onlyA := mixed.FilterTable("a")
	if onlyA == nil || onlyA.Len() != 2 {
		t.Fatalf("mixed filter: %v", onlyA)
	}
	for i := 0; i < onlyA.Len(); i++ {
		if onlyA.Row(i).Table() != "a" {
			t.Fatalf("row %d has table %q", i, onlyA.Row(i).Table())
		}
	}
	if mixed.FilterTable("zz") != nil {
		t.Fatalf("no-match mixed filter must return nil")
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

func TestOfTupleAndRowInto(t *testing.T) {
	tt := mkRow("fwlogs", 3, "q")
	b := OfTuple(tt)
	if b.Len() != 1 || b.Row(0) != tt {
		t.Fatalf("OfTuple must wrap the same tuple")
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

// TestConcat pins the one place held arrivals become a batch: rows in
// order, columnar exactly when every row shares one table and column
// list, kinds folded as AppendRow folds them, and row-backed otherwise.
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
		name     string
		in       []*Batch
		columnar bool
		// sevKind is the folded kind of severity (columnar results only);
		// mixed means ColKind reports !ok.
		sevKind Kind
		mixed   bool
	}{
		{"batches of one", ones(fw(Int(1)), fw(Int(2)), fw(Int(3))), true, KindInt, false},
		{"selections", []*Batch{cols.SelectLogical([]int32{1, 3}), cols.Prefix(1), OfTuple(fw(Int(9)))}, true, KindInt, false},
		{"empty inputs skipped", []*Batch{cols.Prefix(0), OfTuple(fw(Int(9))), FromTuples(nil)}, true, KindInt, false},
		{"mixed kinds", ones(fw(Int(1)), fw(Float(2.5)), fw(String("hi")), fw(Int(4))), true, 0, true},
		{"null then int", ones(fw(Null()), fw(Int(4))), true, 0, true},
		{"missing column", ones(fw(Int(1)), noPort, fw(Int(3))), false, 0, false},
		{"column order", ones(fw(Int(1)), reordered), false, 0, false},
		{"table mismatch", ones(fw(Int(1)), other), false, 0, false},
		{"columnar then mismatch", []*Batch{cols, OfTuple(other)}, false, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []string
			for _, b := range tc.in {
				for i := 0; i < b.Len(); i++ {
					want = append(want, b.Row(i).String())
				}
			}
			got := Concat(tc.in)
			if got.Len() != len(want) {
				t.Fatalf("%d rows, want %d", got.Len(), len(want))
			}
			for i, w := range want {
				if s := got.Row(i).String(); s != w {
					t.Errorf("row %d: %s, want %s", i, s, w)
				}
			}
			if got.Columnar() != tc.columnar {
				t.Fatalf("columnar = %v, want %v", got.Columnar(), tc.columnar)
			}
			if !tc.columnar {
				return
			}
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
	if one := OfTuple(noPort); Concat([]*Batch{one}) != one {
		t.Errorf("a single input must be returned as is")
	}
	if got := Concat(ones(fw(Int(1)), other)); got.Table() != "" {
		t.Errorf("a table mismatch gave table %q, want the mixed-table \"\"", got.Table())
	}
}
