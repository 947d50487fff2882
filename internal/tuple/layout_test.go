package tuple

import (
	"math"
	"testing"
	"unsafe"

	"pier/internal/wire"
)

// Tests that pin the Value layout (value.go): 32 bytes, every fixed-width
// kind in one word, both variable-width kinds in one string.

func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// edge is a number whose bits a float stored in an int64 word could lose
// or confuse, beside the Go number it was built from.
type edge struct {
	v     Value
	f     float64 // the float, or the int widened
	i     int64
	isInt bool
}

// edgeNumbers: signed zero, NaN, the infinities, subnormals, and the
// most negative int beside its float.
func edgeNumbers() []edge {
	var es []edge
	for _, f := range []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MinInt64} {
		es = append(es, edge{v: Float(f), f: f})
	}
	for _, i := range []int64{math.MinInt64, math.MaxInt64, 0} {
		es = append(es, edge{v: Int(i), f: float64(i), i: i, isInt: true})
	}
	return es
}

// refCompare is Compare's numeric ordering on the Go numbers.
func refCompare(a, b edge) int {
	if a.isInt && b.isInt {
		return cmpOrdered(a.i, b.i)
	}
	return cmpOrdered(a.f, b.f)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestEdgeNumbersEveryPath(t *testing.T) {
	edges := edgeNumbers()
	names := []string{"v"}

	// The two frame encodings: a 'C' frame holding every value in one
	// (mixed-kind) column, and each value's legacy single-tuple frame.
	cb := NewColumnarBatch("t", names, len(edges))
	for _, e := range edges {
		cb.AppendRow([]Value{e.v})
	}
	cFrame, err := DecodeFrame(cb.EncodeFrame())
	if err != nil {
		t.Fatal(err)
	}

	for i, e := range edges {
		v := e.v
		if f, ok := v.AsFloat(); !ok || !sameBits(f, e.f) {
			t.Errorf("%d %v: AsFloat = %v (bits %x), want bits %x", i, v, f, math.Float64bits(f), math.Float64bits(e.f))
		}
		if ks, ak := v.KeyString(), string(v.AppendKey(nil)); ks != ak {
			t.Errorf("%d %v: KeyString %q != AppendKey %q", i, v, ks, ak)
		}

		// Every codec returns the identical Value: same kind, same bits.
		w := wire.NewWriter(0)
		New("t").Set("v", v).EncodeTo(w)
		r := wire.NewReader(w.Bytes())
		dec, _ := DecodeFrom(r).Get("v")
		if r.Err() != nil || dec != v {
			t.Errorf("%d %v: EncodeTo/DecodeFrom gave %v (err %v)", i, v, dec, r.Err())
		}
		if got := cFrame.At(i, 0); got != v {
			t.Errorf("%d %v: 'C' frame gave %v", i, v, got)
		}
		if leg, err := DecodeFrame(New("t").Set("v", v).Encode()); err != nil || leg.At(0, 0) != v {
			t.Errorf("%d %v: legacy frame gave %v (err %v)", i, v, leg, err)
		}

		// Compare, and the typed compare kernel over a one-row column.
		col := NewColumnarBatch("t", names, 1)
		col.AppendRow([]Value{v})
		for _, u := range edges {
			want := refCompare(e, u)
			if got, ok := Compare(v, u.v); !ok || got != want {
				t.Errorf("Compare(%v, %v) = %d,%v want %d", v, u.v, got, ok, want)
			}
			tbl, out := [3]int8{-1, 0, 1}, []int8{0}
			if !col.CmpKernel(0, Value{}, -1, u.v, &tbl, out) || int(out[0]) != want {
				t.Errorf("CmpKernel(%v, %v) = %d, want %d", v, u.v, out[0], want)
			}
		}
	}
}

// TestFoldKernelsEdgeNumbers folds uniform float and int columns of edge
// numbers with the sum/min/max/avg kernels and checks each slot against
// the row path: the AggState.Add sequence over At, bit for bit.
func TestFoldKernelsEdgeNumbers(t *testing.T) {
	var floats, ints []Value
	for _, e := range edgeNumbers() {
		if e.isInt {
			ints = append(ints, e.v)
		} else {
			floats = append(floats, e.v)
		}
	}
	for _, col := range [][]Value{floats, ints} {
		// Every ordering matters for NaN and signed zero, so fold each
		// rotation of the column into its own slot.
		n := len(col)
		b := NewColumnarBatch("t", []string{"v"}, n*n)
		var slots []int32
		for s := 0; s < n; s++ {
			for k := 0; k < n; k++ {
				b.AppendRow([]Value{col[(s+k)%n]})
				slots = append(slots, int32(s))
			}
		}
		kind := col[0].Kind()

		// Row path.
		sumI, sumF := make([]int64, n), make([]float64, n)
		sumIsF := make([]bool, n)
		minB, maxB := make([]Value, n), make([]Value, n)
		avgS, avgN := make([]float64, n), make([]int64, n)
		for i := 0; i < b.Len(); i++ {
			v, s := b.At(i, 0), slots[i]
			if iv, ok := v.AsInt(); ok {
				sumI[s] += iv
			} else if f, ok := v.AsFloat(); ok {
				if !sumIsF[s] {
					sumF[s], sumIsF[s] = float64(sumI[s]), true
				}
				sumF[s] += f
			}
			for _, m := range []struct {
				best []Value
				min  bool
			}{{minB, true}, {maxB, false}} {
				if m.best[s].IsNull() {
					m.best[s] = v
				} else if c, ok := Compare(v, m.best[s]); ok && ((m.min && c < 0) || (!m.min && c > 0)) {
					m.best[s] = v
				}
			}
			f, _ := v.AsFloat()
			avgS[s] += f
			avgN[s]++
		}

		// Kernel path.
		kSum, kAvgS, kAvgN := make([]float64, n), make([]float64, n), make([]int64, n)
		kSumI, kIsF, kAny := make([]int64, n), make([]bool, n), make([]bool, n)
		if !b.FoldAvgCol(0, slots, kAvgS, kAvgN) {
			t.Fatalf("%v: FoldAvgCol refused a uniform column", kind)
		}
		for s := 0; s < n; s++ {
			if !sameBits(kAvgS[s], avgS[s]) || kAvgN[s] != avgN[s] {
				t.Errorf("%v slot %d: avg kernel %v/%d, row path %v/%d", kind, s, kAvgS[s], kAvgN[s], avgS[s], avgN[s])
			}
		}
		for _, min := range []bool{true, false} {
			want := maxB
			if min {
				want = minB
			}
			bestF, bestI, any := make([]float64, n), make([]int64, n), make([]bool, n)
			var ok bool
			if kind == KindFloat {
				ok = b.FoldMinMaxFloat64Col(0, min, slots, bestF, any)
			} else {
				ok = b.FoldMinMaxInt64Col(0, min, slots, bestI, any)
			}
			if !ok {
				t.Fatalf("%v: min/max kernel refused a uniform column", kind)
			}
			for s := 0; s < n; s++ {
				got := Int(bestI[s])
				if kind == KindFloat {
					got = Float(bestF[s])
				}
				if got != want[s] {
					t.Errorf("%v slot %d min=%v: kernel %v, row path %v", kind, s, min, got, want[s])
				}
			}
		}
		if kind == KindFloat {
			if !b.FoldSumFloat64Col(0, slots, kSumI, kSum, kIsF, kAny) {
				t.Fatal("FoldSumFloat64Col refused a uniform float column")
			}
			for s := 0; s < n; s++ {
				if !sameBits(kSum[s], sumF[s]) || !kAny[s] {
					t.Errorf("float slot %d: sum kernel %v, row path %v", s, kSum[s], sumF[s])
				}
			}
		} else {
			if !b.FoldSumInt64Col(0, slots, kSumI, kAny) {
				t.Fatal("FoldSumInt64Col refused a uniform int column")
			}
			for s := 0; s < n; s++ {
				if kSumI[s] != sumI[s] || !kAny[s] {
					t.Errorf("int slot %d: sum kernel %d, row path %d", s, kSumI[s], sumI[s])
				}
			}
		}
	}
}

// TestBytesValueOwnsItsPayload: Bytes copies its argument, AsBytes hands
// out a copy, and empty and non-UTF-8 payloads survive every codec.
func TestBytesValueOwnsItsPayload(t *testing.T) {
	src := []byte{1, 2, 3}
	v := Bytes(src)
	src[0] = 9
	got, _ := v.AsBytes()
	if got[0] != 1 {
		t.Fatalf("Bytes aliases its source: %v", got)
	}
	got[1] = 9
	if again, _ := v.AsBytes(); again[1] != 2 {
		t.Fatalf("AsBytes aliases the value: %v", again)
	}

	for _, p := range [][]byte{{}, nil, {0xff, 0xfe, 0x00, 0xc3}} {
		v := Bytes(p)
		cb := NewColumnarBatch("t", []string{"y"}, 1)
		cb.AppendRow([]Value{v})
		c, err := DecodeFrame(cb.EncodeFrame())
		if err != nil {
			t.Fatal(err)
		}
		d, err := Decode(New("t").Set("y", v).Encode())
		if err != nil {
			t.Fatal(err)
		}
		dv, _ := d.Get("y")
		for _, rt := range []Value{c.At(0, 0), dv} {
			b, ok := rt.AsBytes()
			if !ok || string(b) != string(p) || rt != v {
				t.Errorf("payload %x round-tripped to %v (%x, ok=%v)", p, rt, b, ok)
			}
		}
		if c, ok := Compare(v, Bytes(append([]byte{}, p...))); !ok || c != 0 {
			t.Errorf("payload %x does not equal its copy", p)
		}
	}
	// Both codecs write a bytes payload exactly as VarString would: a
	// one-byte length, then the bytes.
	w := wire.NewWriter(0)
	Bytes([]byte{0xff, 0}).encodeTo(w)
	want := wire.NewWriter(0)
	want.U8(uint8(KindBytes))
	want.VarString("\xff\x00")
	if string(w.Bytes()) != string(want.Bytes()) {
		t.Errorf("bytes encode %x, want %x", w.Bytes(), want.Bytes())
	}
}
