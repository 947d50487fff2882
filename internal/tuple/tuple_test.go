package tuple

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"pier/internal/wire"
)

func TestValueAccessors(t *testing.T) {
	if v, ok := Int(7).AsInt(); !ok || v != 7 {
		t.Error("AsInt")
	}
	if v, ok := Float(2.5).AsFloat(); !ok || v != 2.5 {
		t.Error("AsFloat")
	}
	if v, ok := Int(3).AsFloat(); !ok || v != 3.0 {
		t.Error("AsFloat must widen ints")
	}
	if v, ok := String("x").AsString(); !ok || v != "x" {
		t.Error("AsString")
	}
	if v, ok := Bool(true).AsBool(); !ok || !v {
		t.Error("AsBool")
	}
	ts := time.Date(2004, 9, 1, 0, 0, 0, 0, time.UTC)
	if v, ok := Time(ts).AsTime(); !ok || !v.Equal(ts) {
		t.Error("AsTime")
	}
	if !Null().IsNull() {
		t.Error("IsNull")
	}
	// Cross-kind extraction fails cleanly.
	if _, ok := String("5").AsInt(); ok {
		t.Error("string should not extract as int")
	}
	if _, ok := Int(1).AsBool(); ok {
		t.Error("int should not extract as bool")
	}
}

func TestCompareNumericWidening(t *testing.T) {
	c, ok := Compare(Int(2), Float(2.5))
	if !ok || c != -1 {
		t.Errorf("Compare(2, 2.5) = %d,%v", c, ok)
	}
	c, ok = Compare(Float(3.0), Int(3))
	if !ok || c != 0 {
		t.Errorf("Compare(3.0, 3) = %d,%v", c, ok)
	}
}

func TestCompareIncompatibleKinds(t *testing.T) {
	if _, ok := Compare(Int(1), String("1")); ok {
		t.Error("int vs string must be incomparable (malformed-tuple policy)")
	}
	if _, ok := Compare(Null(), Null()); ok {
		t.Error("null vs null must be incomparable")
	}
	if _, ok := Compare(Bool(true), Int(1)); ok {
		t.Error("bool vs int must be incomparable")
	}
}

func TestCompareBytesLexicographic(t *testing.T) {
	cases := []struct {
		a, b []byte
		want int
	}{
		{[]byte{1}, []byte{2}, -1},
		{[]byte{2}, []byte{1}, 1},
		{[]byte{1, 2}, []byte{1, 2}, 0},
		{[]byte{1}, []byte{1, 0}, -1},
		{nil, nil, 0},
	}
	for _, c := range cases {
		got, ok := Compare(Bytes(c.a), Bytes(c.b))
		if !ok || got != c.want {
			t.Errorf("Compare(%v,%v) = %d,%v want %d", c.a, c.b, got, ok, c.want)
		}
	}
}

func TestKeyStringInjectivePerKind(t *testing.T) {
	pairs := [][2]Value{
		{Int(12), Int(123)},
		{String("ab"), String("abc")},
		{Float(1.5), Float(1.25)},
		{Bool(true), Bool(false)},
		{Time(time.Unix(1, 0)), Time(time.Unix(2, 0))},
	}
	for _, p := range pairs {
		if p[0].KeyString() == p[1].KeyString() {
			t.Errorf("KeyString collision: %v vs %v", p[0], p[1])
		}
	}
	// Kind prefixes prevent cross-kind collisions like 1 vs "1".
	if Int(1).KeyString() == String("1").KeyString() {
		t.Error("cross-kind KeyString collision")
	}
}

func TestTupleSetGetProject(t *testing.T) {
	tp := New("fw").
		Set("src", String("10.0.0.1")).
		Set("count", Int(12))
	if v, ok := tp.Get("src"); !ok || v.String() != "10.0.0.1" {
		t.Error("Get src")
	}
	if _, ok := tp.Get("missing"); ok {
		t.Error("Get missing should fail")
	}
	tp.Set("count", Int(13)) // overwrite
	if v, _ := tp.Get("count"); v.String() != "13" {
		t.Error("Set overwrite")
	}
	p := tp.Project("count", "nope")
	if p.Len() != 1 {
		t.Errorf("Project len = %d", p.Len())
	}
	if p.Table() != "fw" {
		t.Errorf("Project table = %s", p.Table())
	}
}

func TestTupleKeyString(t *testing.T) {
	tp := New("t").Set("a", Int(1)).Set("b", String("x"))
	k1, ok := tp.KeyString("a", "b")
	if !ok {
		t.Fatal("KeyString failed")
	}
	k2, _ := New("t").Set("a", Int(1)).Set("b", String("x")).KeyString("a", "b")
	if k1 != k2 {
		t.Error("KeyString not deterministic")
	}
	if _, ok := tp.KeyString("a", "missing"); ok {
		t.Error("KeyString with absent column must fail")
	}
	// Multi-column keys must not alias across column boundaries.
	ka, _ := New("t").Set("a", String("xy")).Set("b", String("z")).KeyString("a", "b")
	kb, _ := New("t").Set("a", String("x")).Set("b", String("yz")).KeyString("a", "b")
	if ka == kb {
		t.Error("multi-column key aliasing")
	}
}

func TestJoinPrefixing(t *testing.T) {
	r := New("R").Set("id", Int(1)).Set("v", String("r"))
	s := New("S").Set("id", Int(1)).Set("v", String("s"))
	j := Join("out", r, s, true)
	if v, ok := j.Get("R.v"); !ok || v.String() != "r" {
		t.Error("R.v missing")
	}
	if v, ok := j.Get("S.v"); !ok || v.String() != "s" {
		t.Error("S.v missing")
	}
	// Without prefixing, later tuple wins the collision.
	j2 := Join("out", r, s, false)
	if v, _ := j2.Get("v"); v.String() != "s" {
		t.Error("unprefixed join should overwrite with right side")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tp := New("events").
		Set("src", String("1.2.3.4")).
		Set("port", Int(443)).
		Set("score", Float(0.99)).
		Set("blocked", Bool(true)).
		Set("raw", Bytes([]byte{0xde, 0xad})).
		Set("at", Time(time.Date(2004, 6, 1, 2, 3, 4, 5, time.UTC))).
		Set("note", Null())
	got, err := Decode(tp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Table() != "events" || got.Len() != tp.Len() {
		t.Fatalf("decoded %s", got)
	}
	for i := 0; i < tp.Len(); i++ {
		name, want := tp.At(i)
		v, ok := got.Get(name)
		if !ok {
			t.Fatalf("column %s lost", name)
		}
		if want.IsNull() {
			if !v.IsNull() {
				t.Errorf("%s: want null", name)
			}
			continue
		}
		if !Equal(v, want) {
			t.Errorf("%s: got %v want %v", name, v, want)
		}
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	if _, err := Decode([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}); err == nil {
		t.Error("garbage should not decode")
	}
}

func TestDecodeUnknownKindBecomesNull(t *testing.T) {
	// Forward compatibility: an unknown kind tag decodes as null rather
	// than failing the whole tuple.
	tp := New("t").Set("a", Int(1))
	enc := tp.Encode()
	// Corrupt the kind byte of column "a": the encoding ends with its
	// value, kind byte first.
	val := wire.NewWriter(0)
	Int(1).encodeTo(val)
	enc[len(enc)-val.Len()] = 0x7f
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	v, ok := got.Get("a")
	if !ok || !v.IsNull() {
		t.Errorf("got %v, want null", v)
	}
}

func TestCloneIsolation(t *testing.T) {
	a := New("t").Set("x", Int(1))
	b := a.Clone()
	b.Set("x", Int(2))
	if v, _ := a.Get("x"); v.String() != "1" {
		t.Error("Clone not isolated")
	}
}

func TestPropertyValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		c1, ok1 := Compare(Int(a), Int(b))
		c2, ok2 := Compare(Int(b), Int(a))
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncodeDecodeArbitraryTuples(t *testing.T) {
	f := func(table string, si string, iv int64, fv float64, bv bool, raw []byte) bool {
		if math.IsNaN(fv) {
			fv = 0
		}
		tp := New(table).
			Set("s", String(si)).
			Set("i", Int(iv)).
			Set("f", Float(fv)).
			Set("b", Bool(bv)).
			Set("y", Bytes(raw))
		got, err := Decode(tp.Encode())
		if err != nil {
			return false
		}
		if got.Table() != table {
			return false
		}
		gs, _ := got.Get("s")
		gi, _ := got.Get("i")
		gf, _ := got.Get("f")
		gb, _ := got.Get("b")
		gy, _ := got.Get("y")
		ys, _ := gy.AsBytes()
		return Equal(gs, String(si)) && Equal(gi, Int(iv)) &&
			Equal(gf, Float(fv)) && Equal(gb, Bool(bv)) &&
			reflect.DeepEqual(append([]byte{}, ys...), append([]byte{}, raw...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyKeyStringDistinctInts(t *testing.T) {
	f := func(a, b int64) bool {
		if a == b {
			return true
		}
		return Int(a).KeyString() != Int(b).KeyString()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
