package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"pier/internal/tuple"
)

func row() *tuple.Tuple {
	return tuple.New("t").
		Set("a", tuple.Int(5)).
		Set("b", tuple.Int(3)).
		Set("name", tuple.String("alice")).
		Set("score", tuple.Float(2.5)).
		Set("ok", tuple.Bool(true))
}

// evalBool parses and evaluates src against row(), failing the test on
// parse errors.
func evalBool(t *testing.T, src string, tp *tuple.Tuple) (bool, bool) {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, ok := e.Eval(tp)
	if !ok {
		return false, false
	}
	b, ok := v.AsBool()
	if !ok {
		t.Fatalf("%q did not yield bool", src)
	}
	return b, true
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"a = 5", true},
		{"a != 5", false},
		{"a <> 4", true},
		{"a < 6", true},
		{"a <= 5", true},
		{"a > 5", false},
		{"a >= 5", true},
		{"name = 'alice'", true},
		{"name != 'bob'", true},
		{"score > 2", true},
		{"score < a", true}, // float vs int widening
	}
	for _, c := range cases {
		got, ok := evalBool(t, c.src, row())
		if !ok {
			t.Errorf("%q: malformed", c.src)
			continue
		}
		if got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestBooleanLogicAndPrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"a = 5 AND b = 3", true},
		{"a = 5 AND b = 4", false},
		{"a = 4 OR b = 3", true},
		{"NOT a = 4", true},
		// AND binds tighter than OR.
		{"a = 4 OR a = 5 AND b = 3", true},
		{"(a = 4 OR a = 5) AND b = 4", false},
		{"NOT (a = 5 AND b = 3)", false},
	}
	for _, c := range cases {
		got, ok := evalBool(t, c.src, row())
		if !ok {
			t.Errorf("%q: malformed", c.src)
			continue
		}
		if got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want tuple.Value
	}{
		{"a + b", tuple.Int(8)},
		{"a - b", tuple.Int(2)},
		{"a * b", tuple.Int(15)},
		{"a / b", tuple.Int(1)},
		{"a % b", tuple.Int(2)},
		{"-a", tuple.Int(-5)},
		{"a + score", tuple.Float(7.5)},
		{"a * 2 + b", tuple.Int(13)}, // precedence
		{"a * (2 + b)", tuple.Int(25)},
		{"name + '!'", tuple.String("alice!")},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		v, ok := e.Eval(row())
		if !ok {
			t.Errorf("%q: malformed", c.src)
			continue
		}
		if !tuple.Equal(v, c.want) {
			t.Errorf("%q = %v, want %v", c.src, v, c.want)
		}
	}
}

func TestDivisionByZeroIsMalformed(t *testing.T) {
	for _, src := range []string{"a / 0", "a % 0", "score / 0"} {
		e := MustParse(src)
		if _, ok := e.Eval(row()); ok {
			t.Errorf("%q should be malformed", src)
		}
	}
}

func TestMissingColumnIsMalformed(t *testing.T) {
	e := MustParse("ghost = 1")
	if _, ok := e.Eval(row()); ok {
		t.Error("reference to absent column must mark tuple malformed")
	}
}

func TestIncompatibleComparisonIsMalformed(t *testing.T) {
	e := MustParse("name > 5")
	if _, ok := e.Eval(row()); ok {
		t.Error("string>int must mark tuple malformed (best-effort policy)")
	}
}

func TestShortCircuitSkipsMalformedRight(t *testing.T) {
	// a=4 is false; AND short-circuits before evaluating the malformed
	// right side, so the tuple survives with result false.
	got, ok := evalBool(t, "a = 4 AND ghost = 1", row())
	if !ok {
		t.Fatal("short-circuit AND should not evaluate right side")
	}
	if got {
		t.Error("want false")
	}
	got, ok = evalBool(t, "a = 5 OR ghost = 1", row())
	if !ok || !got {
		t.Error("short-circuit OR should yield true")
	}
}

func TestFunctions(t *testing.T) {
	cases := []struct {
		src  string
		want tuple.Value
	}{
		{"length(name)", tuple.Int(5)},
		{"upper(name)", tuple.String("ALICE")},
		{"lower('ABC')", tuple.String("abc")},
		{"abs(-3)", tuple.Int(3)},
		{"abs(b - a)", tuple.Int(2)},
		{"contains(name, 'lic')", tuple.Bool(true)},
		{"startswith(name, 'al')", tuple.Bool(true)},
		{"coalesce(NULL, a)", tuple.Int(5)},
		{"isnull(NULL)", tuple.Bool(true)},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		v, ok := e.Eval(row())
		if !ok {
			t.Errorf("%q: malformed", c.src)
			continue
		}
		if !tuple.Equal(v, c.want) && !(v.IsNull() && c.want.IsNull()) {
			t.Errorf("%q = %v, want %v", c.src, v, c.want)
		}
	}
}

// TestUnknownFunctionIsMalformed: a call naming no built-in function is
// refused at parse time, not accepted and then evaluated as malformed on
// every row. Function names are case-insensitive.
func TestUnknownFunctionIsMalformed(t *testing.T) {
	for _, src := range []string{"nosuchfn(a)", "nosuchfn(a) = 1", "a > 1 AND triple(a) = 15"} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "unknown function") {
			t.Errorf("Parse(%q) err = %v, want unknown function", src, err)
		}
	}
	if _, err := Parse("UPPER(name) = 'ALICE'"); err != nil {
		t.Errorf("Parse(UPPER(...)): %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "a +", "(a", "a = ", "'unterminated", "a ? b", "f(a,", "1.2.3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	e := MustParse("name = 'it''s'")
	tp := tuple.New("t").Set("name", tuple.String("it's"))
	v, ok := e.Eval(tp)
	if !ok {
		t.Fatal("malformed")
	}
	if b, _ := v.AsBool(); !b {
		t.Error("escaped quote mismatch")
	}
}

func TestQualifiedColumnNames(t *testing.T) {
	tp := tuple.New("j").Set("R.id", tuple.Int(1)).Set("S.id", tuple.Int(1))
	got, ok := evalBool(t, "R.id = S.id", tp)
	if !ok || !got {
		t.Error("qualified names must evaluate")
	}
}

func TestStringRendersParseable(t *testing.T) {
	// Round-trip: parse, render, re-parse, evaluate identically.
	srcs := []string{
		"a = 5 AND b < 10 OR NOT ok",
		"length(name) + 2 * a",
		"name = 'it''s'",
	}
	for _, src := range srcs {
		e1 := MustParse(src)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Errorf("re-parse %q (rendered %q): %v", src, e1.String(), err)
			continue
		}
		v1, ok1 := e1.Eval(row())
		v2, ok2 := e2.Eval(row())
		if ok1 != ok2 || (ok1 && !tuple.Equal(v1, v2)) {
			t.Errorf("%q: eval mismatch after round trip", src)
		}
	}
}

func TestPropertyIntComparisonMatchesGo(t *testing.T) {
	e := MustParse("x < y")
	f := func(x, y int64) bool {
		tp := tuple.New("t").Set("x", tuple.Int(x)).Set("y", tuple.Int(y))
		v, ok := e.Eval(tp)
		if !ok {
			return false
		}
		b, _ := v.AsBool()
		return b == (x < y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyArithmeticMatchesGo(t *testing.T) {
	e := MustParse("x * 2 + y")
	f := func(x, y int64) bool {
		// Avoid overflow distraction: bound inputs.
		x %= 1 << 30
		y %= 1 << 30
		tp := tuple.New("t").Set("x", tuple.Int(x)).Set("y", tuple.Int(y))
		v, ok := e.Eval(tp)
		if !ok {
			return false
		}
		i, _ := v.AsInt()
		return i == x*2+y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
