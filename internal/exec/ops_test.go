package exec

import (
	"fmt"
	"testing"

	"pier/internal/expr"
	"pier/internal/tuple"
)

// collect gathers the rows an operator chain emits, with each row's tag.
type collect struct {
	tuples []*tuple.Tuple
	tags   []Tag
}

func (c *collect) PushBatch(tag Tag, b *tuple.Batch) {
	for i, n := 0, b.Len(); i < n; i++ {
		c.tuples = append(c.tuples, b.Row(i))
		c.tags = append(c.tags, tag)
	}
}

// push hands s one row the way a lone row enters any edge: a row-backed
// batch of one, which takes each operator's reference branch.
func push(s Sink, tag Tag, t *tuple.Tuple) { s.PushBatch(tag, tuple.OfTuple(t)) }

func (c *collect) strings() []string {
	out := make([]string, len(c.tuples))
	for i, t := range c.tuples {
		out[i] = t.String()
	}
	return out
}

func row(vals ...int64) *tuple.Tuple {
	t := tuple.New("t")
	for i, v := range vals {
		t.Set(fmt.Sprintf("c%d", i), tuple.Int(v))
	}
	return t
}

func TestSelectFiltersAndDiscardsMalformed(t *testing.T) {
	sel := NewSelect(expr.MustParse("c0 > 10"))
	out := &collect{}
	sel.SetParent(out)
	in := NewInput()
	sel.SetChild(in)
	sel.Open(1)

	push(in, 0, row(5))
	push(in, 0, row(15))
	push(in, 0, tuple.New("t").Set("other", tuple.Int(99))) // malformed: no c0
	push(in, 0, row(20))

	if len(out.tuples) != 2 {
		t.Fatalf("emitted %d, want 2: %v", len(out.tuples), out.strings())
	}
	if sel.Dropped.Count() != 1 {
		t.Errorf("dropped = %d, want 1 (the malformed tuple)", sel.Dropped.Count())
	}
}

func TestSelectPropagatesTag(t *testing.T) {
	sel := NewSelect(expr.TruePredicate)
	out := &collect{}
	sel.SetParent(out)
	in := NewInput()
	sel.SetChild(in)
	sel.Open(42)
	push(in, 0, row(1))
	if len(out.tags) != 1 || out.tags[0] != 42 {
		t.Fatalf("tags = %v, want [42]", out.tags)
	}
}

func TestProjectComputesExpressions(t *testing.T) {
	p := NewProject(
		ProjectCol{Name: "double", E: expr.MustParse("c0 * 2")},
		ProjectCol{Name: "label", E: expr.MustParse("'x'")},
	)
	out := &collect{}
	p.SetParent(out)
	in := NewInput()
	p.SetChild(in)
	p.Open(1)
	push(in, 0, row(21))
	if len(out.tuples) != 1 {
		t.Fatal("no output")
	}
	if v, _ := out.tuples[0].Get("double"); v.String() != "42" {
		t.Errorf("double = %v", v)
	}
	if out.tuples[0].Len() != 2 {
		t.Errorf("projected tuple has %d cols", out.tuples[0].Len())
	}
}

func TestProjectDiscardsMalformed(t *testing.T) {
	p := NewProject(ProjectCol{Name: "x", E: expr.MustParse("ghost + 1")})
	out := &collect{}
	p.SetParent(out)
	in := NewInput()
	p.SetChild(in)
	p.Open(1)
	push(in, 0, row(1))
	if len(out.tuples) != 0 || p.Dropped.Count() != 1 {
		t.Errorf("emitted=%d dropped=%d", len(out.tuples), p.Dropped.Count())
	}
}

func TestTeeReplicates(t *testing.T) {
	tee := NewTee()
	a, b := &collect{}, &collect{}
	tee.AddParent(a)
	tee.AddParent(b)
	in := NewInput()
	tee.SetChild(in)
	tee.Open(1)
	push(in, 0, row(7))
	if len(a.tuples) != 1 || len(b.tuples) != 1 {
		t.Fatalf("a=%d b=%d, want 1 each", len(a.tuples), len(b.tuples))
	}
}

func TestUnionMergesChildren(t *testing.T) {
	u := NewUnion()
	in1, in2 := NewInput(), NewInput()
	u.AddChild(in1)
	u.AddChild(in2)
	out := &collect{}
	u.SetParent(out)
	u.Open(1)
	push(in1, 0, row(1))
	push(in2, 0, row(2))
	push(in1, 0, row(3))
	if len(out.tuples) != 3 {
		t.Fatalf("union emitted %d, want 3", len(out.tuples))
	}
}

func TestDupElimWholeTuple(t *testing.T) {
	d := NewDupElim()
	out := &collect{}
	d.SetParent(out)
	in := NewInput()
	d.SetChild(in)
	d.Open(1)
	push(in, 0, row(1))
	push(in, 0, row(1))
	push(in, 0, row(2))
	push(in, 0, row(1))
	if len(out.tuples) != 2 {
		t.Fatalf("emitted %d, want 2", len(out.tuples))
	}
}

func TestDupElimByColumnSubset(t *testing.T) {
	d := NewDupElim("c0")
	out := &collect{}
	d.SetParent(out)
	in := NewInput()
	d.SetChild(in)
	d.Open(1)
	push(in, 0, row(1, 10))
	push(in, 0, row(1, 20)) // same c0, different c1: still a dup
	push(in, 0, row(2, 10))
	if len(out.tuples) != 2 {
		t.Fatalf("emitted %d, want 2", len(out.tuples))
	}
}

func TestDupElimPerProbeIsolation(t *testing.T) {
	d := NewDupElim()
	out := &collect{}
	d.SetParent(out)
	push(d, 1, row(5))
	push(d, 2, row(5)) // different probe: not a duplicate
	if len(out.tuples) != 2 {
		t.Fatalf("emitted %d, want 2 (probes are independent)", len(out.tuples))
	}
}

func TestLimitCapsPerProbe(t *testing.T) {
	l := NewLimit(2)
	out := &collect{}
	l.SetParent(out)
	for i := 0; i < 5; i++ {
		push(l, 1, row(int64(i)))
	}
	for i := 0; i < 5; i++ {
		push(l, 2, row(int64(i)))
	}
	if len(out.tuples) != 4 {
		t.Fatalf("emitted %d, want 2 per probe * 2 probes", len(out.tuples))
	}
}

func TestInputIgnoresDataBeforeOpen(t *testing.T) {
	in := NewInput()
	out := &collect{}
	in.SetParent(out)
	push(in, 0, row(1)) // no probe yet
	if len(out.tuples) != 0 {
		t.Fatal("input forwarded data before any probe")
	}
	in.Open(1)
	push(in, 0, row(2))
	if len(out.tuples) != 1 {
		t.Fatal("input did not forward after probe")
	}
}

func TestInputOnOpenFires(t *testing.T) {
	in := NewInput()
	var gotTag Tag
	in.OnOpen = func(tag Tag) { gotTag = tag }
	in.Open(77)
	if gotTag != 77 {
		t.Fatalf("OnOpen tag = %d", gotTag)
	}
}

func TestChainOpenPropagatesToSource(t *testing.T) {
	// Select -> Project -> Input: one Open at the root must reach the
	// access method.
	in := NewInput()
	opened := false
	in.OnOpen = func(Tag) { opened = true }
	p := NewProject(ProjectCol{Name: "c0", E: expr.MustParse("c0")})
	p.SetChild(in)
	s := NewSelect(expr.TruePredicate)
	s.SetChild(p)
	s.Open(1)
	if !opened {
		t.Fatal("probe did not propagate to the access method")
	}
}
