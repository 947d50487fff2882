package exec

import (
	"fmt"
	"testing"
	"testing/quick"

	"pier/internal/tuple"
	"pier/internal/wire"
)

func TestAggCountSumMinMaxAvg(t *testing.T) {
	vals := []int64{5, 3, 9, 1}
	states := map[AggKind]AggState{
		AggCount: NewAggState(AggCount),
		AggSum:   NewAggState(AggSum),
		AggMin:   NewAggState(AggMin),
		AggMax:   NewAggState(AggMax),
		AggAvg:   NewAggState(AggAvg),
	}
	for _, v := range vals {
		for _, s := range states {
			s.Add(tuple.Int(v))
		}
	}
	if v, _ := states[AggCount].Result().AsInt(); v != 4 {
		t.Errorf("count = %d", v)
	}
	if v, _ := states[AggSum].Result().AsInt(); v != 18 {
		t.Errorf("sum = %d", v)
	}
	if v, _ := states[AggMin].Result().AsInt(); v != 1 {
		t.Errorf("min = %d", v)
	}
	if v, _ := states[AggMax].Result().AsInt(); v != 9 {
		t.Errorf("max = %d", v)
	}
	if v, _ := states[AggAvg].Result().AsFloat(); v != 4.5 {
		t.Errorf("avg = %v", v)
	}
}

func TestAggEmptyStates(t *testing.T) {
	if v, _ := NewAggState(AggCount).Result().AsInt(); v != 0 {
		t.Error("empty count should be 0")
	}
	if !NewAggState(AggMin).Result().IsNull() {
		t.Error("empty min should be null")
	}
	if !NewAggState(AggAvg).Result().IsNull() {
		t.Error("empty avg should be null")
	}
}

func TestAggSumMixedIntFloat(t *testing.T) {
	s := NewAggState(AggSum)
	s.Add(tuple.Int(1))
	s.Add(tuple.Float(2.5))
	if v, ok := s.Result().AsFloat(); !ok || v != 3.5 {
		t.Errorf("sum = %v", s.Result())
	}
}

func TestAggIgnoresIncompatibleValues(t *testing.T) {
	s := NewAggState(AggSum)
	s.Add(tuple.Int(5))
	s.Add(tuple.String("junk")) // ignored, not an error
	if v, _ := s.Result().AsInt(); v != 5 {
		t.Errorf("sum = %v", s.Result())
	}
}

func TestAggCountDistinct(t *testing.T) {
	s := NewAggState(AggCountDistinct)
	for _, v := range []string{"a", "b", "a", "c", "b"} {
		s.Add(tuple.String(v))
	}
	if v, _ := s.Result().AsInt(); v != 3 {
		t.Errorf("countdistinct = %v", s.Result())
	}
	if !AggCountDistinct.Holistic() {
		t.Error("countdistinct must be flagged holistic")
	}
	if AggSum.Holistic() {
		t.Error("sum must not be holistic")
	}
}

// mergeEqualsDirect checks the algebraic-aggregate law: merging partials
// over a data split equals aggregating the whole — the property
// hierarchical aggregation depends on (§3.3.4).
func mergeEqualsDirect(t *testing.T, kind AggKind, vals []int64, split int) {
	t.Helper()
	whole := NewAggState(kind)
	a, b := NewAggState(kind), NewAggState(kind)
	for i, v := range vals {
		whole.Add(tuple.Int(v))
		if i < split {
			a.Add(tuple.Int(v))
		} else {
			b.Add(tuple.Int(v))
		}
	}
	a.Merge(b)
	wv, av := whole.Result(), a.Result()
	if wv.IsNull() != av.IsNull() {
		t.Errorf("%v: merged null-ness differs (vals %v split %d)", kind, vals, split)
		return
	}
	if wv.IsNull() {
		return
	}
	if kind == AggAvg {
		// Averages of huge values accumulate float rounding; require
		// relative agreement rather than bit equality.
		wf, _ := wv.AsFloat()
		af, _ := av.AsFloat()
		diff := wf - af
		if diff < 0 {
			diff = -diff
		}
		scale := wf
		if scale < 0 {
			scale = -scale
		}
		if scale < 1 {
			scale = 1
		}
		if diff/scale > 1e-9 {
			t.Errorf("avg: merged %v != direct %v beyond tolerance", af, wf)
		}
		return
	}
	if !tuple.Equal(wv, av) {
		t.Errorf("%v: merged %v != direct %v (vals %v split %d)", kind, av, wv, vals, split)
	}
}

func TestPropertyMergeEqualsDirect(t *testing.T) {
	for _, kind := range []AggKind{AggCount, AggSum, AggMin, AggMax, AggAvg, AggCountDistinct} {
		kind := kind
		f := func(vals []int64, splitSeed uint8) bool {
			if len(vals) == 0 {
				return true
			}
			split := int(splitSeed) % (len(vals) + 1)
			sub := &testing.T{}
			mergeEqualsDirect(sub, kind, vals, split)
			return !sub.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

func TestPropertyEncodeDecodeAggState(t *testing.T) {
	for _, kind := range []AggKind{AggCount, AggSum, AggMin, AggMax, AggAvg, AggCountDistinct} {
		kind := kind
		f := func(vals []int64) bool {
			s := NewAggState(kind)
			for _, v := range vals {
				s.Add(tuple.Int(v))
			}
			w := wire.NewWriter(64)
			s.EncodeTo(w)
			got := DecodeAggState(kind, wire.NewReader(w.Bytes()))
			a, b := s.Result(), got.Result()
			if a.IsNull() && b.IsNull() {
				return true
			}
			return tuple.Equal(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

func TestGroupSetAddEmit(t *testing.T) {
	g := NewGroupSet([]string{"src"}, []AggSpec{
		{Kind: AggCount, As: "cnt"},
		{Kind: AggSum, Col: "bytes", As: "total"},
	})
	add := func(src string, b int64) {
		g.AddBatch(tuple.OfTuple(tuple.New("fw").Set("src", tuple.String(src)).Set("bytes", tuple.Int(b))))
	}
	add("a", 10)
	add("b", 5)
	add("a", 7)
	if g.Len() != 2 {
		t.Fatalf("groups = %d", g.Len())
	}
	got := map[string][2]int64{}
	g.Emit("out", func(tp *tuple.Tuple) {
		src, _ := tp.Get("src")
		cnt, _ := tp.Get("cnt")
		tot, _ := tp.Get("total")
		c, _ := cnt.AsInt()
		s, _ := tot.AsInt()
		got[src.String()] = [2]int64{c, s}
	})
	if got["a"] != [2]int64{2, 17} || got["b"] != [2]int64{1, 5} {
		t.Fatalf("got %v", got)
	}
}

func TestGroupSetMergeEncodedRoundTrip(t *testing.T) {
	spec := []AggSpec{{Kind: AggCount, As: "cnt"}, {Kind: AggMax, Col: "v", As: "mx"}}
	mk := func(rows ...[2]int64) *GroupSet {
		g := NewGroupSet([]string{"k"}, spec)
		for _, r := range rows {
			g.AddBatch(tuple.OfTuple(tuple.New("t").Set("k", tuple.Int(r[0])).Set("v", tuple.Int(r[1]))))
		}
		return g
	}
	a := mk([2]int64{1, 10}, [2]int64{2, 20})
	b := mk([2]int64{1, 99}, [2]int64{3, 30})
	if err := a.MergeEncoded(b.Encode()); err != nil {
		t.Fatal(err)
	}
	results := map[int64][2]int64{}
	a.Emit("out", func(tp *tuple.Tuple) {
		k, _ := tp.Get("k")
		cnt, _ := tp.Get("cnt")
		mx, _ := tp.Get("mx")
		ki, _ := k.AsInt()
		ci, _ := cnt.AsInt()
		mi, _ := mx.AsInt()
		results[ki] = [2]int64{ci, mi}
	})
	want := map[int64][2]int64{1: {2, 99}, 2: {1, 20}, 3: {1, 30}}
	for k, w := range want {
		if results[k] != w {
			t.Errorf("group %d = %v, want %v", k, results[k], w)
		}
	}
}

func TestGroupSetMergeEncodedGarbage(t *testing.T) {
	g := NewGroupSet([]string{"k"}, []AggSpec{{Kind: AggCount}})
	if err := g.MergeEncoded([]byte{0xff, 0x01, 0x02}); err == nil {
		t.Error("garbage should not merge")
	}
}

func TestGroupSetNoKeysGlobalAggregate(t *testing.T) {
	g := NewGroupSet(nil, []AggSpec{{Kind: AggCount, As: "n"}})
	for i := 0; i < 5; i++ {
		g.AddBatch(tuple.OfTuple(tuple.New("t").Set("x", tuple.Int(int64(i)))))
	}
	if g.Len() != 1 {
		t.Fatalf("global aggregate groups = %d, want 1", g.Len())
	}
	g.Emit("out", func(tp *tuple.Tuple) {
		if v, _ := tp.Get("n"); v.String() != "5" {
			t.Errorf("n = %v", v)
		}
	})
}

func TestGroupByOperatorFlushEmitsAndResets(t *testing.T) {
	gb := NewGroupBy([]string{"src"}, []AggSpec{{Kind: AggCount, As: "cnt"}})
	out := &collect{}
	gb.SetParent(out)
	in := NewInput()
	gb.SetChild(in)
	gb.Open(1)
	for i := 0; i < 3; i++ {
		push(in, 0, tuple.New("fw").Set("src", tuple.String("a")))
	}
	push(in, 0, tuple.New("fw").Set("src", tuple.String("b")))
	if len(out.tuples) != 0 {
		t.Fatal("group-by emitted before flush")
	}
	gb.Flush(1)
	if len(out.tuples) != 2 {
		t.Fatalf("flush emitted %d, want 2", len(out.tuples))
	}
	// After flush the window resets: same input counts again from zero.
	push(in, 0, tuple.New("fw").Set("src", tuple.String("a")))
	gb.Flush(1)
	last := out.tuples[len(out.tuples)-1]
	if v, _ := last.Get("cnt"); v.String() != "1" {
		t.Errorf("post-reset count = %v, want 1", v)
	}
}

func TestGroupByMissingKeyDiscards(t *testing.T) {
	gb := NewGroupBy([]string{"src"}, []AggSpec{{Kind: AggCount}})
	push(gb, 1, tuple.New("fw").Set("other", tuple.Int(1)))
	if gb.Dropped.Count() != 1 {
		t.Error("tuple without group key must be discarded")
	}
}

func TestTopKKeepsLargest(t *testing.T) {
	tk := NewTopK(3, "cnt")
	out := &collect{}
	tk.SetParent(out)
	for _, v := range []int64{5, 1, 9, 3, 7, 2} {
		push(tk, 1, tuple.New("t").Set("cnt", tuple.Int(v)))
	}
	tk.Flush(1)
	if len(out.tuples) != 3 {
		t.Fatalf("emitted %d, want 3", len(out.tuples))
	}
	want := []string{"9", "7", "5"}
	for i, w := range want {
		if v, _ := out.tuples[i].Get("cnt"); v.String() != w {
			t.Errorf("rank %d = %v, want %s", i, v, w)
		}
	}
}

func TestTopKAscending(t *testing.T) {
	tk := NewTopK(2, "cnt")
	tk.Ascending = true
	out := &collect{}
	tk.SetParent(out)
	for _, v := range []int64{5, 1, 9, 3} {
		push(tk, 1, tuple.New("t").Set("cnt", tuple.Int(v)))
	}
	tk.Flush(1)
	if len(out.tuples) != 2 {
		t.Fatal("want 2")
	}
	if v, _ := out.tuples[0].Get("cnt"); v.String() != "1" {
		t.Errorf("first = %v", v)
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10, "cnt")
	out := &collect{}
	tk.SetParent(out)
	push(tk, 1, tuple.New("t").Set("cnt", tuple.Int(1)))
	tk.Flush(1)
	if len(out.tuples) != 1 {
		t.Fatalf("emitted %d, want 1", len(out.tuples))
	}
}

func TestPropertyGroupSetMergePartitionInvariance(t *testing.T) {
	// Splitting a dataset across N nodes and merging must equal central
	// aggregation, for any split.
	f := func(keys []uint8, boundary uint8) bool {
		if len(keys) == 0 {
			return true
		}
		spec := []AggSpec{{Kind: AggCount, As: "cnt"}, {Kind: AggSum, Col: "v", As: "s"}}
		central := NewGroupSet([]string{"k"}, spec)
		left := NewGroupSet([]string{"k"}, spec)
		right := NewGroupSet([]string{"k"}, spec)
		cut := int(boundary) % (len(keys) + 1)
		for i, k := range keys {
			tp := tuple.New("t").Set("k", tuple.Int(int64(k%8))).Set("v", tuple.Int(int64(k)))
			central.AddBatch(tuple.OfTuple(tp))
			if i < cut {
				left.AddBatch(tuple.OfTuple(tp))
			} else {
				right.AddBatch(tuple.OfTuple(tp))
			}
		}
		if err := left.MergeEncoded(right.Encode()); err != nil {
			return false
		}
		want := map[string]string{}
		central.Emit("o", func(tp *tuple.Tuple) { want[fmt.Sprint(tp)] = "" })
		got := map[string]string{}
		left.Emit("o", func(tp *tuple.Tuple) { got[fmt.Sprint(tp)] = "" })
		if len(want) != len(got) {
			return false
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
