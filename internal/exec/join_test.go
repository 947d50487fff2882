package exec

import (
	"math/rand"
	"testing"

	"pier/internal/tuple"
)

func rRow(id int64, v string) *tuple.Tuple {
	return tuple.New("R").Set("id", tuple.Int(id)).Set("rv", tuple.String(v))
}

func sRow(id int64, v string) *tuple.Tuple {
	return tuple.New("S").Set("id", tuple.Int(id)).Set("sv", tuple.String(v))
}

func TestSymmetricHashJoinBasicMatch(t *testing.T) {
	j := NewSymmetricHashJoin([]string{"id"}, []string{"id"})
	out := &collect{}
	j.SetParent(out)
	j.PushBatchLeft(1, tuple.OfTuple(rRow(1, "a")))
	j.PushBatchRight(1, tuple.OfTuple(sRow(1, "x")))
	if len(out.tuples) != 1 {
		t.Fatalf("emitted %d, want 1", len(out.tuples))
	}
	jt := out.tuples[0]
	if v, ok := jt.Get("R.rv"); !ok || v.String() != "a" {
		t.Errorf("R.rv = %v", v)
	}
	if v, ok := jt.Get("S.sv"); !ok || v.String() != "x" {
		t.Errorf("S.sv = %v", v)
	}
}

func TestSymmetricHashJoinNonBlockingEitherOrder(t *testing.T) {
	// Results appear as soon as the second of a matching pair arrives,
	// regardless of which side came first.
	j := NewSymmetricHashJoin([]string{"id"}, []string{"id"})
	out := &collect{}
	j.SetParent(out)
	j.PushBatchRight(1, tuple.OfTuple(sRow(7, "x"))) // right first
	if len(out.tuples) != 0 {
		t.Fatal("premature emission")
	}
	j.PushBatchLeft(1, tuple.OfTuple(rRow(7, "a")))
	if len(out.tuples) != 1 {
		t.Fatal("no emission after matching left arrival")
	}
}

func TestSymmetricHashJoinCrossProductPerKey(t *testing.T) {
	j := NewSymmetricHashJoin([]string{"id"}, []string{"id"})
	out := &collect{}
	j.SetParent(out)
	j.PushBatchLeft(1, tuple.OfTuple(rRow(1, "a1")))
	j.PushBatchLeft(1, tuple.OfTuple(rRow(1, "a2")))
	j.PushBatchRight(1, tuple.OfTuple(sRow(1, "x1")))
	j.PushBatchRight(1, tuple.OfTuple(sRow(1, "x2")))
	if len(out.tuples) != 4 {
		t.Fatalf("emitted %d, want 2x2=4", len(out.tuples))
	}
}

func TestSymmetricHashJoinNoFalseMatches(t *testing.T) {
	j := NewSymmetricHashJoin([]string{"id"}, []string{"id"})
	out := &collect{}
	j.SetParent(out)
	j.PushBatchLeft(1, tuple.OfTuple(rRow(1, "a")))
	j.PushBatchRight(1, tuple.OfTuple(sRow(2, "x")))
	if len(out.tuples) != 0 {
		t.Fatal("joined non-matching keys")
	}
}

func TestSymmetricHashJoinMalformedDiscarded(t *testing.T) {
	j := NewSymmetricHashJoin([]string{"id"}, []string{"id"})
	out := &collect{}
	j.SetParent(out)
	j.PushBatchLeft(1, tuple.OfTuple(tuple.New("R").Set("other", tuple.Int(1))))
	if j.Dropped.Count() != 1 {
		t.Error("tuple without join key must be discarded")
	}
}

func TestSymmetricHashJoinProbesIsolated(t *testing.T) {
	j := NewSymmetricHashJoin([]string{"id"}, []string{"id"})
	out := &collect{}
	j.SetParent(out)
	j.PushBatchLeft(1, tuple.OfTuple(rRow(1, "a")))
	j.PushBatchRight(2, tuple.OfTuple(sRow(1, "x"))) // different probe tag: no match
	if len(out.tuples) != 0 {
		t.Fatal("state leaked across probes")
	}
}

func TestSymmetricHashJoinMultiColumnKeys(t *testing.T) {
	j := NewSymmetricHashJoin([]string{"a", "b"}, []string{"a", "b"})
	out := &collect{}
	j.SetParent(out)
	mk := func(table string, a, b int64) *tuple.Tuple {
		return tuple.New(table).Set("a", tuple.Int(a)).Set("b", tuple.Int(b))
	}
	j.PushBatchLeft(1, tuple.OfTuple(mk("R", 1, 2)))
	j.PushBatchRight(1, tuple.OfTuple(mk("S", 1, 2)))
	j.PushBatchRight(1, tuple.OfTuple(mk("S", 1, 3)))
	if len(out.tuples) != 1 {
		t.Fatalf("emitted %d, want 1", len(out.tuples))
	}
}

func TestSymmetricHashJoinEquivalentToNestedLoops(t *testing.T) {
	// Randomized differential test: symmetric hash join must produce the
	// same multiset of results as a reference nested-loops join, for any
	// interleaving of inputs.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		var rs, ss []*tuple.Tuple
		for i := 0; i < 30; i++ {
			rs = append(rs, rRow(int64(rng.Intn(8)), "r"))
			ss = append(ss, sRow(int64(rng.Intn(8)), "s"))
		}
		want := 0
		for _, r := range rs {
			for _, s := range ss {
				rv, _ := r.Get("id")
				sv, _ := s.Get("id")
				if tuple.Equal(rv, sv) {
					want++
				}
			}
		}
		j := NewSymmetricHashJoin([]string{"id"}, []string{"id"})
		out := &collect{}
		j.SetParent(out)
		// Random interleaving.
		li, si := 0, 0
		for li < len(rs) || si < len(ss) {
			if si >= len(ss) || (li < len(rs) && rng.Intn(2) == 0) {
				j.PushBatchLeft(1, tuple.OfTuple(rs[li]))
				li++
			} else {
				j.PushBatchRight(1, tuple.OfTuple(ss[si]))
				si++
			}
		}
		if len(out.tuples) != want {
			t.Fatalf("trial %d: emitted %d, nested-loops says %d", trial, len(out.tuples), want)
		}
	}
}
