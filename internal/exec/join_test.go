package exec

import (
	"math/rand"
	"testing"

	"pier/internal/expr"
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

func TestQueueDefersDelivery(t *testing.T) {
	var deferred []func()
	q := NewQueue(func(fn func()) { deferred = append(deferred, fn) })
	out := &collect{}
	q.SetParent(out)
	push(q, 1, rRow(1, "a"))
	push(q, 1, rRow(2, "b"))
	if len(out.tuples) != 0 {
		t.Fatal("queue must not deliver synchronously")
	}
	if len(deferred) != 1 {
		t.Fatalf("scheduled %d drain events, want 1 (coalesced)", len(deferred))
	}
	deferred[0]()
	if len(out.tuples) != 2 {
		t.Fatalf("after drain: %d, want 2", len(out.tuples))
	}
}

func TestQueueBatchYieldsRepeatedly(t *testing.T) {
	var deferred []func()
	q := NewQueue(func(fn func()) { deferred = append(deferred, fn) })
	q.Batch = 2
	out := &collect{}
	q.SetParent(out)
	for i := 0; i < 5; i++ {
		push(q, 1, rRow(int64(i), "x"))
	}
	for len(deferred) > 0 {
		fn := deferred[0]
		deferred = deferred[1:]
		fn()
	}
	if len(out.tuples) != 5 {
		t.Fatalf("drained %d, want 5", len(out.tuples))
	}
}

func TestQueueCloseDiscards(t *testing.T) {
	var deferred []func()
	q := NewQueue(func(fn func()) { deferred = append(deferred, fn) })
	out := &collect{}
	q.SetParent(out)
	push(q, 1, rRow(1, "a"))
	q.Close()
	for _, fn := range deferred {
		fn()
	}
	if len(out.tuples) != 0 {
		t.Fatal("closed queue delivered tuples")
	}
}

func TestEddyAllModulesApplied(t *testing.T) {
	e := NewEddy(rand.New(rand.NewSource(1)))
	e.AddModule("m1", expr.MustParse("id > 0"))
	e.AddModule("m2", expr.MustParse("id < 10"))
	out := &collect{}
	e.SetParent(out)
	for i := int64(-5); i < 15; i++ {
		push(e, 1, tuple.New("t").Set("id", tuple.Int(i)))
	}
	// Only ids 1..9 pass both predicates.
	if len(out.tuples) != 9 {
		t.Fatalf("emitted %d, want 9", len(out.tuples))
	}
}

func TestEddyAdaptsTowardSelectiveModule(t *testing.T) {
	// One module drops ~99% of tuples, the other none. After warm-up the
	// lottery should route most tuples to the selective module first, so
	// the permissive module sees far fewer than 2x the tuples.
	e := NewEddy(rand.New(rand.NewSource(7)))
	e.AddModule("selective", expr.MustParse("id = 12345"))
	e.AddModule("permissive", expr.MustParse("id >= 0"))
	e.SetParent(&collect{})
	const n = 5000
	for i := int64(0); i < n; i++ {
		push(e, 1, tuple.New("t").Set("id", tuple.Int(i%1000)))
	}
	selSeen, _ := e.ModuleStats("selective")
	permSeen, _ := e.ModuleStats("permissive")
	if selSeen < n*9/10 {
		t.Errorf("selective module saw %d of %d; should be visited for almost every tuple", selSeen, n)
	}
	// If routing never adapted, permissive would see ~n/2 + (tuples that
	// passed selective) ≈ n/2. Adaptation pushes it well below n/2.
	if permSeen > n/2 {
		t.Errorf("permissive module saw %d tuples; lottery failed to favor the selective module (want < %d)", permSeen, n/2)
	}
}

func TestEddyMalformedCountsAsDrop(t *testing.T) {
	e := NewEddy(rand.New(rand.NewSource(1)))
	e.AddModule("m", expr.MustParse("ghost = 1"))
	out := &collect{}
	e.SetParent(out)
	push(e, 1, rRow(1, "a"))
	if len(out.tuples) != 0 || e.Dropped.Count() != 1 {
		t.Error("malformed tuple must be dropped and counted")
	}
}
