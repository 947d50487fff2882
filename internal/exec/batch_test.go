package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"pier/internal/expr"
	"pier/internal/tuple"
)

// The differential harness behind FuzzBatchVsRowEquivalence: every
// operator must produce the identical output tuple sequence whether its
// input arrives as row-backed batches of one (push: the reference branch
// of each PushBatch) or as batches of any size, columnar or row-backed
// (the typed kernels), for any seeded random input and any partitioning.
// Flush behavior must match too.

// genSchema is the uniform column set of generated rows.
var genSchema = []string{"severity", "src", "score", "mixed"}

// genRows produces n random rows over genSchema. The mixed column
// deliberately varies kind so predicates hit malformed rows.
func genRows(rng *rand.Rand, n int) []*tuple.Tuple {
	rows := make([]*tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.New("fwlogs").
			Set("severity", tuple.Int(rng.Int63n(20)-10)).
			Set("src", tuple.String(fmt.Sprintf("h%d", rng.Intn(4)))).
			Set("score", tuple.Float(float64(rng.Intn(100))/4)).
			Set("mixed", genMixed(rng))
	}
	return rows
}

func genMixed(rng *rand.Rand) tuple.Value {
	switch rng.Intn(4) {
	case 0:
		return tuple.Int(rng.Int63n(10))
	case 1:
		return tuple.String("x")
	case 2:
		return tuple.Null()
	default:
		return tuple.Float(rng.NormFloat64())
	}
}

// toBatches partitions rows into batches of random sizes, randomly
// columnar, row-backed, or batches of one joined by tuple.Concat — the
// shape the table bus releases held arrivals in (all must behave
// identically).
func toBatches(rng *rand.Rand, rows []*tuple.Tuple) []*tuple.Batch {
	var out []*tuple.Batch
	for len(rows) > 0 {
		n := 1 + rng.Intn(len(rows))
		chunk := rows[:n]
		rows = rows[n:]
		switch rng.Intn(3) {
		case 0:
			out = append(out, tuple.FromTuples(chunk))
			continue
		case 1:
			ones := make([]*tuple.Batch, len(chunk))
			for i, t := range chunk {
				ones[i] = tuple.OfTuple(t)
			}
			out = append(out, tuple.Concat(ones))
			continue
		}
		cb := tuple.NewColumnarBatch("fwlogs", genSchema, n)
		vals := make([]tuple.Value, len(genSchema))
		for _, t := range chunk {
			for c, name := range genSchema {
				vals[c], _ = t.Get(name)
			}
			cb.AppendRow(vals)
		}
		out = append(out, cb)
	}
	return out
}

// runBoth drives three freshly built copies of the same operator graph —
// one a row at a time, two batched — over the same rows and returns the
// row output and both batched outputs. The rows are cut into windows at
// random points and every copy flushes at each cut, so a GroupBy's later
// windows run on sets recycled through the pool. The batched copies take
// every batch back to back, the way the table bus hands one batch to
// every chain on a node, so the second copy finds the batch's group slots
// already resolved in the pooled scratch. mk must return the graph's
// entry Op and a collector wired as its parent.
func runBoth(rng *rand.Rand, rows []*tuple.Tuple, mk func() (Op, *collect)) (rowOut, batchOut, sharedOut []string) {
	rowOp, rowC := mk()
	batchOp, batchC := mk()
	sharedOp, sharedC := mk()
	rowOp.Open(1)
	batchOp.Open(1)
	sharedOp.Open(1)
	for len(rows) > 0 {
		n := 1 + rng.Intn(len(rows))
		window := rows[:n]
		rows = rows[n:]
		for _, t := range window {
			push(rowOp, 1, t)
		}
		for _, b := range toBatches(rng, window) {
			batchOp.PushBatch(1, b)
			sharedOp.PushBatch(1, b)
		}
		rowOp.Flush(1)
		batchOp.Flush(1)
		sharedOp.Flush(1)
	}
	return rowC.strings(), batchC.strings(), sharedC.strings()
}

func diffCheck(t *testing.T, name string, rowOut, batchOut []string) {
	t.Helper()
	if len(rowOut) != len(batchOut) {
		t.Fatalf("%s: row path emitted %d, batch path %d\nrow: %v\nbatch: %v",
			name, len(rowOut), len(batchOut), rowOut, batchOut)
	}
	for i := range rowOut {
		if rowOut[i] != batchOut[i] {
			t.Fatalf("%s: output %d differs\nrow:   %s\nbatch: %s", name, i, rowOut[i], batchOut[i])
		}
	}
}

// operator constructors under differential test. Each returns a fresh
// graph (entry op + collector parent).
var diffGraphs = []struct {
	name string
	mk   func() (Op, *collect)
}{
	{"select-compiled", func() (Op, *collect) {
		s := NewSelect(expr.MustParse("severity > 0 AND mixed >= 2"))
		c := &collect{}
		s.SetParent(c)
		return s, c
	}},
	{"select-fallback", func() (Op, *collect) {
		// Arithmetic is outside the compilable subset: exercises the
		// row-wise fallback inside PushBatch.
		s := NewSelect(expr.MustParse("severity + 1 > 0"))
		c := &collect{}
		s.SetParent(c)
		return s, c
	}},
	{"project", func() (Op, *collect) {
		p := NewProject(
			ProjectCol{Name: "sev2", E: expr.MustParse("severity * 2")},
			ProjectCol{Name: "who", E: expr.MustParse("src")},
		)
		c := &collect{}
		p.SetParent(c)
		return p, c
	}},
	{"limit", func() (Op, *collect) {
		l := NewLimit(7)
		c := &collect{}
		l.SetParent(c)
		return l, c
	}},
	{"groupby", func() (Op, *collect) {
		g := NewGroupBy([]string{"src"}, []AggSpec{
			{Kind: AggCount},
			{Kind: AggSum, Col: "severity"},
			{Kind: AggMax, Col: "score"},
		})
		c := &collect{}
		g.SetParent(c)
		return g, c
	}},
	{"groupby-missing-key", func() (Op, *collect) {
		g := NewGroupBy([]string{"absent"}, []AggSpec{{Kind: AggCount}})
		c := &collect{}
		g.SetParent(c)
		return g, c
	}},
	// The column-at-a-time kernels: each entry pins one fold kernel (or
	// its row-fallback trigger) against the row-path oracle.
	{"groupby-sum-int-float", func() (Op, *collect) {
		// Int and float sum columns side by side: the float kernel must
		// reproduce the int→float promotion point exactly.
		g := NewGroupBy([]string{"src"}, []AggSpec{
			{Kind: AggSum, Col: "severity"},
			{Kind: AggSum, Col: "score"},
		})
		c := &collect{}
		g.SetParent(c)
		return g, c
	}},
	{"groupby-minmax-kernels", func() (Op, *collect) {
		// Int, float, and string min/max kernels over int-keyed groups.
		g := NewGroupBy([]string{"severity"}, []AggSpec{
			{Kind: AggMin, Col: "severity"},
			{Kind: AggMax, Col: "score"},
			{Kind: AggMin, Col: "src"},
			{Kind: AggMax, Col: "src"},
		})
		c := &collect{}
		g.SetParent(c)
		return g, c
	}},
	{"groupby-avg", func() (Op, *collect) {
		g := NewGroupBy([]string{"src"}, []AggSpec{
			{Kind: AggAvg, Col: "severity"},
			{Kind: AggAvg, Col: "score"},
		})
		c := &collect{}
		g.SetParent(c)
		return g, c
	}},
	{"groupby-mixed-agg-col", func() (Op, *collect) {
		// The mixed column varies kind per batch, so most batches fall
		// back to the row path mid-fold; min/max over it also trips the
		// per-slot state-kind eligibility scan.
		g := NewGroupBy([]string{"src"}, []AggSpec{
			{Kind: AggSum, Col: "mixed"},
			{Kind: AggMin, Col: "mixed"},
			{Kind: AggAvg, Col: "mixed"},
		})
		c := &collect{}
		g.SetParent(c)
		return g, c
	}},
	{"groupby-mixed-key", func() (Op, *collect) {
		// Kind-varying key column: group identity must match the row
		// path's key encoding for every kind, including Null.
		g := NewGroupBy([]string{"mixed"}, []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: "severity"}})
		c := &collect{}
		g.SetParent(c)
		return g, c
	}},
	{"groupby-multikey", func() (Op, *collect) {
		g := NewGroupBy([]string{"src", "severity"}, []AggSpec{
			{Kind: AggCount},
			{Kind: AggCountDistinct, Col: "mixed"},
		})
		c := &collect{}
		g.SetParent(c)
		return g, c
	}},
	{"groupby-global", func() (Op, *collect) {
		// No keys: a single group accumulated across every batch.
		g := NewGroupBy(nil, []AggSpec{
			{Kind: AggCount},
			{Kind: AggSum, Col: "score"},
			{Kind: AggMin, Col: "severity"},
		})
		c := &collect{}
		g.SetParent(c)
		return g, c
	}},
	{"chain", func() (Op, *collect) {
		// Select → GroupBy, the shape of the continuous-agg workload.
		s := NewSelect(expr.MustParse("severity > -5"))
		g := NewGroupBy([]string{"src"}, []AggSpec{{Kind: AggCount}, {Kind: AggAvg, Col: "score"}})
		g.SetChild(s)
		c := &collect{}
		g.SetParent(c)
		return s, c
	}},
	{"topk-desc", func() (Op, *collect) {
		tk := NewTopK(5, "severity")
		c := &collect{}
		tk.SetParent(c)
		return tk, c
	}},
	{"topk-asc", func() (Op, *collect) {
		tk := NewTopK(3, "score")
		tk.Ascending = true
		c := &collect{}
		tk.SetParent(c)
		return tk, c
	}},
	{"topk-mixed", func() (Op, *collect) {
		// The mixed column's incomparable kind pairs make the comparator
		// partial: the retained set depends on insertion-time sorts, so
		// this pins PushBatch to the row path's sort-per-insert discipline.
		tk := NewTopK(4, "mixed")
		c := &collect{}
		tk.SetParent(c)
		return tk, c
	}},
	{"topk-missing-col", func() (Op, *collect) {
		tk := NewTopK(4, "absent")
		c := &collect{}
		tk.SetParent(c)
		return tk, c
	}},
}

func TestBatchVsRowEquivalence(t *testing.T) {
	for _, tc := range diffGraphs {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rows := genRows(rng, 1+rng.Intn(120))
			rowOut, batchOut, sharedOut := runBoth(rng, rows, tc.mk)
			diffCheck(t, fmt.Sprintf("%s/seed=%d", tc.name, seed), rowOut, batchOut)
			diffCheck(t, fmt.Sprintf("%s/seed=%d/shared", tc.name, seed), rowOut, sharedOut)
		}
	}
}

// The join takes two inputs; drive both sides with interleaved rows.
func TestJoinBatchVsRowEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		left := genRows(rng, 1+rng.Intn(60))
		right := genRows(rng, 1+rng.Intn(60))

		mk := func() (*SymmetricHashJoin, *collect) {
			j := NewSymmetricHashJoin([]string{"src"}, []string{"src"})
			c := &collect{}
			j.SetParent(c)
			return j, c
		}

		jr, cr := mk()
		for _, t2 := range left {
			jr.PushBatchLeft(1, tuple.OfTuple(t2))
		}
		for _, t2 := range right {
			jr.PushBatchRight(1, tuple.OfTuple(t2))
		}

		jb, cb := mk()
		for _, b := range toBatches(rng, left) {
			jb.PushBatchLeft(1, b)
		}
		for _, b := range toBatches(rng, right) {
			jb.PushBatchRight(1, b)
		}

		diffCheck(t, fmt.Sprintf("join/seed=%d", seed), cr.strings(), cb.strings())
		lr, rr := jr.StateSize(1)
		lb, rb := jb.StateSize(1)
		if lr != lb || rr != rb {
			t.Fatalf("seed %d: state size diverged: row (%d,%d) batch (%d,%d)", seed, lr, rr, lb, rb)
		}
	}
}

// FuzzBatchVsRowEquivalence fuzzes the full differential harness: any
// seed and any partitioning must keep the reference branch, the batch
// kernels and a second graph fed the same batches bit-identical across
// every operator graph.
func FuzzBatchVsRowEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(1234), int64(5678))
	f.Add(int64(-99), int64(0))
	f.Fuzz(func(t *testing.T, dataSeed, splitSeed int64) {
		dataRng := rand.New(rand.NewSource(dataSeed))
		rows := genRows(dataRng, 1+dataRng.Intn(150))
		for _, tc := range diffGraphs {
			rng := rand.New(rand.NewSource(splitSeed))
			rowOut, batchOut, sharedOut := runBoth(rng, rows, tc.mk)
			diffCheck(t, tc.name, rowOut, batchOut)
			diffCheck(t, tc.name+"/shared", rowOut, sharedOut)
		}
	})
}
