package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pier/internal/expr"
	"pier/internal/tuple"
)

// The differential harness behind FuzzBatchVsRowEquivalence: every
// operator graph must produce the output row sequence the reference
// interpreter (reference_test.go) produces for the same rows, whether
// its input arrives as batches of one or as batches of any size and
// make-up, for any seeded random input and any partitioning. Flush
// behavior must match too.

// genSchema is the full column set of generated rows.
var genSchema = []string{"severity", "src", "score", "mixed", "tag"}

// genSrcs and genTags are the src and tag values. A key over (tag, src)
// holds ("a", "sh1") and ("as", "h1"), whose key bytes differ only in
// where the 0x1f separator falls.
var (
	genSrcs = []string{"h0", "h1", "sh0", "sh1"}
	genTags = []string{"a", "as"}
)

// genRows produces n random rows over genSchema. The mixed column
// deliberately varies kind so predicates hit malformed rows. In about
// half the sets, one row in eight belongs to a second table and one in
// eight lacks a column (a key, a predicate operand or an aggregate
// input), so the stream changes schema mid-batch.
func genRows(rng *rand.Rand, n int) []*tuple.Tuple {
	odd := rng.Intn(2) == 0
	rows := make([]*tuple.Tuple, n)
	for i := range rows {
		table, skip := "fwlogs", ""
		if odd {
			switch rng.Intn(8) {
			case 0:
				table = "alerts"
			case 1:
				skip = genSchema[rng.Intn(len(genSchema))]
			}
		}
		t := tuple.New(table)
		for _, name := range genSchema {
			var v tuple.Value
			switch name {
			case "severity":
				v = tuple.Int(rng.Int63n(20) - 10)
			case "src":
				v = tuple.String(genSrcs[rng.Intn(len(genSrcs))])
			case "score":
				v = tuple.Float(float64(rng.Intn(100)) / 4)
			case "mixed":
				v = genMixed(rng)
			default:
				v = tuple.String(genTags[rng.Intn(len(genTags))])
			}
			if name != skip {
				t.Set(name, v)
			}
		}
		rows[i] = t
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

// schemaRuns cuts rows into runs of consecutive rows with equal table
// and column names.
func schemaRuns(rows []*tuple.Tuple) [][]*tuple.Tuple {
	var runs [][]*tuple.Tuple
	for i, t := range rows {
		if i == 0 || t.Table() != rows[i-1].Table() || !slices.Equal(t.Columns(), rows[i-1].Columns()) {
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], t)
	}
	return runs
}

// toBatches partitions rows into batches of random sizes: batches of one
// joined by tuple.Concat — the shape the table bus releases held
// arrivals in — tuple.Runs over the rows, the join's output builder, or
// one batch per schema run built by hand (all must behave identically).
func toBatches(rng *rand.Rand, rows []*tuple.Tuple) []*tuple.Batch {
	var out []*tuple.Batch
	for len(rows) > 0 {
		n := 1 + rng.Intn(len(rows))
		chunk := rows[:n]
		rows = rows[n:]
		switch rng.Intn(3) {
		case 0:
			out = append(out, tuple.Runs(chunk)...)
			continue
		case 1:
			ones := make([]*tuple.Batch, len(chunk))
			for i, t := range chunk {
				ones[i] = tuple.OfTuple(t)
			}
			out = append(out, tuple.Concat(ones)...)
			continue
		}
		for _, run := range schemaRuns(chunk) {
			names := run[0].Columns()
			cb := tuple.NewColumnarBatch(run[0].Table(), names, len(run))
			vals := make([]tuple.Value, len(names))
			for _, t := range run {
				for c := range names {
					_, vals[c] = t.At(c)
				}
				cb.AppendRow(vals)
			}
			out = append(out, cb)
		}
	}
	return out
}

// runBoth cuts the rows into windows at random points and runs them
// through the reference interpreter and through three freshly built
// copies of the same operator graph, every copy flushing at each cut, so
// a GroupBy's later windows run on sets recycled through the pool. The
// first copy takes the rows as batches of one; the other two take the
// same random batches back to back, the way the table bus hands one
// batch to every chain on a node, so the third finds the batch's group
// slots already resolved in the pooled scratch. mk must return the
// graph's entry Op and a collector wired as its parent.
func runBoth(rng *rand.Rand, rows []*tuple.Tuple, mk func() (Op, *collect), ref refChain) (refOut, oneOut, batchOut, sharedOut []string) {
	oneOp, oneC := mk()
	batchOp, batchC := mk()
	sharedOp, sharedC := mk()
	oneOp.Open(1)
	batchOp.Open(1)
	sharedOp.Open(1)
	var windows [][]*tuple.Tuple
	for len(rows) > 0 {
		n := 1 + rng.Intn(len(rows))
		window := rows[:n]
		rows = rows[n:]
		windows = append(windows, window)
		for _, t := range window {
			push(oneOp, 1, t)
		}
		for _, b := range toBatches(rng, window) {
			batchOp.PushBatch(1, b)
			sharedOp.PushBatch(1, b)
		}
		oneOp.Flush(1)
		batchOp.Flush(1)
		sharedOp.Flush(1)
	}
	return ref.run(windows), oneC.strings(), batchC.strings(), sharedC.strings()
}

func diffCheck(t *testing.T, name string, refOut, out []string) {
	t.Helper()
	if len(refOut) != len(out) {
		t.Fatalf("%s: reference emitted %d, operator %d\nreference: %v\noperator:  %v",
			name, len(refOut), len(out), refOut, out)
	}
	for i := range refOut {
		if refOut[i] != out[i] {
			t.Fatalf("%s: output %d differs\nreference: %s\noperator:  %s", name, i, refOut[i], out[i])
		}
	}
}

// diffRun runs one graph on rows and checks every copy against the
// reference.
func diffRun(t *testing.T, name string, rng *rand.Rand, rows []*tuple.Tuple, g diffGraph) {
	t.Helper()
	refOut, oneOut, batchOut, sharedOut := runBoth(rng, rows, g.mk, g.ref())
	diffCheck(t, name+"/one", refOut, oneOut)
	diffCheck(t, name+"/batch", refOut, batchOut)
	diffCheck(t, name+"/shared", refOut, sharedOut)
}

// diffGraph is one operator graph under differential test: mk builds a
// fresh copy (entry op + collector parent), ref the reference chain of
// the same graph.
type diffGraph struct {
	name string
	mk   func() (Op, *collect)
	ref  func() refChain
}

// wired sets c as op's parent and returns op as a diffGraph entry.
func wired(op Op) (Op, *collect) {
	c := &collect{}
	op.SetParent(c)
	return op, c
}

func selectGraph(name, pred string) diffGraph {
	return diffGraph{name,
		func() (Op, *collect) { return wired(NewSelect(expr.MustParse(pred))) },
		func() refChain { return refChain{&refSelect{expr.MustParse(pred)}} }}
}

func groupGraph(name string, keys []string, aggs ...AggSpec) diffGraph {
	return diffGraph{name,
		func() (Op, *collect) { return wired(NewGroupBy(keys, aggs)) },
		func() refChain { return refChain{newRefGroupBy(keys, aggs)} }}
}

func topkGraph(name string, k int, col string, asc bool) diffGraph {
	return diffGraph{name,
		func() (Op, *collect) {
			tk := NewTopK(k, col)
			tk.Ascending = asc
			return wired(tk)
		},
		func() refChain { return refChain{&refTopK{k: k, col: col, asc: asc}} }}
}

// twoOps is a chain entered at in and controlled at top: pushes go to in,
// and wiring, probes and flushes to top, which forwards them down.
type twoOps struct{ in, top Op }

func (o *twoOps) PushBatch(tag Tag, b *tuple.Batch) { o.in.PushBatch(tag, b) }
func (o *twoOps) SetParent(s Sink)                  { o.top.SetParent(s) }
func (o *twoOps) Open(tag Tag)                      { o.top.Open(tag) }
func (o *twoOps) Flush(tag Tag)                     { o.top.Flush(tag) }
func (o *twoOps) Close()                            { o.top.Close() }

var projectCols = []ProjectCol{
	{Name: "sev2", E: expr.MustParse("severity * 2")},
	{Name: "who", E: expr.MustParse("src")},
}

// collidingCols writes "x" twice: one column, at the first position,
// holding the score.
var collidingCols = []ProjectCol{
	{Name: "x", E: expr.MustParse("severity")},
	{Name: "who", E: expr.MustParse("src")},
	{Name: "x", E: expr.MustParse("score")},
}

var diffGraphs = []diffGraph{
	selectGraph("select-compiled", "severity > 0 AND mixed >= 2"),
	// Arithmetic is outside the compiled subset: the per-row Eval.
	selectGraph("select-arith", "severity + 1 > 0"),
	selectGraph("select-arith-in-and", "score > 3 AND severity + 1 > 0"),
	{"project",
		func() (Op, *collect) { return wired(NewProject(projectCols...)) },
		func() refChain { return refChain{&refProject{projectCols}} }},
	{"project-name-collision",
		func() (Op, *collect) { return wired(NewProject(collidingCols...)) },
		func() refChain { return refChain{&refProject{collidingCols}} }},
	{"limit",
		func() (Op, *collect) { return wired(NewLimit(7)) },
		func() refChain { return refChain{&refLimit{n: 7}} }},
	groupGraph("groupby", []string{"src"},
		AggSpec{Kind: AggCount},
		AggSpec{Kind: AggSum, Col: "severity"},
		AggSpec{Kind: AggMax, Col: "score"}),
	groupGraph("groupby-missing-key", []string{"absent"}, AggSpec{Kind: AggCount}),
	// The column-at-a-time kernels: each entry pins one fold kernel (or
	// its per-row fallback trigger) against the reference.
	//
	// Int and float sum columns side by side: the float kernel must
	// reproduce the int→float promotion point exactly.
	groupGraph("groupby-sum-int-float", []string{"src"},
		AggSpec{Kind: AggSum, Col: "severity"},
		AggSpec{Kind: AggSum, Col: "score"}),
	// Int, float, and string min/max kernels over int-keyed groups.
	groupGraph("groupby-minmax-kernels", []string{"severity"},
		AggSpec{Kind: AggMin, Col: "severity"},
		AggSpec{Kind: AggMax, Col: "score"},
		AggSpec{Kind: AggMin, Col: "src"},
		AggSpec{Kind: AggMax, Col: "src"}),
	groupGraph("groupby-avg", []string{"src"},
		AggSpec{Kind: AggAvg, Col: "severity"},
		AggSpec{Kind: AggAvg, Col: "score"}),
	// The mixed column varies kind per batch, so most batches fall back
	// to the per-row fold mid-batch; min/max over it also trips the
	// per-slot state-kind eligibility scan.
	groupGraph("groupby-mixed-agg-col", []string{"src"},
		AggSpec{Kind: AggSum, Col: "mixed"},
		AggSpec{Kind: AggMin, Col: "mixed"},
		AggSpec{Kind: AggAvg, Col: "mixed"}),
	// Kind-varying key column: group identity must match the reference's
	// key encoding for every kind, including Null.
	groupGraph("groupby-mixed-key", []string{"mixed"},
		AggSpec{Kind: AggCount},
		AggSpec{Kind: AggSum, Col: "severity"}),
	groupGraph("groupby-multikey", []string{"src", "severity"},
		AggSpec{Kind: AggCount},
		AggSpec{Kind: AggCountDistinct, Col: "mixed"}),
	// Two string keys whose bytes run together without the separator
	// (see genTags).
	groupGraph("groupby-key-separator", []string{"tag", "src"},
		AggSpec{Kind: AggCount},
		AggSpec{Kind: AggSum, Col: "severity"}),
	// Output names collide: an aggregate named like the key, and two
	// aggregates under one name. Each name keeps its first position and
	// the last value written to it.
	groupGraph("groupby-name-collision", []string{"src"},
		AggSpec{Kind: AggCount, As: "src"},
		AggSpec{Kind: AggSum, Col: "severity", As: "n"},
		AggSpec{Kind: AggMax, Col: "score", As: "n"}),
	// No keys: a single group accumulated across every batch.
	groupGraph("groupby-global", nil,
		AggSpec{Kind: AggCount},
		AggSpec{Kind: AggSum, Col: "score"},
		AggSpec{Kind: AggMin, Col: "severity"}),
	// Select → GroupBy, the shape of the continuous-agg workload.
	{"chain",
		func() (Op, *collect) {
			s := NewSelect(expr.MustParse("severity > -5"))
			g := NewGroupBy([]string{"src"}, []AggSpec{{Kind: AggCount}, {Kind: AggAvg, Col: "score"}})
			g.SetChild(s)
			return wired(&twoOps{s, g})
		},
		func() refChain {
			return refChain{
				&refSelect{expr.MustParse("severity > -5")},
				newRefGroupBy([]string{"src"}, []AggSpec{{Kind: AggCount}, {Kind: AggAvg, Col: "score"}}),
			}
		}},
	topkGraph("topk-desc", 5, "severity", false),
	topkGraph("topk-asc", 3, "score", true),
	// The mixed column's incomparable kind pairs make the comparator
	// partial: the retained set depends on insertion-time sorts, so this
	// pins PushBatch to the reference's sort-per-insert discipline.
	topkGraph("topk-mixed", 4, "mixed", false),
	topkGraph("topk-missing-col", 4, "absent", false),
}

func TestBatchVsRowEquivalence(t *testing.T) {
	for _, g := range diffGraphs {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rows := genRows(rng, 1+rng.Intn(120))
			diffRun(t, fmt.Sprintf("%s/seed=%d", g.name, seed), rng, rows, g)
		}
	}
}

// The join takes two inputs; drive both sides with the same rows as
// batches of one and as random batches, and compare each against the
// reference join. With two tables on a side, the join's output changes
// schema mid-batch.
func TestJoinBatchVsRowEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		left := genRows(rng, 1+rng.Intn(60))
		right := genRows(rng, 1+rng.Intn(60))

		ref := newRefJoin([]string{"src"}, []string{"src"})
		var want []string
		for side, rows := range [][]*tuple.Tuple{left, right} {
			for _, r := range rows {
				for _, o := range ref.push(side, r) {
					want = append(want, o.String())
				}
			}
		}

		mk := func() (*SymmetricHashJoin, *collect) {
			j := NewSymmetricHashJoin([]string{"src"}, []string{"src"})
			c := &collect{}
			j.SetParent(c)
			return j, c
		}
		jo, co := mk()
		for _, r := range left {
			jo.PushBatchLeft(1, tuple.OfTuple(r))
		}
		for _, r := range right {
			jo.PushBatchRight(1, tuple.OfTuple(r))
		}
		jb, cb := mk()
		for _, b := range toBatches(rng, left) {
			jb.PushBatchLeft(1, b)
		}
		for _, b := range toBatches(rng, right) {
			jb.PushBatchRight(1, b)
		}

		for _, run := range []struct {
			name string
			j    *SymmetricHashJoin
			c    *collect
		}{{"one", jo, co}, {"batch", jb, cb}} {
			diffCheck(t, fmt.Sprintf("join/seed=%d/%s", seed, run.name), want, run.c.strings())
			l, r := run.j.StateSize(1)
			if l != ref.size(0) || r != ref.size(1) {
				t.Fatalf("seed %d %s: state size (%d,%d), reference (%d,%d)", seed, run.name, l, r, ref.size(0), ref.size(1))
			}
		}
	}
}

// FuzzBatchVsRowEquivalence fuzzes the full differential harness: any
// seed and any partitioning must keep every operator graph, fed batches
// of one, random batches, or the same batches as another graph, equal to
// the reference interpreter.
func FuzzBatchVsRowEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(1234), int64(5678))
	f.Add(int64(-99), int64(0))
	f.Fuzz(func(t *testing.T, dataSeed, splitSeed int64) {
		dataRng := rand.New(rand.NewSource(dataSeed))
		rows := genRows(dataRng, 1+dataRng.Intn(150))
		for _, g := range diffGraphs {
			diffRun(t, g.name, rand.New(rand.NewSource(splitSeed)), rows, g)
		}
	})
}
