package exec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"pier/internal/tuple"
)

// sharedKeySets are the key columns the shared-batch test groups on: a
// string key, a mixed-kind key that includes nulls, two columns of
// different kinds, a mixed-kind pair, and no key at all.
var sharedKeySets = [][]string{{"src"}, {"mixed"}, {"src", "severity"}, {"mixed", "score"}, nil}

var sharedAggs = []AggSpec{
	{Kind: AggCount},
	{Kind: AggSum, Col: "severity"},
	{Kind: AggMax, Col: "score"},
	{Kind: AggMin, Col: "src"},
	{Kind: AggAvg, Col: "mixed"},
}

// groupLog is one GroupBy under test: what it emitted per window, and the
// rows of every batch it was fed (taken at push time; nil marks a flush),
// so a fresh GroupBy can replay the same windows on its own.
type groupLog struct {
	keys    []string
	gb      *GroupBy
	out     *collect
	windows [][]string
	fed     [][]*tuple.Tuple
}

func newGroupLog(keys []string) *groupLog {
	l := &groupLog{keys: keys, gb: NewGroupBy(keys, sharedAggs), out: &collect{}}
	l.gb.SetParent(l.out)
	return l
}

func (l *groupLog) push(b *tuple.Batch) {
	l.gb.PushBatch(1, b)
	l.fed = append(l.fed, b.Tuples(nil))
}

func (l *groupLog) flush() {
	l.gb.Flush(1)
	l.fed = append(l.fed, nil)
	l.windows = append(l.windows, l.out.strings())
	l.out.tuples = nil
}

// replay feeds a fresh GroupBy the logged rows, window by window, each
// push as one row-backed batch (the reference branch), and returns its
// windows.
func (l *groupLog) replay() [][]string {
	fresh := newGroupLog(l.keys)
	for _, rows := range l.fed {
		if rows == nil {
			fresh.flush()
		} else {
			fresh.push(tuple.FromTuples(rows))
		}
	}
	return fresh.windows
}

// genVals is a generated row's values in genSchema order.
func genVals(t *tuple.Tuple) []tuple.Value {
	vals := make([]tuple.Value, len(genSchema))
	for c, name := range genSchema {
		vals[c], _ = t.Get(name)
	}
	return vals
}

func columnar(rows []*tuple.Tuple) *tuple.Batch {
	b := tuple.NewColumnarBatch("fwlogs", genSchema, len(rows))
	for _, t := range rows {
		b.AppendRow(genVals(t))
	}
	return b
}

// sharedBatchRun pushes one columnar batch into many GroupBys, the way
// the table bus releases held arrivals to every gated chain on a node,
// interleaved with a different batch of the same shape, the same batch
// grouped on other key columns, selection views of it, row-backed copies
// of it, and rows appended to it after it was pushed. It reports the
// first GroupBy whose windows differ from a fresh run fed the same rows.
func sharedBatchRun(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	shared := columnar(genRows(rng, 30+rng.Intn(60)))
	other := columnar(genRows(rng, shared.Len()))
	var logs []*groupLog
	for _, keys := range sharedKeySets {
		for k := 0; k < 3; k++ {
			logs = append(logs, newGroupLog(keys))
		}
	}
	for w := 0; w < 3; w++ {
		for step := 0; step < 6; step++ {
			order := rng.Perm(len(logs))
			if step%2 == 0 {
				slices.Sort(order) // same-key GroupBys back to back
			}
			for _, i := range order {
				l := logs[i]
				switch rng.Intn(6) {
				case 0:
					l.push(other)
				case 1:
					var keep []int32
					for r := 0; r < shared.Len(); r++ {
						if rng.Intn(3) > 0 {
							keep = append(keep, int32(r))
						}
					}
					l.push(shared.SelectLogical(keep))
				case 2:
					l.push(tuple.FromTuples(shared.Tuples(nil)))
				default:
					l.push(shared)
					if rng.Intn(4) == 0 {
						for _, t := range genRows(rng, 1+rng.Intn(3)) {
							shared.AppendRow(genVals(t))
						}
					}
				}
			}
		}
		for _, l := range logs {
			l.flush()
		}
	}
	for i, l := range logs {
		want := l.replay()
		for w := range want {
			if !slices.Equal(l.windows[w], want[w]) {
				return fmt.Errorf("seed %d: GroupBy %d (keys %v) window %d\ngot:  %v\nwant: %v",
					seed, i, l.keys, w, l.windows[w], want[w])
			}
		}
	}
	return nil
}

func TestSharedBatchGroupingEqualsFresh(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		if err := sharedBatchRun(seed); err != nil {
			t.Fatal(err)
		}
	}
	// Goroutines share the scratch pool, never a batch.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			errs <- sharedBatchRun(seed)
		}(int64(100 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// recycleSpecs are the GroupBys recycleRun interleaves, so one window's
// set passes through the pool to a GroupBy of another spec: no keys, a
// string key, an int key whose spec collides (an aggregate named "i", so
// Flush falls back to Emit), and an int and a string key together.
var recycleSpecs = []struct {
	keys []string
	aggs []AggSpec
}{
	{nil, everyAgg("v")},
	{[]string{"s"}, []AggSpec{
		{Kind: AggCount, Col: "v"},
		{Kind: AggSum, Col: "n"},
		{Kind: AggSum, Col: "f"},
		{Kind: AggMin, Col: "f"},
		{Kind: AggMax, Col: "f"},
		{Kind: AggAvg, Col: "f"},
		{Kind: AggCountDistinct, Col: "s"},
	}},
	{[]string{"i"}, append(everyAgg("v"), AggSpec{Kind: AggCount, As: "i"})},
	{[]string{"i", "s"}, everyAgg("v")},
}

func everyAgg(col string) []AggSpec {
	return []AggSpec{
		{Kind: AggCount},
		{Kind: AggSum, Col: col},
		{Kind: AggMin, Col: col},
		{Kind: AggMax, Col: col},
		{Kind: AggAvg, Col: col},
		{Kind: AggCountDistinct, Col: col},
	}
}

// edgeFloats are the values a float fold must carry bit for bit.
var edgeFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2.25, math.Inf(1)}

// recycleBatch is n random rows, row-backed or columnar. Column v is all
// ints, all floats (so sum's int accumulator is promoted by a later
// batch's kernel) or mixed kinds, nulls and bools among them.
func recycleBatch(rng *rand.Rand, n int) *tuple.Batch {
	mode := rng.Intn(3)
	rows := make([]*tuple.Tuple, n)
	for r := range rows {
		k := mode
		if k == 2 {
			k = rng.Intn(5)
		}
		var v tuple.Value
		switch k {
		case 0:
			v = tuple.Int(rng.Int63n(7) - 3)
		case 1:
			v = tuple.Float(edgeFloats[rng.Intn(len(edgeFloats))])
		case 2:
			v = tuple.String(fmt.Sprintf("x%d", rng.Intn(3)))
		case 3:
			v = tuple.Null()
		default:
			v = tuple.Bool(true)
		}
		rows[r] = tuple.New("m").
			Set("s", tuple.String(fmt.Sprintf("k%d", rng.Intn(3)))).
			Set("i", tuple.Int(rng.Int63n(3))).
			Set("n", tuple.Int(rng.Int63n(100))).
			Set("f", tuple.Float(edgeFloats[rng.Intn(len(edgeFloats))])).
			Set("v", v)
	}
	if rng.Intn(2) == 0 {
		return tuple.FromTuples(rows)
	}
	names := rows[0].Columns()
	b := tuple.NewColumnarBatch("m", names, n)
	vals := make([]tuple.Value, len(names))
	for _, t := range rows {
		for c := range names {
			_, vals[c] = t.At(c)
		}
		b.AppendRow(vals)
	}
	return b
}

// emitted is what g emits, each row in the tuple wire format: EmitBatch's
// rows, or Emit's tuples when EmitBatch declines (emitOnly forces Emit).
func emitted(g *GroupSet, emitOnly bool) []string {
	var out []string
	if b := g.EmitBatch("groupby"); b != nil && !emitOnly {
		for i := 0; i < b.Len(); i++ {
			out = append(out, string(b.Row(i).Encode()))
		}
		return out
	}
	g.Emit("groupby", func(t *tuple.Tuple) { out = append(out, string(t.Encode())) })
	return out
}

// recycleRun runs windows back to back on one GroupBy per recycleSpecs
// entry, interleaving their batches, and merges a partial grouped on
// fewer key columns into the two-key GroupBy's window. Each window's
// Encode bytes and emitted rows must equal those of a fresh GroupSet fed
// the same batches.
func recycleRun(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	gbs := make([]*GroupBy, len(recycleSpecs))
	outs := make([]*collect, len(recycleSpecs))
	for i, sp := range recycleSpecs {
		gbs[i], outs[i] = NewGroupBy(sp.keys, sp.aggs), &collect{}
		gbs[i].SetParent(outs[i])
	}
	two := len(recycleSpecs) - 1
	for w := 0; w < 6; w++ {
		fresh := make([]*GroupSet, len(recycleSpecs))
		for i, sp := range recycleSpecs {
			fresh[i] = NewGroupSet(sp.keys, sp.aggs)
		}
		for step := 0; step < 10; step++ {
			i := rng.Intn(len(gbs))
			b := recycleBatch(rng, 1+rng.Intn(12))
			gbs[i].PushBatch(1, b)
			fresh[i].AddBatch(b)
		}
		if rng.Intn(2) == 0 {
			part := NewGroupSet(recycleSpecs[two].keys[:1], recycleSpecs[two].aggs)
			part.AddBatch(recycleBatch(rng, 1+rng.Intn(6)))
			b := recycleBatch(rng, 1)
			gbs[two].PushBatch(1, b)
			fresh[two].AddBatch(b)
			if err := gbs[two].sets[1].MergeEncoded(part.Encode()); err != nil {
				return err
			}
			if err := fresh[two].MergeEncoded(part.Encode()); err != nil {
				return err
			}
		}
		for i, gb := range gbs {
			if set := gb.sets[1]; set != nil {
				if !bytes.Equal(set.Encode(), fresh[i].Encode()) {
					return fmt.Errorf("seed %d window %d spec %d: Encode differs from a fresh set's", seed, w, i)
				}
				if got, want := emitted(set, true), emitted(fresh[i], true); !slices.Equal(got, want) {
					return fmt.Errorf("seed %d window %d spec %d: Emit\ngot:  %q\nwant: %q", seed, w, i, got, want)
				}
			}
			gb.Flush(1)
			var got []string
			for _, t := range outs[i].tuples {
				got = append(got, string(t.Encode()))
			}
			outs[i].tuples = nil
			if want := emitted(fresh[i], false); !slices.Equal(got, want) {
				return fmt.Errorf("seed %d window %d spec %d: flushed\ngot:  %q\nwant: %q", seed, w, i, got, want)
			}
		}
	}
	return nil
}

func TestRecycledGroupSetEqualsFresh(t *testing.T) {
	if size := unsafe.Sizeof(aggState{}); size > 64 {
		t.Errorf("aggState is %d bytes, more than 64", size)
	}
	for seed := int64(0); seed < 40; seed++ {
		if err := recycleRun(seed); err != nil {
			t.Fatal(err)
		}
	}

	// A partial whose key tuple lacks a key column: Emit omits the
	// column, EmitBatch holds an explicit null in it.
	part := NewGroupSet([]string{"i"}, []AggSpec{{Kind: AggCount}})
	part.AddBatch(tuple.OfTuple(tuple.New("m").Set("i", tuple.Int(4))))
	g := getGroupSet([]string{"i", "s"}, part.Aggs)
	defer g.release()
	if err := g.MergeEncoded(part.Encode()); err != nil {
		t.Fatal(err)
	}
	g.Emit("o", func(tp *tuple.Tuple) {
		if _, ok := tp.Get("s"); ok || tp.Len() != 2 {
			t.Errorf("Emit of a partial lacking s = %v, want no s column", tp)
		}
	})
	b := g.EmitBatch("o")
	if b == nil || b.Len() != 1 {
		t.Fatalf("EmitBatch of one partial group = %v", b)
	}
	if v, ok := b.Row(0).Get("s"); !ok || !v.IsNull() {
		t.Errorf("EmitBatch of a partial lacking s = %v, want an explicit null s", b.Row(0))
	}

	// Goroutines share the pool, never a GroupBy.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			errs <- recycleRun(seed)
		}(int64(1000 + i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
