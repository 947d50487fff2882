package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

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
