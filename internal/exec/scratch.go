package exec

import (
	"slices"
	"sync"

	"pier/internal/tuple"
)

// scratch is the working memory of one operator call. A call takes one
// from scratchPool, and puts it back before it emits (a parent's call then
// takes its own), so no operator instance keeps scratch between calls and
// a chain idle between windows pins none.
type scratch struct {
	// Select: per-row verdicts (with as much spare capacity, the
	// predicate's And/Or scratch), the surviving rows.
	res  []int8
	keep []int32
	// Row-at-a-time evaluation: a row view, a projected value row, a key
	// buffer, and the join's output rows. Valid only inside the call.
	row     tuple.Tuple
	rowVals []tuple.Value
	keyBuf  []byte
	outs    []*tuple.Tuple
	// GroupSet.AddBatch: resolved column indices, every row's key back to
	// back in keyArena (keyOffs delimits them; the bytes match KeyString,
	// since partials merge across nodes keyed by them), each row's slot in
	// touched (the numbers of the groups the batch hits, first-touch
	// order), and the typed accumulators of the fold kernels.
	keyIdx   []int
	aggIdx   []int
	keyArena []byte
	keyOffs  []int32
	slots    []int32
	touched  []int32
	acc      aggScratch
	// memo is the columnar batch, with memoLen rows grouped on memoIdx,
	// that keyArena, keyOffs and slots still describe; firsts is the first
	// row of each slot. Batches are read-only and the held pointer keeps
	// this one alive, so the same (pointer, Len, columns) means the same
	// keys: a GroupSet fed it next probes once per distinct key.
	memo    *tuple.Batch
	memoLen int
	memoIdx []int
	firsts  []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns the scratch to the pool, dropping the pointers into
// operator state it collected.
func (s *scratch) release() {
	clear(s.outs)
	scratchPool.Put(s)
}

// groupSetPool holds the GroupSets of flushed windows. GroupBy.Flush
// resets its window's set and puts it here, and a window's first
// PushBatch takes one, so a window reuses an earlier one's map buckets
// and slabs while a chain idle between windows holds none. A pooled set
// keeps its last spec and that spec's output names: GroupBys of equal
// specs, however many, work the names out once per set.
var groupSetPool = sync.Pool{New: func() any { return &GroupSet{index: make(map[string]int32)} }}

func getGroupSet(keys []string, aggs []AggSpec) *GroupSet {
	g := groupSetPool.Get().(*GroupSet)
	if g.names == nil || !slices.Equal(g.Keys, keys) || !slices.Equal(g.Aggs, aggs) {
		g.names = outNames(keys, aggs)
	}
	g.Keys, g.Aggs = keys, aggs
	return g
}

// release resets the set and returns it to the pool.
func (g *GroupSet) release() {
	g.Reset()
	groupSetPool.Put(g)
}

// aggScratch is the dense accumulator storage behind the typed fold
// kernels. Arrays are resized per batch to the touched-group count and
// fully loaded from the touched groups' states before each kernel runs,
// so stale contents never leak between batches or specs.
type aggScratch struct {
	i  []int64
	f  []float64
	s  []string
	b1 []bool
	b2 []bool
}

// grow returns buf resliced to n, reallocated when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// view is what a filter emits for the rows keep of b: b itself when every
// row survived, nil when none did, else a selection view over a copy of
// keep (the view retains its selection; keep is scratch).
func view(b *tuple.Batch, keep []int32) *tuple.Batch {
	switch len(keep) {
	case 0:
		return nil
	case b.Len():
		return b
	}
	return b.SelectLogical(append([]int32(nil), keep...))
}
