package exec

import (
	"pier/internal/tuple"
)

// SymmetricHashJoin implements the pipelining, non-blocking equijoin of
// Wilschut & Apers used by PIER (§3.3.4): both inputs build hash tables;
// each arriving tuple inserts into its own side's table and immediately
// probes the other side's, so results stream out as soon as both matching
// tuples have arrived, with no blocking build phase. All state is in
// memory — PIER's operators do not spill (§3.3.4).
//
// In distributed plans the two inputs are typically DHT namespaces into
// which a previous opgraph rehashed the relations (partitioned
// parallelism, §3.3.6); locally the operator just sees two child streams.
//
// Join keys are built into a reused scratch buffer (column indices
// resolved once per columnar batch), row views are stored in pointer
// buckets so the map read path never allocates, and all join outputs of
// one input batch leave as a single fresh output batch.
type SymmetricHashJoin struct {
	Out
	// LeftKeys/RightKeys are the equijoin columns for each input.
	LeftKeys, RightKeys []string
	// OutTable names emitted join tuples.
	OutTable string
	// PrefixCols qualifies output columns with their source table name.
	PrefixCols bool
	Dropped    Discarded

	left, right   Op
	leftT, rightT map[Tag]map[string]*joinBucket

	keyBuf []byte
	outs   []*tuple.Tuple
}

// joinBucket holds one key's resident tuples. The map stores pointers so
// appending to a bucket never re-assigns through the map (no per-insert
// map-assign alloc beyond the first).
type joinBucket struct {
	rows []*tuple.Tuple
}

// joinPort is the Sink one side's child pushes into.
type joinPort struct {
	j     *SymmetricHashJoin
	right bool
}

func (p joinPort) PushBatch(tag Tag, b *tuple.Batch) {
	p.j.pushBatch(tag, b, p.right)
}

// NewSymmetricHashJoin creates a symmetric hash equijoin.
func NewSymmetricHashJoin(leftKeys, rightKeys []string) *SymmetricHashJoin {
	return &SymmetricHashJoin{
		LeftKeys:   leftKeys,
		RightKeys:  rightKeys,
		OutTable:   "join",
		PrefixCols: true,
		leftT:      make(map[Tag]map[string]*joinBucket),
		rightT:     make(map[Tag]map[string]*joinBucket),
	}
}

// SetLeft wires the left input subtree.
func (j *SymmetricHashJoin) SetLeft(c Op) { j.left = c; c.SetParent(joinPort{j: j}) }

// SetRight wires the right input subtree.
func (j *SymmetricHashJoin) SetRight(c Op) { j.right = c; c.SetParent(joinPort{j: j, right: true}) }

// Open forwards the probe to both inputs.
func (j *SymmetricHashJoin) Open(tag Tag) {
	if j.left != nil {
		j.left.Open(tag)
	}
	if j.right != nil {
		j.right.Open(tag)
	}
}

// PushBatch routes a direct batch (no slot information) to the left
// input; in wired graphs SetLeft/SetRight intercept pushes per side.
func (j *SymmetricHashJoin) PushBatch(tag Tag, b *tuple.Batch) { j.pushBatch(tag, b, false) }

// PushBatchLeft and PushBatchRight are the two input ports, exported for
// graphs built by hand.
func (j *SymmetricHashJoin) PushBatchLeft(tag Tag, b *tuple.Batch) { j.pushBatch(tag, b, false) }

func (j *SymmetricHashJoin) PushBatchRight(tag Tag, b *tuple.Batch) { j.pushBatch(tag, b, true) }

// sideTables returns the key columns, own table, and opposite table for
// one input side.
func (j *SymmetricHashJoin) sideTables(right bool) ([]string, map[Tag]map[string]*joinBucket, map[Tag]map[string]*joinBucket) {
	if right {
		return j.RightKeys, j.rightT, j.leftT
	}
	return j.LeftKeys, j.leftT, j.rightT
}

// joinRow combines the arriving tuple with one match, preserving
// left-before-right column order.
func (j *SymmetricHashJoin) joinRow(t, match *tuple.Tuple, fromLeft bool) *tuple.Tuple {
	if fromLeft {
		return tuple.Join(j.OutTable, t, match, j.PrefixCols)
	}
	return tuple.Join(j.OutTable, match, t, j.PrefixCols)
}

// pushBatch inserts and probes every row of the batch, emitting all join
// outputs as one batch. Row views materialized at insert are retained in
// the hash table (allowed by the batch ownership contract).
func (j *SymmetricHashJoin) pushBatch(tag Tag, b *tuple.Batch, right bool) {
	n := b.Len()
	if n == 0 {
		return
	}
	keys, mineT, theirsT := j.sideTables(right)
	var colIdx []int
	if b.Columnar() {
		colIdx = make([]int, len(keys))
		for i, c := range keys {
			ci, ok := b.ColIndex(c)
			if !ok {
				// Key column absent from the uniform schema: every row
				// malformed.
				j.Dropped.Add(n)
				return
			}
			colIdx[i] = ci
		}
	}
	m := mineT[tag]
	if m == nil {
		m = make(map[string]*joinBucket)
		mineT[tag] = m
	}
	theirs := theirsT[tag]
	j.outs = j.outs[:0]
	for i := 0; i < n; i++ {
		var kb []byte
		if colIdx != nil {
			kb = b.AppendRowKey(j.keyBuf[:0], i, colIdx)
		} else {
			var ok bool
			kb, ok = b.Row(i).AppendKey(j.keyBuf[:0], keys)
			if !ok {
				j.keyBuf = kb[:0]
				j.Dropped.Inc()
				continue
			}
		}
		j.keyBuf = kb[:0]
		t := b.Row(i)
		bkt := m[string(kb)]
		if bkt == nil {
			bkt = &joinBucket{}
			m[string(kb)] = bkt
		}
		bkt.rows = append(bkt.rows, t)
		if other := theirs[string(kb)]; other != nil {
			for _, match := range other.rows {
				j.outs = append(j.outs, j.joinRow(t, match, !right))
			}
		}
	}
	if len(j.outs) > 0 {
		j.Emit(tag, tuple.FromTuples(append([]*tuple.Tuple(nil), j.outs...)))
	}
}

// Flush forwards to both inputs; the join itself emits eagerly and holds
// no deferred output.
func (j *SymmetricHashJoin) Flush(tag Tag) {
	if j.left != nil {
		j.left.Flush(tag)
	}
	if j.right != nil {
		j.right.Flush(tag)
	}
}

// Close drops both hash tables.
func (j *SymmetricHashJoin) Close() {
	j.leftT = make(map[Tag]map[string]*joinBucket)
	j.rightT = make(map[Tag]map[string]*joinBucket)
	if j.left != nil {
		j.left.Close()
	}
	if j.right != nil {
		j.right.Close()
	}
}

// StateSize reports resident tuples per side for the probe, for tests and
// instrumentation.
func (j *SymmetricHashJoin) StateSize(tag Tag) (left, right int) {
	for _, v := range j.leftT[tag] {
		left += len(v.rows)
	}
	for _, v := range j.rightT[tag] {
		right += len(v.rows)
	}
	return
}
