package tuple

// Aggregation fold kernels: the column-at-a-time inner loops behind
// exec.GroupSet.AddBatch, mirroring CmpKernel's design. The caller (the
// aggregation operator) resolves group slots for the whole batch first —
// slots[i] is row i's dense accumulator index — and then each kernel
// folds one aggregate column over the raw column storage in row order,
// reading Value fields directly instead of materializing per-row Value
// copies through At.
//
// Bit-identity contract: every kernel folds rows in logical row order
// into per-slot RUNNING accumulators, replicating the per-row aggregate
// add sequence exactly (float addition is not associative, so
// partial-then-merge folds are forbidden). Each kernel requires the
// column kind it is typed for to be uniform across the batch and returns
// false otherwise, sending the caller to its per-row fallback.

// FoldCountCol counts one row per selected row into counts[slots[i]] —
// the count(*) / count(col-present-in-schema) kernel. It reads no column
// storage (a count ignores the value), so it works on any batch.
func (b *Batch) FoldCountCol(slots []int32, counts []int64) {
	for i := range slots {
		counts[slots[i]]++
	}
}

// FoldSumInt64Col folds a uniform int column into acc per slot
// (a sum's integer accumulator; int inputs add to it regardless of a
// prior float promotion, exactly like the per-row add).
func (b *Batch) FoldSumInt64Col(c int, slots []int32, acc []int64, any []bool) bool {
	if k, ok := b.ColKind(c); !ok || k != KindInt {
		return false
	}
	stride := len(b.names)
	vals := b.vals
	for i := range slots {
		s := slots[i]
		acc[s] += vals[b.phys(i)*stride+c].i
		any[s] = true
	}
	return true
}

// FoldSumFloat64Col folds a uniform float column into accF per slot,
// promoting a slot's integer accumulator exactly once on first touch —
// the same promotion a per-row sum performs on its first float input.
func (b *Batch) FoldSumFloat64Col(c int, slots []int32, accI []int64, accF []float64, isFloat, any []bool) bool {
	if k, ok := b.ColKind(c); !ok || k != KindFloat {
		return false
	}
	stride := len(b.names)
	vals := b.vals
	for i := range slots {
		s := slots[i]
		if !isFloat[s] {
			accF[s] = float64(accI[s])
			isFloat[s] = true
		}
		accF[s] += vals[b.phys(i)*stride+c].float()
		any[s] = true
	}
	return true
}

// FoldMinMaxInt64Col folds a uniform int column into best per slot.
// any[s] marks slots whose best is initialized; an uninitialized slot
// adopts the first value, like the per-row min/max add.
func (b *Batch) FoldMinMaxInt64Col(c int, min bool, slots []int32, best []int64, any []bool) bool {
	if k, ok := b.ColKind(c); !ok || k != KindInt {
		return false
	}
	stride := len(b.names)
	vals := b.vals
	for i := range slots {
		s := slots[i]
		v := vals[b.phys(i)*stride+c].i
		if !any[s] {
			best[s], any[s] = v, true
			continue
		}
		if cmp := cmpOrdered(v, best[s]); (min && cmp < 0) || (!min && cmp > 0) {
			best[s] = v
		}
	}
	return true
}

// FoldMinMaxFloat64Col is FoldMinMaxInt64Col for a uniform float column.
// cmpOrdered returns 0 for NaN comparisons, so a NaN never displaces the
// incumbent and a NaN incumbent is never displaced — Compare's ordering.
func (b *Batch) FoldMinMaxFloat64Col(c int, min bool, slots []int32, best []float64, any []bool) bool {
	if k, ok := b.ColKind(c); !ok || k != KindFloat {
		return false
	}
	stride := len(b.names)
	vals := b.vals
	for i := range slots {
		s := slots[i]
		v := vals[b.phys(i)*stride+c].float()
		if !any[s] {
			best[s], any[s] = v, true
			continue
		}
		if cmp := cmpOrdered(v, best[s]); (min && cmp < 0) || (!min && cmp > 0) {
			best[s] = v
		}
	}
	return true
}

// FoldMinMaxStringCol is FoldMinMaxInt64Col for a uniform string column.
func (b *Batch) FoldMinMaxStringCol(c int, min bool, slots []int32, best []string, any []bool) bool {
	if k, ok := b.ColKind(c); !ok || k != KindString {
		return false
	}
	stride := len(b.names)
	vals := b.vals
	for i := range slots {
		s := slots[i]
		v := vals[b.phys(i)*stride+c].s
		if !any[s] {
			best[s], any[s] = v, true
			continue
		}
		if cmp := cmpOrdered(v, best[s]); (min && cmp < 0) || (!min && cmp > 0) {
			best[s] = v
		}
	}
	return true
}

// FoldAvgCol folds a uniform numeric column into sum/cnt per slot
// (an average's sum and count; ints widen to float exactly like AsFloat).
func (b *Batch) FoldAvgCol(c int, slots []int32, sum []float64, cnt []int64) bool {
	k, ok := b.ColKind(c)
	if !ok || (k != KindInt && k != KindFloat) {
		return false
	}
	stride := len(b.names)
	vals := b.vals
	if k == KindInt {
		for i := range slots {
			s := slots[i]
			sum[s] += float64(vals[b.phys(i)*stride+c].i)
			cnt[s]++
		}
		return true
	}
	for i := range slots {
		s := slots[i]
		sum[s] += vals[b.phys(i)*stride+c].float()
		cnt[s]++
	}
	return true
}
