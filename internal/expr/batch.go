package expr

import (
	"sync"

	"pier/internal/tuple"
)

// Vectorized predicate compilation. CompilePred turns the hot predicate
// shapes — Col, Const, Cmp, And, Or, Not over them — into a closure that
// evaluates a whole batch into a per-row tri-state result, resolving
// each column reference to an index ONCE per batch instead of a name
// scan per row, and replacing the interface-dispatched Eval tree walk
// with tight loops. A node outside that shape (arithmetic, negation,
// functions) compiles to its own Eval, run a row at a time over row
// views inside the closure, so every predicate has one batch form.
//
// The tri-state per row mirrors the best-effort typing policy: a row can
// pass, fail, or be malformed (missing column, incomparable kinds) — the
// operator discards malformed rows exactly as row-wise Eval would.
// Short-circuit semantics match Eval precisely: And with a false left is
// false even when the right side is malformed; Or with a true left is
// true likewise; a malformed left poisons the row either way.

// Per-row batch-predicate results.
const (
	RowFail      int8 = 0
	RowPass      int8 = 1
	RowMalformed int8 = -1
)

// BatchPred evaluates a predicate over every selected row of a batch,
// writing one tri-state per row into out (len out == b.Len()). And and
// Or evaluate their right side into out's spare capacity,
// out[len(out):cap(out)], which a call may overwrite, or into a pooled
// buffer when that is shorter than len(out): a caller holding a pooled
// buffer already (exec.Select) leaves len(out) spare and skips the pool.
// A BatchPred keeps no buffers between calls, so it is safe for
// concurrent use on distinct outs.
type BatchPred func(b *tuple.Batch, out []int8)

// CompilePred compiles e into a vectorized predicate.
func CompilePred(e Expr) BatchPred {
	switch n := e.(type) {
	case Const:
		code := boolCode(n.Val)
		return func(b *tuple.Batch, out []int8) { fill(out, code) }
	case Col:
		name := n.Name
		return func(b *tuple.Batch, out []int8) {
			c, ok := b.ColIndex(name)
			if !ok {
				fill(out, RowMalformed)
				return
			}
			for i := range out {
				out[i] = boolCode(b.At(i, c))
			}
		}
	case Cmp:
		return compileCmp(n)
	case And:
		l, r := CompilePred(n.L), CompilePred(n.R)
		return func(b *tuple.Batch, out []int8) {
			l(b, out)
			rv, pooled := spare(out)
			r(b, rv)
			for i, lv := range out {
				// Short-circuit: false left decides, malformed left poisons.
				if lv == RowPass {
					out[i] = rv[i]
				}
			}
			putSpare(pooled)
		}
	case Or:
		l, r := CompilePred(n.L), CompilePred(n.R)
		return func(b *tuple.Batch, out []int8) {
			l(b, out)
			rv, pooled := spare(out)
			r(b, rv)
			for i, lv := range out {
				if lv == RowFail {
					out[i] = rv[i]
				}
			}
			putSpare(pooled)
		}
	case Not:
		inner := CompilePred(n.E)
		return func(b *tuple.Batch, out []int8) {
			inner(b, out)
			for i, v := range out {
				switch v {
				case RowPass:
					out[i] = RowFail
				case RowFail:
					out[i] = RowPass
				}
			}
		}
	default:
		return evalPred(e)
	}
}

// rowViews holds the scratch row views evalPred reads through.
var rowViews = sync.Pool{New: func() any { return new(tuple.Tuple) }}

// evalPred is the BatchPred of a node outside the compiled subset: e's
// Eval, a row at a time. No shipped plan's predicate needs it.
func evalPred(e Expr) BatchPred {
	return func(b *tuple.Batch, out []int8) {
		row := rowViews.Get().(*tuple.Tuple)
		for i := range out {
			b.RowInto(i, row)
			if v, ok := e.Eval(row); ok {
				out[i] = boolCode(v)
			} else {
				out[i] = RowMalformed
			}
		}
		*row = tuple.Tuple{}
		rowViews.Put(row)
	}
}

// compileCmp compiles a Cmp whose operands are Col or Const; any other
// Cmp evaluates a row at a time.
func compileCmp(c Cmp) BatchPred {
	op := c.Op
	lcol, lConst, lok := cmpOperand(c.L)
	rcol, rConst, rok := cmpOperand(c.R)
	if !lok || !rok {
		return evalPred(c)
	}
	tbl := cmpTable(op)
	return func(b *tuple.Batch, out []int8) {
		li, ri := -1, -1
		if lcol != "" {
			ci, ok := b.ColIndex(lcol)
			if !ok {
				fill(out, RowMalformed)
				return
			}
			li = ci
		}
		if rcol != "" {
			ci, ok := b.ColIndex(rcol)
			if !ok {
				fill(out, RowMalformed)
				return
			}
			ri = ci
		}
		if b.CmpKernel(li, lConst, ri, rConst, &tbl, out) {
			return
		}
		for i := range out {
			lv := lConst
			if li >= 0 {
				lv = b.At(i, li)
			}
			rv := rConst
			if ri >= 0 {
				rv = b.At(i, ri)
			}
			cmp, ok := tuple.Compare(lv, rv)
			if !ok {
				out[i] = RowMalformed
				continue
			}
			out[i] = tbl[cmp+1]
		}
	}
}

// cmpTable precomputes op's tri-state for each Compare outcome, indexed
// by cmp+1, so the per-row loop does a table load instead of a switch.
func cmpTable(op CmpOp) (tbl [3]int8) {
	for cmp := -1; cmp <= 1; cmp++ {
		tbl[cmp+1] = cmpCode(op, cmp)
	}
	return tbl
}

// cmpOperand classifies a comparison operand: (column name, "", true)
// for Col, ("", value, true) for Const, ok=false otherwise.
func cmpOperand(e Expr) (col string, v tuple.Value, ok bool) {
	switch n := e.(type) {
	case Col:
		return n.Name, tuple.Value{}, true
	case Const:
		return "", n.Val, true
	default:
		return "", tuple.Value{}, false
	}
}

func cmpCode(op CmpOp, cmp int) int8 {
	var b bool
	switch op {
	case EQ:
		b = cmp == 0
	case NE:
		b = cmp != 0
	case LT:
		b = cmp < 0
	case LE:
		b = cmp <= 0
	case GT:
		b = cmp > 0
	case GE:
		b = cmp >= 0
	}
	if b {
		return RowPass
	}
	return RowFail
}

func boolCode(v tuple.Value) int8 {
	b, ok := v.AsBool()
	if !ok {
		return RowMalformed
	}
	if b {
		return RowPass
	}
	return RowFail
}

func fill(out []int8, code int8) {
	for i := range out {
		out[i] = code
	}
}

// spareBufs backs spare when out has too little spare capacity.
var spareBufs = sync.Pool{New: func() any { return new([]int8) }}

// spare returns len(out) int8s of scratch for the right side of an And
// or Or: out[len:2len] when out's capacity allows, keeping the rest of
// the capacity for the right side's own And/Or, else a pooled buffer,
// returned in pooled for putSpare.
func spare(out []int8) (sc []int8, pooled *[]int8) {
	n := len(out)
	if cap(out)-n >= n {
		return out[n : 2*n], nil
	}
	pooled = spareBufs.Get().(*[]int8)
	if cap(*pooled) < n {
		*pooled = make([]int8, n)
	}
	return (*pooled)[:n], pooled
}

// putSpare returns a buffer spare took from the pool.
func putSpare(pooled *[]int8) {
	if pooled != nil {
		spareBufs.Put(pooled)
	}
}
