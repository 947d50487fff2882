package expr

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
)

// AppendCanonical appends the canonical form of e to b: the form subtree
// keys hold (ufl.SubtreeKey), so predicates that differ only in the
// operand order of a commutative And/Or or in the direction of a
// comparison key alike and share one chain. A chain of one of those
// operators is flattened, its operands stably sorted by their canonical
// bytes and reassembled left-deep, the shape the parser gives a AND b AND
// c; a comparison whose left side renders after its right is flipped
// around the mirrored operator (a < b ≡ b > a). Arithmetic stays
// ordered: "+" also concatenates strings, and reordering changes which
// operand a division by zero or type failure is found on. Executed plans
// keep their authored shape. It is one pass: each operand is rendered
// once, in place, and sorted or flipped by comparing its bytes.
func AppendCanonical(b []byte, e Expr) []byte { return render(b, e, true) }

// CanonicalString parses src as a predicate and renders its canonical
// form (AppendCanonical); unparsable input comes back unchanged.
func CanonicalString(src string) string {
	e, err := Parse(src)
	if err != nil {
		return src
	}
	return string(AppendCanonical(nil, e))
}

// render appends e to b as its String writes it, or with canon set in its
// canonical form. Either form parses back to e.
func render(b []byte, e Expr, canon bool) []byte {
	switch v := e.(type) {
	case Const:
		if s, ok := v.Val.AsString(); ok {
			return append(append(append(b, '\''), strings.ReplaceAll(s, "'", "''")...), '\'')
		} else if i, ok := v.Val.AsInt(); ok {
			return strconv.AppendInt(b, i, 10)
		}
		return append(b, v.Val.String()...)
	case Cmp:
		start, op := len(b)+1, v.Op.String()
		b = render(append(b, '('), v.L, canon)
		mid, right := len(b), len(b)+len(op)+2
		if b = render(append(append(append(b, ' '), op...), ' '), v.R, canon); canon && bytes.Compare(b[start:mid], b[right:]) > 0 {
			// (L op R) becomes (R mirror(op) L): reverse the span, then
			// each of its three parts back.
			span, nr := b[start:], len(b)-right
			slices.Reverse(span)
			slices.Reverse(span[:nr])
			slices.Reverse(span[nr+right-mid:])
			copy(span[nr+1:], mirror(v.Op).String())
		}
		return append(b, ')')
	case And:
		return renderBool(b, e, v.L, "AND", v.R, canon)
	case Or:
		return renderBool(b, e, v.L, "OR", v.R, canon)
	case Not:
		return append(render(append(b, "(NOT "...), v.E, canon), ')')
	case Arith:
		return renderInfix(b, v.L, v.Op.String(), v.R, canon)
	case Neg:
		return append(render(append(b, "(-"...), v.E, canon), ')')
	case Func:
		b = append(append(b, v.Name...), '(')
		for i, a := range v.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = render(b, a, canon)
		}
		return append(b, ')')
	}
	return append(b, e.String()...)
}

func renderInfix(b []byte, l Expr, op string, r Expr, canon bool) []byte {
	b = append(append(append(render(append(b, '('), l, canon), ' '), op...), ' ')
	return append(render(b, r, canon), ')')
}

// renderBool appends the And or Or e, whose sides are l and r. In the
// canonical form its chain's operands, flattened through nested nodes of
// e's own type, are rendered one after another, stably sorted by those
// bytes and written again left-deep. A short chain's stack of nodes still
// to visit, and its operands' spans, stay in arrays.
func renderBool(b []byte, e, l Expr, op string, r Expr, canon bool) []byte {
	if !canon {
		return renderInfix(b, l, op, r, false)
	}
	var stackBuf [8]Expr
	var spansBuf [8][2]int
	_, conj := e.(And)
	start, stack, spans := len(b), append(stackBuf[:0], r, l), spansBuf[:0]
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a, ok := x.(And); ok && conj {
			stack = append(stack, a.R, a.L)
		} else if o, ok := x.(Or); ok && !conj {
			stack = append(stack, o.R, o.L)
		} else {
			from := len(b)
			b = render(b, x, true)
			spans = append(spans, [2]int{from, len(b)})
		}
	}
	slices.SortStableFunc(spans, func(x, y [2]int) int { return bytes.Compare(b[x[0]:x[1]], b[y[0]:y[1]]) })
	out := len(b)
	for range spans[1:] {
		b = append(b, '(')
	}
	for i, s := range spans {
		if i > 0 {
			b = append(append(append(b, ' '), op...), ' ')
		}
		if b = append(b, b[s[0]:s[1]]...); i > 0 {
			b = append(b, ')')
		}
	}
	return b[:start+copy(b[start:], b[out:])]
}

// mirror returns the operator that preserves a comparison's meaning when
// its operands are swapped.
func mirror(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case GT:
		return LT
	case LE:
		return GE
	case GE:
		return LE
	}
	return op // EQ and NE are symmetric
}
