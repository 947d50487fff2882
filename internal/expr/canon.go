package expr

import "sort"

// Canonical returns a structurally normalized form of e for SUBTREE KEY
// purposes: operands of commutative And/Or chains are flattened and
// sorted by their canonical rendering, and a comparison whose operands
// are out of that order is flipped around the mirrored operator
// (a < b ≡ b > a). Two predicates that differ only in commutative
// operand order or comparison direction thus render to one string, so
// human-authored orderings write the same subtree key and hit the
// shared-subtree cache (ufl.SubtreeKey).
//
// The rewrite is used ONLY when writing keys — executed plans
// keep their authored shape, so evaluation order (and with it the
// short-circuit treatment of malformed inputs) is untouched. The
// adopting query simply runs the cached chain's predicate, exactly as
// subtree sharing already implies.
func Canonical(e Expr) Expr {
	switch v := e.(type) {
	case And:
		ops := flattenCanon(e, true, nil)
		return rebuild(ops, true)
	case Or:
		ops := flattenCanon(e, false, nil)
		return rebuild(ops, false)
	case Not:
		return Not{E: Canonical(v.E)}
	case Cmp:
		l, r := Canonical(v.L), Canonical(v.R)
		if l.String() > r.String() {
			return Cmp{Op: mirror(v.Op), L: r, R: l}
		}
		return Cmp{Op: v.Op, L: l, R: r}
	case Arith:
		// Arithmetic is left alone: Add/Mul commute over numbers but "+"
		// also concatenates strings, and reordering changes which operand
		// a div-by-zero or type failure is discovered on.
		return Arith{Op: v.Op, L: Canonical(v.L), R: Canonical(v.R)}
	case Neg:
		return Neg{E: Canonical(v.E)}
	case Func:
		args := make([]Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = Canonical(a)
		}
		return Func{Name: v.Name, Args: args}
	default:
		return e
	}
}

// flattenCanon collects the canonicalized leaves of a same-operator
// And/Or chain (conj selects which) into ops.
func flattenCanon(e Expr, conj bool, ops []Expr) []Expr {
	if conj {
		if a, ok := e.(And); ok {
			ops = flattenCanon(a.L, conj, ops)
			return flattenCanon(a.R, conj, ops)
		}
	} else {
		if o, ok := e.(Or); ok {
			ops = flattenCanon(o.L, conj, ops)
			return flattenCanon(o.R, conj, ops)
		}
	}
	return append(ops, Canonical(e))
}

// rebuild sorts the chain's operands by rendering and reassembles them
// left-deep — the same shape the parser produces for a AND b AND c.
func rebuild(ops []Expr, conj bool) Expr {
	sort.SliceStable(ops, func(i, j int) bool {
		return ops[i].String() < ops[j].String()
	})
	e := ops[0]
	for _, o := range ops[1:] {
		if conj {
			e = And{L: e, R: o}
		} else {
			e = Or{L: e, R: o}
		}
	}
	return e
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

// CanonicalString parses src as a predicate and renders its Canonical
// form; unparseable input comes back unchanged. ufl.SubtreeKey writes
// every predicate argument through here, so equivalent orderings key
// alike.
func CanonicalString(src string) string {
	e, err := Parse(src)
	if err != nil {
		return src
	}
	return Canonical(e).String()
}
