// Package expr implements the scalar expression language used in PIER
// query plans: column references, literals, comparisons, boolean logic,
// arithmetic, and a registry of scalar functions.
//
// Evaluation follows the paper's best-effort typing policy (§3.3.1,
// §3.3.4): there is no catalog to type-check against, so type errors are
// discovered at evaluation time. Every evaluation returns (value, ok);
// ok=false means the tuple lacked a referenced field or a value had an
// incompatible type, and the operator evaluating the expression discards
// the tuple.
package expr

import (
	"fmt"
	"strings"

	"pier/internal/tuple"
)

// Expr is a compiled scalar expression.
type Expr interface {
	// Eval computes the expression over one tuple. ok=false marks the
	// tuple malformed with respect to this expression.
	Eval(t *tuple.Tuple) (v tuple.Value, ok bool)
	// String renders the expression in parseable form.
	String() string
}

// Col references a column by name.
type Col struct{ Name string }

// Eval looks the column up in the tuple.
func (c Col) Eval(t *tuple.Tuple) (tuple.Value, bool) { return t.Get(c.Name) }

// String returns the column name.
func (c Col) String() string { return c.Name }

// Const is a literal value.
type Const struct{ Val tuple.Value }

// Eval returns the literal.
func (c Const) Eval(*tuple.Tuple) (tuple.Value, bool) { return c.Val, true }

// String renders the literal.
func (c Const) String() string {
	if s, ok := c.Val.AsString(); ok {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return c.Val.String()
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Cmp compares two subexpressions. Incomparable operands make the tuple
// malformed rather than raising an error.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval applies the comparison.
func (c Cmp) Eval(t *tuple.Tuple) (tuple.Value, bool) {
	lv, ok := c.L.Eval(t)
	if !ok {
		return tuple.Value{}, false
	}
	rv, ok := c.R.Eval(t)
	if !ok {
		return tuple.Value{}, false
	}
	cmp, ok := tuple.Compare(lv, rv)
	if !ok {
		return tuple.Value{}, false
	}
	var b bool
	switch c.Op {
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
	return tuple.Bool(b), true
}

func (c Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// And is boolean conjunction with short-circuiting.
type And struct{ L, R Expr }

// Eval evaluates left-to-right; a false left operand decides the result
// without consulting the right.
func (a And) Eval(t *tuple.Tuple) (tuple.Value, bool) {
	lv, ok := a.L.Eval(t)
	if !ok {
		return tuple.Value{}, false
	}
	lb, ok := lv.AsBool()
	if !ok {
		return tuple.Value{}, false
	}
	if !lb {
		return tuple.Bool(false), true
	}
	rv, ok := a.R.Eval(t)
	if !ok {
		return tuple.Value{}, false
	}
	rb, ok := rv.AsBool()
	if !ok {
		return tuple.Value{}, false
	}
	return tuple.Bool(rb), true
}

func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is boolean disjunction with short-circuiting.
type Or struct{ L, R Expr }

// Eval evaluates left-to-right; a true left operand decides the result.
func (o Or) Eval(t *tuple.Tuple) (tuple.Value, bool) {
	lv, ok := o.L.Eval(t)
	if !ok {
		return tuple.Value{}, false
	}
	lb, ok := lv.AsBool()
	if !ok {
		return tuple.Value{}, false
	}
	if lb {
		return tuple.Bool(true), true
	}
	rv, ok := o.R.Eval(t)
	if !ok {
		return tuple.Value{}, false
	}
	rb, ok := rv.AsBool()
	if !ok {
		return tuple.Value{}, false
	}
	return tuple.Bool(rb), true
}

func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Not is boolean negation.
type Not struct{ E Expr }

// Eval negates a boolean operand.
func (n Not) Eval(t *tuple.Tuple) (tuple.Value, bool) {
	v, ok := n.E.Eval(t)
	if !ok {
		return tuple.Value{}, false
	}
	b, ok := v.AsBool()
	if !ok {
		return tuple.Value{}, false
	}
	return tuple.Bool(!b), true
}

func (n Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Mod:
		return "%"
	}
	return "?"
}

// Arith applies integer or float arithmetic, widening int to float when
// the operands are mixed. Division by zero makes the tuple malformed.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval applies the operator.
func (a Arith) Eval(t *tuple.Tuple) (tuple.Value, bool) {
	lv, ok := a.L.Eval(t)
	if !ok {
		return tuple.Value{}, false
	}
	rv, ok := a.R.Eval(t)
	if !ok {
		return tuple.Value{}, false
	}
	if li, lok := lv.AsInt(); lok {
		if ri, rok := rv.AsInt(); rok {
			switch a.Op {
			case Add:
				return tuple.Int(li + ri), true
			case Sub:
				return tuple.Int(li - ri), true
			case Mul:
				return tuple.Int(li * ri), true
			case Div:
				if ri == 0 {
					return tuple.Value{}, false
				}
				return tuple.Int(li / ri), true
			case Mod:
				if ri == 0 {
					return tuple.Value{}, false
				}
				return tuple.Int(li % ri), true
			}
		}
	}
	lf, lok := lv.AsFloat()
	rf, rok := rv.AsFloat()
	if !lok || !rok {
		// String concatenation via "+" as a convenience.
		if a.Op == Add {
			if ls, ok1 := lv.AsString(); ok1 {
				if rs, ok2 := rv.AsString(); ok2 {
					return tuple.String(ls + rs), true
				}
			}
		}
		return tuple.Value{}, false
	}
	switch a.Op {
	case Add:
		return tuple.Float(lf + rf), true
	case Sub:
		return tuple.Float(lf - rf), true
	case Mul:
		return tuple.Float(lf * rf), true
	case Div:
		if rf == 0 {
			return tuple.Value{}, false
		}
		return tuple.Float(lf / rf), true
	case Mod:
		return tuple.Value{}, false
	}
	return tuple.Value{}, false
}

func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// Neg is unary numeric negation.
type Neg struct{ E Expr }

// Eval negates an int or float operand.
func (n Neg) Eval(t *tuple.Tuple) (tuple.Value, bool) {
	v, ok := n.E.Eval(t)
	if !ok {
		return tuple.Value{}, false
	}
	if i, ok := v.AsInt(); ok {
		return tuple.Int(-i), true
	}
	if f, ok := v.AsFloat(); ok {
		return tuple.Float(-f), true
	}
	return tuple.Value{}, false
}

func (n Neg) String() string { return fmt.Sprintf("(-%s)", n.E) }

// Func applies a built-in scalar function to argument expressions.
type Func struct {
	Name string
	Args []Expr
}

// Eval evaluates the arguments and applies the function. Parse refuses
// an unknown name; a Func built with one by hand makes every tuple
// malformed.
func (f Func) Eval(t *tuple.Tuple) (tuple.Value, bool) {
	fn := builtins[strings.ToLower(f.Name)]
	if fn == nil {
		return tuple.Value{}, false
	}
	args := make([]tuple.Value, len(f.Args))
	for i, a := range f.Args {
		v, ok := a.Eval(t)
		if !ok {
			return tuple.Value{}, false
		}
		args[i] = v
	}
	return fn(args)
}

func (f Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// ScalarFunc is the signature of a built-in scalar function.
type ScalarFunc func(args []tuple.Value) (tuple.Value, bool)

// builtins is the fixed scalar function catalog. PIER supports
// extensibility through abstract data types (§3.3.1); here a new function
// is a new entry in this map. It is read-only at run time, so sharded
// workers may evaluate a Func concurrently.
var builtins = map[string]ScalarFunc{
	"length": func(a []tuple.Value) (tuple.Value, bool) {
		if len(a) != 1 {
			return tuple.Value{}, false
		}
		if s, ok := a[0].AsString(); ok {
			return tuple.Int(int64(len(s))), true
		}
		if b, ok := a[0].AsBytes(); ok {
			return tuple.Int(int64(len(b))), true
		}
		return tuple.Value{}, false
	},
	"lower": stringFunc(strings.ToLower),
	"upper": stringFunc(strings.ToUpper),
	"abs": func(a []tuple.Value) (tuple.Value, bool) {
		if len(a) != 1 {
			return tuple.Value{}, false
		}
		if i, ok := a[0].AsInt(); ok {
			if i < 0 {
				i = -i
			}
			return tuple.Int(i), true
		}
		if f, ok := a[0].AsFloat(); ok {
			if f < 0 {
				f = -f
			}
			return tuple.Float(f), true
		}
		return tuple.Value{}, false
	},
	"coalesce": func(a []tuple.Value) (tuple.Value, bool) {
		for _, v := range a {
			if !v.IsNull() {
				return v, true
			}
		}
		return tuple.Null(), true
	},
	"contains": func(a []tuple.Value) (tuple.Value, bool) {
		if len(a) != 2 {
			return tuple.Value{}, false
		}
		s, ok1 := a[0].AsString()
		sub, ok2 := a[1].AsString()
		if !ok1 || !ok2 {
			return tuple.Value{}, false
		}
		return tuple.Bool(strings.Contains(s, sub)), true
	},
	"startswith": func(a []tuple.Value) (tuple.Value, bool) {
		if len(a) != 2 {
			return tuple.Value{}, false
		}
		s, ok1 := a[0].AsString()
		p, ok2 := a[1].AsString()
		if !ok1 || !ok2 {
			return tuple.Value{}, false
		}
		return tuple.Bool(strings.HasPrefix(s, p)), true
	},
	"isnull": func(a []tuple.Value) (tuple.Value, bool) {
		if len(a) != 1 {
			return tuple.Value{}, false
		}
		return tuple.Bool(a[0].IsNull()), true
	},
}

func stringFunc(f func(string) string) ScalarFunc {
	return func(a []tuple.Value) (tuple.Value, bool) {
		if len(a) != 1 {
			return tuple.Value{}, false
		}
		s, ok := a[0].AsString()
		if !ok {
			return tuple.Value{}, false
		}
		return tuple.String(f(s)), true
	}
}

// TruePredicate is an expression that accepts every tuple; used for
// true-predicate (scan-everything) queries (§3.3.3).
var TruePredicate Expr = Const{Val: tuple.Bool(true)}
