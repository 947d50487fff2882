package expr

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The oracle AppendCanonical and the String methods are held to: the
// tree rewrite and the fmt renderer they replaced, each kept whole.

// Canonical returns a structurally normalized form of e: operands of
// commutative And/Or chains flattened and sorted by their canonical
// rendering, and each comparison whose operands are out of that order
// flipped around the mirrored operator. Its rendering, oracleString, is
// what AppendCanonical must write.
func Canonical(e Expr) Expr {
	switch v := e.(type) {
	case And:
		return rebuild(flattenCanon(e, true, nil), true)
	case Or:
		return rebuild(flattenCanon(e, false, nil), false)
	case Not:
		return Not{E: Canonical(v.E)}
	case Cmp:
		l, r := Canonical(v.L), Canonical(v.R)
		if oracleString(l) > oracleString(r) {
			return Cmp{Op: mirror(v.Op), L: r, R: l}
		}
		return Cmp{Op: v.Op, L: l, R: r}
	case Arith:
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
	if a, ok := e.(And); ok && conj {
		return flattenCanon(a.R, conj, flattenCanon(a.L, conj, ops))
	}
	if o, ok := e.(Or); ok && !conj {
		return flattenCanon(o.R, conj, flattenCanon(o.L, conj, ops))
	}
	return append(ops, Canonical(e))
}

// rebuild sorts the chain's operands by rendering and reassembles them
// left-deep — the same shape the parser produces for a AND b AND c.
func rebuild(ops []Expr, conj bool) Expr {
	sort.SliceStable(ops, func(i, j int) bool { return oracleString(ops[i]) < oracleString(ops[j]) })
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

// oracleString renders e through fmt, as every String method did.
func oracleString(e Expr) string {
	switch v := e.(type) {
	case Const:
		if s, ok := v.Val.AsString(); ok {
			return "'" + strings.ReplaceAll(s, "'", "''") + "'"
		}
		return v.Val.String()
	case Cmp:
		return fmt.Sprintf("(%s %s %s)", oracleString(v.L), v.Op, oracleString(v.R))
	case And:
		return fmt.Sprintf("(%s AND %s)", oracleString(v.L), oracleString(v.R))
	case Or:
		return fmt.Sprintf("(%s OR %s)", oracleString(v.L), oracleString(v.R))
	case Not:
		return fmt.Sprintf("(NOT %s)", oracleString(v.E))
	case Arith:
		return fmt.Sprintf("(%s %s %s)", oracleString(v.L), v.Op, oracleString(v.R))
	case Neg:
		return fmt.Sprintf("(-%s)", oracleString(v.E))
	case Func:
		parts := make([]string, len(v.Args))
		for i, a := range v.Args {
			parts[i] = oracleString(a)
		}
		return fmt.Sprintf("%s(%s)", v.Name, strings.Join(parts, ", "))
	}
	return e.String()
}

// canonSeeds are the predicates the tree's plans, scenarios, SQL queries
// and tests write, with their format verbs filled in, and a few shapes
// none of them has.
var canonSeeds = []string{
	"dstport <= 4000 AND severity >= 0", "dstport <= 4199", "severity > 2 AND dstport <= 4063",
	"k = 'q7'", "name = 'it''s' AND x > 1, 5", "name = 'target'", "nosuchfn(a) = 1",
	"sev > 2 AND sev < 9", "sev > 2", "sev > 8", "severity > 99", "severity >= 2", "severity >= 3",
	"severity >= 5", "v > 0", "v >= 0", "v >= 12", "v >= 30", "v >= 4", "v < 9", "v > 1",
	"a = 1", "a.x = b.x", "a.x > b.x", "emp.dept = dept.id", "key = 'k'", "keyword = 'pier'",
	"len > 10", "len > 100", "name = 'a' OR name = 'b'", "name = 'f3'", "name = 'it''s here'",
	"name = 'song.mp3'", "r.id = s.id", "r.id = s.id AND r.v > 3", "s.k = r.j", "size = 5", "x = 1",
	"a = 5 AND b < 10 OR NOT ok", "length(name) + 2 * a", "UPPER(name) = 'ALICE'", "R.id = S.id",
	"x * 2 + y", "ghost = 1", "a = 4 AND ghost = 1", "a = 5 OR ghost = 1", "name > 5", "x < y",
	"c = 3 AND b < 2 AND a > 1", "(b OR a) AND (d OR c) AND NOT (z > -y)", "-(1.5) < 2.25 % 7",
	"coalesce(b, a, NULL) = TRUE OR false", "1 < a", "2 > b AND 1 <= a", "b = a AND a = b",
	"contains(name, 'x') AND startswith(lower(name), 'y') OR isnull(c)", "",
}

// TestAppendCanonicalMatchesOracle: for every seed that parses, the
// one-pass canonical bytes are the oracle's, every String is the fmt
// renderer's, and equivalent orderings render alike.
func TestAppendCanonicalMatchesOracle(t *testing.T) {
	for _, src := range canonSeeds {
		checkCanonical(t, src)
	}
	for _, pair := range [][2]string{
		{"a > 1 AND b < 2", "b < 2 AND a > 1"},
		{"a > 1 AND b < 2 AND c = 3", "c = 3 AND b < 2 AND a > 1"},
		{"a = 1 OR b = 2", "b = 2 OR a = 1"},
		{"a > 1", "1 < a"},
		{"a >= 1 AND 2 > b", "b < 2 AND 1 <= a"},
		{"(a OR b) AND c", "c AND (b OR a)"},
	} {
		if x, y := CanonicalString(pair[0]), CanonicalString(pair[1]); x != y {
			t.Errorf("%q and %q render %q and %q", pair[0], pair[1], x, y)
		}
	}
	if got := CanonicalString("not a pred (("); got != "not a pred ((" {
		t.Errorf("an unparsable predicate came back as %q", got)
	}
}

// checkCanonical holds src's renderings to the oracle.
func checkCanonical(t *testing.T, src string) {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		return
	}
	if got, want := e.String(), oracleString(e); got != want {
		t.Fatalf("%q: String() = %q, the fmt renderer writes %q", src, got, want)
	}
	canon := string(AppendCanonical(nil, e))
	if want := oracleString(Canonical(e)); canon != want {
		t.Fatalf("%q: AppendCanonical = %q, the oracle writes %q", src, canon, want)
	}
	if got := string(AppendCanonical([]byte("prefix"), e)); got != "prefix"+canon {
		t.Fatalf("%q: appending after a prefix wrote %q", src, got)
	}
	again, err := Parse(canon)
	if err != nil {
		t.Fatalf("%q: its canonical form %q does not parse: %v", src, canon, err)
	}
	if got := string(AppendCanonical(nil, again)); got != canon {
		t.Fatalf("%q: the canonical form of its re-parsed canonical form %q is %q", src, canon, got)
	}
}

// FuzzCanonical: for any input that parses, the one-pass canonical bytes
// equal the oracle's Canonical(e) rendering, String equals the fmt
// renderer, and the canonical form of a re-parsed canonical form is
// itself.
func FuzzCanonical(f *testing.F) {
	for _, src := range canonSeeds {
		f.Add(src)
	}
	f.Fuzz(checkCanonical)
}
