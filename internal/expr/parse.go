package expr

import (
	"fmt"
	"strconv"
	"strings"

	"pier/internal/tuple"
)

// Parse compiles the textual expression syntax used in UFL plans and the
// SQL-like frontend:
//
//	expr  := or
//	or    := and ( OR and )*
//	and   := not ( AND not )*
//	not   := NOT not | cmp
//	cmp   := add ( (= | != | <> | < | <= | > | >=) add )?
//	add   := mul ( (+|-) mul )*
//	mul   := unary ( (*|/|%) unary )*
//	unary := - unary | primary
//	prim  := NUMBER | 'string' | TRUE | FALSE | NULL
//	       | ident '(' args ')' | ident('.'ident)* | '(' expr ')'
//
// Keywords and function names are case-insensitive; identifiers are
// case-sensitive column names and may be dotted (qualified) as produced
// by joins. A call must name a built-in function: an unknown name is a
// parse error, so a plan that calls one is refused before it runs.
func Parse(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("expr: unexpected %q at end of expression", p.peek().text)
	}
	return e, nil
}

// MustParse is Parse for statically known expressions; it panics on
// error. Intended for tests and examples.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type tokKind uint8

const (
	tokIdent tokKind = iota
	tokNumber
	tokString
	tokOp // punctuation and operators
	tokEOF
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(src string) ([]token, error) {
	// Tokens are rarely closer than one in three bytes ("a > 1").
	toks := make([]token, 0, 2+len(src)/3)
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			// An exponent, as String writes very large and very small floats.
			if k := j + 1; k < len(src) && (src[j] == 'e' || src[j] == 'E') {
				if src[k] == '+' || src[k] == '-' {
					k++
				}
				for ; k < len(src) && src[k] >= '0' && src[k] <= '9'; k++ {
					j = k + 1
				}
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(src) {
					return nil, fmt.Errorf("expr: unterminated string at %d", i)
				}
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			toks = append(toks, token{tokString, sb.String(), i})
			i = j + 1
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		default:
			// Multi-byte operators first.
			for _, op := range []string{"!=", "<>", "<=", ">="} {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, token{tokOp, op, i})
					i += 2
					goto next
				}
			}
			if strings.ContainsRune("=<>+-*/%(),", rune(c)) {
				toks = append(toks, token{tokOp, src[i : i+1], i})
				i++
				goto next
			}
			return nil, fmt.Errorf("expr: unexpected character %q at %d", c, i)
		next:
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) eof() bool   { return p.peek().kind == tokEOF }

// acceptKeyword consumes the next token if it is the given keyword
// (case-insensitive).
func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("expr: expected %q, found %q at %d", op, p.peek().text, p.peek().pos)
	}
	return nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Not{E: e}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]CmpOp{
	"=": EQ, "!=": NE, "<>": NE, "<": LT, "<=": LE, ">": GT, ">=": GE,
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp {
		if op, ok := cmpOps[t.text]; ok {
			p.pos++
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return Cmp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = Arith{Op: Add, L: l, R: r}
		case p.acceptOp("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = Arith{Op: Sub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ArithOp
		switch {
		case p.acceptOp("*"):
			op = Mul
		case p.acceptOp("/"):
			op = Div
		case p.acceptOp("%"):
			op = Mod
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Neg{E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("expr: bad number %q at %d", t.text, t.pos)
			}
			return Const{Val: tuple.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad number %q at %d", t.text, t.pos)
		}
		return Const{Val: tuple.Int(i)}, nil

	case tokString:
		return Const{Val: tuple.String(t.text)}, nil

	case tokIdent:
		switch strings.ToUpper(t.text) {
		case "TRUE":
			return Const{Val: tuple.Bool(true)}, nil
		case "FALSE":
			return Const{Val: tuple.Bool(false)}, nil
		case "NULL":
			return Const{Val: tuple.Null()}, nil
		}
		if p.acceptOp("(") {
			if builtins[strings.ToLower(t.text)] == nil {
				return nil, fmt.Errorf("expr: unknown function %q at %d", t.text, t.pos)
			}
			var args []Expr
			if !p.acceptOp(")") {
				for {
					a, err := p.parseOr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.acceptOp(")") {
						break
					}
					if err := p.expectOp(","); err != nil {
						return nil, err
					}
				}
			}
			return Func{Name: t.text, Args: args}, nil
		}
		return Col{Name: t.text}, nil

	case tokOp:
		if t.text == "(" {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("expr: unexpected %q at %d", t.text, t.pos)
}
