package ufl

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse reads the textual UFL syntax into a Query and validates it.
//
// Grammar (line oriented; '#' or '--' start comments):
//
//	query <id> timeout <duration>
//	opgraph <id> disseminate broadcast { ... }
//	opgraph <id> disseminate local { ... }
//	opgraph <id> disseminate equality <namespace> [<key>] { ... }
//
// Inside an opgraph body:
//
//	<opid> = <Kind>(arg=value, arg='quoted value', ...)
//	<toid> <- <fromid>            # edge into slot 0
//	<toid>.left <- <fromid>       # slot 0
//	<toid>.right <- <fromid>      # slot 1
//	<toid>.3 <- <fromid>          # numbered slot
func Parse(src string) (*Query, error) {
	p := &uflParser{lines: splitLines(src)}
	q, err := p.parse()
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse for statically known plans; it panics on error.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type srcLine struct {
	no   int
	text string
}

func splitLines(src string) []srcLine {
	var out []srcLine
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		// Strip comments (respecting quotes).
		inQuote := false
		for j := 0; j < len(line); j++ {
			switch {
			case line[j] == '\'':
				inQuote = !inQuote
			case !inQuote && line[j] == '#':
				line = line[:j]
			case !inQuote && line[j] == '-' && j+1 < len(line) && line[j+1] == '-':
				line = line[:j]
			}
		}
		line = strings.TrimSpace(line)
		if line != "" {
			out = append(out, srcLine{no: i + 1, text: line})
		}
	}
	return out
}

type uflParser struct {
	lines []srcLine
	pos   int
}

func (p *uflParser) errf(l srcLine, format string, args ...any) error {
	return fmt.Errorf("ufl: line %d: %s", l.no, fmt.Sprintf(format, args...))
}

func (p *uflParser) parse() (*Query, error) {
	q := &Query{Timeout: 30 * time.Second}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		fields := strings.Fields(l.text)
		switch fields[0] {
		case "query":
			if len(fields) < 2 {
				return nil, p.errf(l, "query needs an id")
			}
			q.ID = fields[1]
			if len(fields) >= 4 && fields[2] == "timeout" {
				d, err := time.ParseDuration(fields[3])
				if err != nil {
					return nil, p.errf(l, "bad timeout %q: %v", fields[3], err)
				}
				q.Timeout = d
			}
			p.pos++
		case "opgraph":
			g, err := p.parseOpgraph(l)
			if err != nil {
				return nil, err
			}
			q.Graphs = append(q.Graphs, *g)
		default:
			return nil, p.errf(l, "expected 'query' or 'opgraph', found %q", fields[0])
		}
	}
	return q, nil
}

func (p *uflParser) parseOpgraph(header srcLine) (*Opgraph, error) {
	fields := strings.Fields(strings.TrimSuffix(header.text, "{"))
	if len(fields) < 4 || fields[2] != "disseminate" {
		return nil, p.errf(header, "expected: opgraph <id> disseminate <mode> ... {")
	}
	g := &Opgraph{ID: fields[1], Dissem: Dissemination{Mode: fields[3]}}
	if g.Dissem.Mode == DissemEquality && len(fields) >= 5 {
		g.Dissem.Namespace = unquote(fields[4])
		if len(fields) >= 6 {
			g.Dissem.Key = unquote(fields[5])
		}
	}
	if !strings.HasSuffix(header.text, "{") {
		return nil, p.errf(header, "opgraph header must end with '{'")
	}
	p.pos++
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.text == "}" {
			p.pos++
			return g, nil
		}
		if strings.Contains(l.text, "<-") {
			e, err := parseEdge(l)
			if err != nil {
				return nil, err
			}
			g.Edges = append(g.Edges, e)
			p.pos++
			continue
		}
		op, err := parseOpDecl(l)
		if err != nil {
			return nil, err
		}
		g.Ops = append(g.Ops, op)
		p.pos++
	}
	return nil, p.errf(header, "opgraph %q not closed with '}'", g.ID)
}

func parseEdge(l srcLine) (Edge, error) {
	parts := strings.SplitN(l.text, "<-", 2)
	to := strings.TrimSpace(parts[0])
	from := strings.TrimSpace(parts[1])
	if to == "" || from == "" {
		return Edge{}, fmt.Errorf("ufl: line %d: malformed edge", l.no)
	}
	slot := 0
	if i := strings.LastIndex(to, "."); i >= 0 {
		switch suffix := to[i+1:]; suffix {
		case "left":
			slot = 0
		case "right":
			slot = 1
		default:
			n, err := strconv.Atoi(suffix)
			if err != nil {
				return Edge{}, fmt.Errorf("ufl: line %d: bad slot %q", l.no, suffix)
			}
			slot = n
		}
		to = to[:i]
	}
	return Edge{From: from, To: to, Slot: slot}, nil
}

func parseOpDecl(l srcLine) (OpSpec, error) {
	eq := strings.Index(l.text, "=")
	if eq < 0 {
		return OpSpec{}, fmt.Errorf("ufl: line %d: expected '<id> = <Kind>(...)' or an edge", l.no)
	}
	id := strings.TrimSpace(l.text[:eq])
	rest := strings.TrimSpace(l.text[eq+1:])
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return OpSpec{}, fmt.Errorf("ufl: line %d: operator %q needs <Kind>(args)", l.no, id)
	}
	kind := strings.TrimSpace(rest[:open])
	argsSrc := rest[open+1 : len(rest)-1]
	args, err := parseArgs(argsSrc)
	if err != nil {
		return OpSpec{}, fmt.Errorf("ufl: line %d: %v", l.no, err)
	}
	return OpSpec{ID: id, Kind: kind, Args: args}, nil
}

// parseArgs splits "a=1, b='x, y'" respecting single quotes.
func parseArgs(src string) (map[string]string, error) {
	args := make(map[string]string)
	parts, closed := splitOutside(src, ',')
	if !closed {
		return nil, fmt.Errorf("unterminated quote in arguments")
	}
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.Index(part, "=")
		if eq < 0 {
			return nil, fmt.Errorf("argument %q is not key=value", part)
		}
		k := strings.TrimSpace(part[:eq])
		v := unquote(strings.TrimSpace(part[eq+1:]))
		if k == "" {
			return nil, fmt.Errorf("argument with empty name")
		}
		args[k] = v
	}
	return args, nil
}

// splitOutside splits src at each sep outside brackets and quotes (a
// doubled quote inside one toggles twice); closed is false if a quote is
// left open.
func splitOutside(src string, sep byte) (parts []string, closed bool) {
	depth, quoted, from := 0, false, 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case c == '\'':
			quoted = !quoted
		case quoted:
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == sep && depth == 0:
			parts, from = append(parts, src[from:i]), i+1
		}
	}
	return append(parts, src[from:]), !quoted
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'")
	}
	return s
}
