// Package sqlfront implements PIER's SQL-like query language and its
// naive optimizer (paper §4.2). The paper's authors "seem simply to have
// been wrong" in assuming users would prefer UFL dataflow diagrams — many
// users (e.g. PlanetLab administrators) far preferred compact SQL — so
// PIER grew "an implementation of a SQL-like language over PIER using a
// very naive optimizer". This package reproduces that layer: a small
// SELECT dialect compiled into UFL opgraphs.
//
// Supported statements:
//
//	SELECT cols | aggs
//	FROM table [, table2]
//	[WHERE predicate]
//	[GROUP BY cols]
//	[ORDER BY col [DESC|ASC]]
//	[LIMIT n]
//	[TIMEOUT duration]
//
// The "very naive optimizer" makes exactly these choices (and no
// others):
//
//   - Plain selection/projection → one broadcast opgraph over the table.
//   - A WHERE whose top-level AND conjuncts include key = literal (or
//     literal = key; a string or an integer) on the column the
//     application declared as the table's partitioning key
//     (Options.TableIndexes — the paper's workaround of baking catalog
//     knowledge into application logic, §4.2.1) → equality dissemination
//     to the owner of that key only, where the scan reads that key; the
//     whole predicate still filters there. The predicate is read with
//     the grammar the Select operator uses. OR, NOT, != and ranges on
//     the key name no single owner and broadcast.
//   - GROUP BY → two-phase aggregation: per-node partials, rehashed to a
//     single rendezvous, finalized there (with AVG decomposed into
//     SUM/COUNT).
//   - Two-table FROM with an equijoin predicate → both relations rehash
//     on the join key into one namespace; a broadcast join opgraph
//     matches co-located partitions with a symmetric hash join.
//
// There is no cost model, no join reordering, no adaptive anything —
// that is §4.2's open research, prototyped separately by the Eddy
// operator.
package sqlfront

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Options carries the application-supplied knowledge a catalog would
// normally hold (§4.2.1: applications "bake the metadata storage and
// interpretation into application logic").
type Options struct {
	// TableIndexes maps a table name to the columns of its partitioning
	// key (the attributes it was published under). Enables equality
	// dissemination.
	TableIndexes map[string][]string
	// DefaultTimeout bounds queries with no TIMEOUT clause. Default 30s.
	DefaultTimeout time.Duration
	// PartialEvery is the flush period of first-phase aggregation; zero
	// derives it from the query timeout.
	PartialEvery time.Duration
}

// Statement is a parsed SELECT.
type Statement struct {
	Select  []SelectItem
	From    []string
	Where   string // raw predicate text ("" if absent)
	GroupBy []string
	OrderBy string
	Desc    bool
	Limit   int // 0 = no limit
	Timeout time.Duration
}

// SelectItem is one output column: either a plain expression or an
// aggregate call.
type SelectItem struct {
	// Expr is the expression text (non-aggregate) or the aggregate
	// argument column.
	Expr string
	// Agg is the aggregate function name ("" for plain expressions).
	Agg string
	// As is the output name.
	As string
}

// OutName returns the item's output column name.
func (it SelectItem) OutName() string {
	if it.As != "" {
		return it.As
	}
	if it.Agg != "" {
		if it.Expr == "" {
			return it.Agg + "(*)"
		}
		return it.Agg + "(" + it.Expr + ")"
	}
	return it.Expr
}

// Parse reads one SELECT statement.
func Parse(sql string) (*Statement, error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	return p.parseSelect()
}

type sqlToken struct {
	text   string
	quoted bool
}

func lexSQL(src string) ([]sqlToken, error) {
	var toks []sqlToken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(src) {
					return nil, fmt.Errorf("sql: unterminated string")
				}
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			toks = append(toks, sqlToken{text: sb.String(), quoted: true})
			i = j + 1
		case isWord(c) || c >= '0' && c <= '9':
			j := i
			for j < len(src) && (isWord(src[j]) || src[j] >= '0' && src[j] <= '9') {
				j++
			}
			toks = append(toks, sqlToken{text: src[i:j]})
			i = j
		default:
			for _, op := range []string{"!=", "<>", "<=", ">="} {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, sqlToken{text: op})
					i += 2
					goto next
				}
			}
			if strings.ContainsRune("=<>+-*/%(),", rune(c)) {
				toks = append(toks, sqlToken{text: string(c)})
				i++
				goto next
			}
			return nil, fmt.Errorf("sql: unexpected character %q", c)
		next:
		}
	}
	return toks, nil
}

func isWord(c byte) bool {
	return c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

type sqlParser struct {
	toks []sqlToken
	pos  int
}

func (p *sqlParser) peekKw() string {
	if p.pos >= len(p.toks) || p.toks[p.pos].quoted {
		return ""
	}
	return strings.ToUpper(p.toks[p.pos].text)
}

func (p *sqlParser) accept(kw string) bool {
	if p.peekKw() == kw {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expect(kw string) error {
	if !p.accept(kw) {
		got := "<end>"
		if p.pos < len(p.toks) {
			got = p.toks[p.pos].text
		}
		return fmt.Errorf("sql: expected %s, found %q", kw, got)
	}
	return nil
}

// clauseKeywords terminate free-text scanning.
var clauseKeywords = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "ORDER": true,
	"LIMIT": true, "TIMEOUT": true,
}

// scanUntilClause re-assembles raw text until the next clause keyword,
// preserving quoted literals.
func (p *sqlParser) scanUntilClause() string {
	var sb strings.Builder
	for p.pos < len(p.toks) {
		t := p.toks[p.pos]
		if !t.quoted && clauseKeywords[strings.ToUpper(t.text)] {
			break
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		if t.quoted {
			sb.WriteString("'" + strings.ReplaceAll(t.text, "'", "''") + "'")
		} else {
			sb.WriteString(t.text)
		}
		p.pos++
	}
	return sb.String()
}

var aggNames = map[string]bool{
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true,
	"COUNTDISTINCT": true,
}

func (p *sqlParser) parseSelect() (*Statement, error) {
	st := &Statement{}
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	// Select list: items separated by commas until FROM.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Select = append(st.Select, item)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	for {
		if p.pos >= len(p.toks) {
			return nil, fmt.Errorf("sql: missing table name")
		}
		st.From = append(st.From, p.toks[p.pos].text)
		p.pos++
		if !p.accept(",") {
			break
		}
	}
	if p.accept("WHERE") {
		st.Where = p.scanUntilClause()
		if st.Where == "" {
			return nil, fmt.Errorf("sql: empty WHERE")
		}
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			if p.pos >= len(p.toks) {
				return nil, fmt.Errorf("sql: missing GROUP BY column")
			}
			st.GroupBy = append(st.GroupBy, p.toks[p.pos].text)
			p.pos++
			if !p.accept(",") {
				break
			}
		}
	}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		if p.pos >= len(p.toks) {
			return nil, fmt.Errorf("sql: missing ORDER BY column")
		}
		st.OrderBy = p.toks[p.pos].text
		p.pos++
		if p.accept("DESC") {
			st.Desc = true
		} else {
			p.accept("ASC")
		}
	}
	if p.accept("LIMIT") {
		if p.pos >= len(p.toks) {
			return nil, fmt.Errorf("sql: missing LIMIT value")
		}
		n, err := strconv.Atoi(p.toks[p.pos].text)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", p.toks[p.pos].text)
		}
		st.Limit = n
		p.pos++
	}
	if p.accept("TIMEOUT") {
		if p.pos >= len(p.toks) {
			return nil, fmt.Errorf("sql: missing TIMEOUT value")
		}
		d, err := time.ParseDuration(p.toks[p.pos].text)
		if err != nil {
			return nil, fmt.Errorf("sql: bad TIMEOUT: %v", err)
		}
		st.Timeout = d
		p.pos++
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("sql: trailing input at %q", p.toks[p.pos].text)
	}
	return st, nil
}

func (p *sqlParser) parseSelectItem() (SelectItem, error) {
	if p.pos >= len(p.toks) {
		return SelectItem{}, fmt.Errorf("sql: missing select item")
	}
	t := p.toks[p.pos]
	upper := strings.ToUpper(t.text)
	var item SelectItem
	if !t.quoted && aggNames[upper] && p.pos+1 < len(p.toks) && p.toks[p.pos+1].text == "(" {
		p.pos += 2 // fn (
		item.Agg = strings.ToLower(upper)
		if p.pos < len(p.toks) && p.toks[p.pos].text == "*" {
			item.Expr = ""
			p.pos++
		} else if p.pos < len(p.toks) {
			item.Expr = p.toks[p.pos].text
			p.pos++
		}
		if err := p.expect(")"); err != nil {
			return item, err
		}
	} else {
		// Plain expression: scan tokens until comma/clause boundary at
		// paren depth 0.
		depth := 0
		var sb strings.Builder
		for p.pos < len(p.toks) {
			tok := p.toks[p.pos]
			up := strings.ToUpper(tok.text)
			if !tok.quoted && depth == 0 && (tok.text == "," || clauseKeywords[up] || up == "AS") {
				break
			}
			if tok.text == "(" {
				depth++
			}
			if tok.text == ")" {
				depth--
			}
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			if tok.quoted {
				sb.WriteString("'" + strings.ReplaceAll(tok.text, "'", "''") + "'")
			} else {
				sb.WriteString(tok.text)
			}
			p.pos++
		}
		item.Expr = strings.TrimSpace(sb.String())
		if item.Expr == "" {
			return item, fmt.Errorf("sql: empty select item")
		}
	}
	if p.accept("AS") {
		if p.pos >= len(p.toks) {
			return item, fmt.Errorf("sql: missing alias after AS")
		}
		item.As = p.toks[p.pos].text
		p.pos++
	}
	return item, nil
}
