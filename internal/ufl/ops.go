package ufl

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"pier/internal/exec"
	"pier/internal/expr"
)

// The operator table: the one place that says what each operator kind
// accepts — its input slots, whether it emits, whether it may feed more
// than one consumer, and the arguments it reads, each with a typed parse,
// a default and a bound. Opgraphs arrive from strangers (§4.1.2): Check
// holds every op's shape and argument names to its row, and Params parses
// the values once, before the query processor builds anything from them.

// opKind is one row of the table.
type opKind struct {
	name   string // as planners write it; kinds match case-insensitively
	inputs int    // input slots 0..inputs-1
	sink   bool   // emits nothing, so no edge may leave it
	fanOut bool   // may feed more than one consumer
	params []param
	// check holds the rules between arguments, applied once all parse.
	check func(args any) error
}

// param is one argument of a kind. An absent or empty argument takes def,
// and one with need set has no default: it is refused.
type param struct {
	name string
	def  string
	need bool
	set  func(p *Params, v string) error
}

// Params is one op's arguments, parsed and sized to its kind: Kind is the
// table's spelling of the op's kind, FlushEvery its flushevery= (every
// kind reads it), and Args points at the kind's own arguments, of the type
// below that names the kind (nil for Tee and Result). Each field holds the
// argument its name spells in lower case, zero where the kind reads none.
type Params struct {
	Kind       string
	FlushEvery time.Duration
	Args       any
}

// The Params.Args of each kind. HierAgg's empty NS and zero SendDelay are
// the query processor's to fill.
type (
	SourceArgs  struct{ Table, Only string } // Scan, NewData
	SelectArgs  struct{ Pred expr.Expr }
	ProjectArgs struct{ Cols []exec.ProjectCol }
	LimitArgs   struct{ N int }
	TopKArgs    struct {
		K   int
		Col string
		Asc bool
	}
	AggArgs struct { // GroupBy, HierAgg
		Keys            []string
		Aggs            []exec.AggSpec
		Out, NS, Root   string
		SendDelay, Wait time.Duration
	}
	KeyedArgs struct { // Join, FetchMatches, BloomBuild, BloomFilter, Put
		LeftKey, RightKey, Key []string
		Out, NS, FixedKey      string
		Prefix, SemiJoin       bool
		Expected               int
		FP                     float64
		FetchDelay             time.Duration
	}
)

var opKinds = []opKind{
	{name: "Scan", params: scanParams},
	{name: "NewData", params: scanParams},
	{name: "Select", inputs: 1, params: []param{
		arg("pred", "true", expr.Parse, func(a *SelectArgs) *expr.Expr { return &a.Pred }),
	}},
	{name: "Project", inputs: 1, params: []param{
		need(arg("cols", "", parseProjectCols, func(a *ProjectArgs) *[]exec.ProjectCol { return &a.Cols })),
	}},
	{name: "Join", inputs: 2, params: []param{
		need(arg("leftkey", "", columns, func(a *KeyedArgs) *[]string { return &a.LeftKey })),
		need(arg("rightkey", "", columns, func(a *KeyedArgs) *[]string { return &a.RightKey })),
		out, prefix,
	}, check: func(args any) error {
		if a := args.(*KeyedArgs); len(a.LeftKey) != len(a.RightKey) {
			return fmt.Errorf("leftkey= and rightkey= name %d and %d columns", len(a.LeftKey), len(a.RightKey))
		}
		return nil
	}},
	{name: "GroupBy", inputs: 1, params: []param{
		groupKeys, aggs, arg("out", "groupby", text, func(a *AggArgs) *string { return &a.Out }),
	}},
	{name: "TopK", inputs: 1, params: []param{
		arg("k", "10", within(strconv.Atoi, 1, math.MaxInt), func(a *TopKArgs) *int { return &a.K }),
		need(arg("col", "", text, func(a *TopKArgs) *string { return &a.Col })),
		arg("asc", "false", strconv.ParseBool, func(a *TopKArgs) *bool { return &a.Asc }),
	}},
	{name: "Limit", inputs: 1, params: []param{
		need(arg("n", "", within(strconv.Atoi, 0, math.MaxInt), func(a *LimitArgs) *int { return &a.N })),
	}},
	{name: "Tee", inputs: 1, fanOut: true},
	{name: "FetchMatches", inputs: 1, params: []param{
		need(ns), need(keyCols), out, prefix,
		arg("semijoin", "false", strconv.ParseBool, func(a *KeyedArgs) *bool { return &a.SemiJoin }),
	}},
	{name: "HierAgg", inputs: 1, params: []param{
		groupKeys, aggs,
		arg("ns", "", text, func(a *AggArgs) *string { return &a.NS }),
		arg("root", "root", text, func(a *AggArgs) *string { return &a.Root }),
		arg("senddelay", "", within(time.ParseDuration, 1, math.MaxInt64), func(a *AggArgs) *time.Duration { return &a.SendDelay }),
		arg("wait", "250ms", within(time.ParseDuration, 0, math.MaxInt64), func(a *AggArgs) *time.Duration { return &a.Wait }),
	}},
	// The filter's size follows from expected and fp: 2^20 keys at 1e-6
	// is under 4 MB, where unbounded values let one small message ask a
	// node for gigabytes.
	{name: "BloomBuild", inputs: 1, sink: true, params: []param{
		need(ns), need(keyCols),
		arg("expected", "1024", within(strconv.Atoi, 1, 1<<20), func(a *KeyedArgs) *int { return &a.Expected }),
		arg("fp", "0.01", within(parseFloat, 1e-6, math.MaxFloat64), func(a *KeyedArgs) *float64 { return &a.FP }),
	}},
	{name: "BloomFilter", inputs: 1, params: []param{
		need(ns), need(keyCols),
		need(arg("fetchdelay", "", within(time.ParseDuration, 0, math.MaxInt64), func(a *KeyedArgs) *time.Duration { return &a.FetchDelay })),
	}},
	{name: "Put", inputs: 1, sink: true, params: []param{
		need(ns),
		arg("key", "", splitList, func(a *KeyedArgs) *[]string { return &a.Key }),
		arg("fixedkey", "", text, func(a *KeyedArgs) *string { return &a.FixedKey }),
	}, check: func(args any) error {
		if a := args.(*KeyedArgs); len(a.Key) == 0 && a.FixedKey == "" {
			return fmt.Errorf("needs key= or fixedkey=")
		}
		return nil
	}},
	{name: "Result", inputs: 1, sink: true},
}

// Parameters several kinds share. Every kind accepts flushevery, the one
// argument Params holds itself.
var (
	flushEvery = param{name: "flushevery", set: func(p *Params, v string) (err error) {
		p.FlushEvery, err = within(time.ParseDuration, 0, math.MaxInt64)(v)
		return err
	}}
	scanParams = []param{
		need(arg("table", "", text, func(a *SourceArgs) *string { return &a.Table })),
		arg("only", "", text, func(a *SourceArgs) *string { return &a.Only }),
	}
	ns        = arg("ns", "", text, func(a *KeyedArgs) *string { return &a.NS })
	keyCols   = arg("key", "", columns, func(a *KeyedArgs) *[]string { return &a.Key })
	out       = arg("out", "join", text, func(a *KeyedArgs) *string { return &a.Out })
	prefix    = arg("prefix", "true", strconv.ParseBool, func(a *KeyedArgs) *bool { return &a.Prefix })
	groupKeys = arg("keys", "", splitList, func(a *AggArgs) *[]string { return &a.Keys })
	aggs      = need(arg("aggs", "", ParseAggSpecs, func(a *AggArgs) *[]exec.AggSpec { return &a.Aggs }))
)

// arg is the parameter name whose value parse reads into field of the
// op's Args, made on the kind's first argument: every kind that reads
// arguments needs one or defaults one.
func arg[S, T any](name, def string, parse func(string) (T, error), field func(*S) *T) param {
	return param{name: name, def: def, set: func(p *Params, v string) (err error) {
		a, _ := p.Args.(*S)
		if a == nil {
			a = new(S)
			p.Args = a
		}
		*field(a), err = parse(v)
		return err
	}}
}

func need(p param) param { p.need = true; return p }

// Kinds lists the operator kinds, spelled as the table spells them.
func Kinds() []string {
	names := make([]string, len(opKinds))
	for i := range opKinds {
		names[i] = opKinds[i].name
	}
	return names
}

// kindOf returns the row of kind, or -1. Planners spell kinds as the table
// does, so it tries that first; it allocates nothing.
func kindOf(kind string) int {
	for i := range opKinds {
		if opKinds[i].name == kind {
			return i
		}
	}
	for i := range opKinds {
		if strings.EqualFold(opKinds[i].name, kind) {
			return i
		}
	}
	return -1
}

// unknownArg returns an argument in args the row does not read, or "".
// Looking the row's parameters up in args is cheaper than ranging over
// args, which it does only to name the stranger.
func (k *opKind) unknownArg(args map[string]string) string {
	known := 0
	if _, ok := args[flushEvery.name]; ok {
		known++
	}
	for i := range k.params {
		if _, ok := args[k.params[i].name]; ok {
			known++
		}
	}
	if known == len(args) {
		return ""
	}
	for name := range args {
		if name != flushEvery.name && !slices.ContainsFunc(k.params, func(p param) bool { return p.name == name }) {
			return name
		}
	}
	return ""
}

// Params parses every op's arguments by its kind's row, in Ops order. It
// is the graph's second check, after Check: a value that does not parse
// or lies outside its bound refuses the graph.
func (g *Opgraph) Params() ([]Params, error) {
	ps := make([]Params, len(g.Ops))
	for i, op := range g.Ops {
		k := kindOf(op.Kind)
		if k < 0 {
			return nil, fmt.Errorf("ufl: opgraph %q op %q: unknown operator kind %q", g.ID, op.ID, op.Kind)
		}
		row := &opKinds[k]
		ps[i].Kind = row.name
		err := ps[i].parse(flushEvery, op.Args)
		for j := 0; j < len(row.params) && err == nil; j++ {
			err = ps[i].parse(row.params[j], op.Args)
		}
		if err == nil && row.check != nil {
			err = row.check(ps[i].Args)
		}
		if err != nil {
			return nil, fmt.Errorf("ufl: opgraph %q op %q: %s %w", g.ID, op.ID, row.name, err)
		}
	}
	return ps, nil
}

// parse sets the field of prm from its argument in args.
func (p *Params) parse(prm param, args map[string]string) error {
	v := args[prm.name]
	if v == "" && prm.need {
		return fmt.Errorf("needs %s=", prm.name)
	} else if v == "" {
		v = prm.def
	}
	if v == "" {
		return nil
	}
	if err := prm.set(p, v); err != nil {
		return fmt.Errorf("%s=%q: %w", prm.name, v, err)
	}
	return nil
}

// Typed parses.

func text(v string) (string, error) { return v, nil }

func parseFloat(v string) (float64, error) { return strconv.ParseFloat(v, 64) }

// within bounds parse to [lo, hi].
func within[T int | float64 | time.Duration](parse func(string) (T, error), lo, hi T) func(string) (T, error) {
	return func(v string) (T, error) {
		x, err := parse(v)
		if err != nil || !(x >= lo && x <= hi) {
			return x, fmt.Errorf("want a value in [%v, %v]", lo, hi)
		}
		return x, nil
	}
}

// columns is a non-empty splitList.
func columns(v string) ([]string, error) {
	if cols, _ := splitList(v); len(cols) > 0 {
		return cols, nil
	}
	return nil, fmt.Errorf("names no column")
}

// splitList parses "a, b, c" into trimmed fields; empty input gives nil.
func splitList(s string) (out []string, _ error) {
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out, nil
}

// parseProjectCols parses "expr as name; expr as name" (or columns
// separated by commas). Only a separator outside brackets and quotes
// splits, so one column may call a function of several arguments.
func parseProjectCols(src string) ([]exec.ProjectCol, error) {
	var out []exec.ProjectCol
	parts, _ := splitOutside(src, ';')
	if len(parts) == 1 {
		parts, _ = splitOutside(src, ',')
	}
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name := part
		exprSrc := part
		if i := strings.LastIndex(strings.ToLower(part), " as "); i >= 0 {
			exprSrc = strings.TrimSpace(part[:i])
			name = strings.TrimSpace(part[i+4:])
		}
		e, err := expr.Parse(exprSrc)
		if err != nil {
			return nil, fmt.Errorf("Project col %q: %w", part, err)
		}
		out = append(out, exec.ProjectCol{Name: name, E: e})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("Project needs cols=")
	}
	return out, nil
}

// ParseAggSpecs parses "count(*) as cnt; sum(bytes) as total" into
// aggregate specs.
func ParseAggSpecs(src string) ([]exec.AggSpec, error) {
	var out []exec.AggSpec
	for _, part := range strings.Split(src, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		spec := part
		as := ""
		if i := strings.LastIndex(strings.ToLower(part), " as "); i >= 0 {
			spec = strings.TrimSpace(part[:i])
			as = strings.TrimSpace(part[i+4:])
		}
		open := strings.Index(spec, "(")
		if open < 0 || !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("bad aggregate %q: want fn(col) or fn(*)", part)
		}
		kind, ok := exec.ParseAggKind(strings.TrimSpace(spec[:open]))
		if !ok {
			return nil, fmt.Errorf("unknown aggregate %q", spec[:open])
		}
		col := strings.TrimSpace(spec[open+1 : len(spec)-1])
		if col == "*" {
			col = ""
		}
		out = append(out, exec.AggSpec{Kind: kind, Col: col, As: as})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("aggregation needs at least one aggregate")
	}
	return out, nil
}
