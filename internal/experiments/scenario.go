package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The scenario DSL (ROADMAP direction 2): a declarative file describing
// a deployment, a workload mix, a timed failure-injection script, and an
// assertion block — so every interesting failure mode becomes a
// checked-in, re-runnable artifact instead of a one-off harness.
//
// The file format is a small YAML subset, parsed here by hand (the
// repository builds with zero dependencies):
//
//   - indentation-scoped `key: value` maps (spaces only, no tabs);
//   - block lists of `- ` items, where an item may open an inline map
//     (`- kind: lookups`) whose remaining keys sit two columns deeper
//     than the dash;
//   - inline scalar lists `[a, b, c]`;
//   - `#` comments (outside quotes) and blank lines;
//   - scalars are strings, unquoted or '...'/"..."-quoted; typed fields
//     parse them as Go ints, floats, bools, or time.ParseDuration
//     durations at decode time.
//
// Decoding is strict: unknown keys, wrong shapes, and malformed values
// are errors with line numbers, so a typoed assertion can never pass
// silently. This file decodes what belongs to no workload kind; each
// `kind:` decodes its own entries and assertions (workloadKind, one
// scenario_*.go file each, named in the workloadKinds registry).

// ScenarioSpec is a fully decoded scenario file.
type ScenarioSpec struct {
	// Name labels the report. Required.
	Name string
	// Seed is the simulation seed. Default 1.
	Seed int64
	// Nodes is the ring size. Required.
	Nodes int
	// Duration is the measurement horizon after the ring has converged;
	// the event script and workloads run inside it. Required.
	Duration time.Duration
	// Teardown is the post-horizon grace run before leak assertions are
	// evaluated (queries finish tearing down). Default 15s.
	Teardown time.Duration
	// MaxGraphsPerClient, when > 0, applies the per-client admission
	// quota to every node: one client identity's concurrent opgraphs
	// are capped, refusals are acked explicitly, other clients run on.
	MaxGraphsPerClient int
	// Trees, when > 0, overrides qp.Config.NumTrees on every node
	// (including respawns): redundant distribution trees with distinct
	// root keys, the paper's §3.3.3 reliability knob.
	Trees int

	Topology TopologySpec
	Network  NetworkSpec
	// Workloads holds one instance per kind named, in registry order.
	Workloads []workloadKind
	Events    []EventSpec
	Assert    AssertSpec
}

// TopologySpec selects and parameterizes the sim.Topology.
type TopologySpec struct {
	// Kind is "star" (default) or "transit-stub".
	Kind string
	// MinAccess/MaxAccess bound star access-link latency (star only).
	MinAccess, MaxAccess time.Duration
}

// NetworkSpec holds environment-wide network conditions.
type NetworkSpec struct {
	// LossRate is sim.Options.LossRate: uniform message loss.
	LossRate float64
}

// workloadKind is one `kind:` of the workload block, the seam every
// workload plugs into; the runner names no kind. A scenario holds one
// instance per kind it names, which decodes every entry of that kind and
// the assertions the kind owns. A run binds a copy (start), so a spec can
// run again. Adding a kind is one file and one line in workloadKinds.
type workloadKind interface {
	// decode reads one entry, ending with f.done (the strict,
	// line-numbered unknown-key check); spec's top-level fields are set.
	decode(f *fields, spec *ScenarioSpec) error
	// decodeAssert reads the assert keys the kind owns; events are set.
	decodeAssert(f *fields, spec *ScenarioSpec) error
	// start binds a copy of the kind to r and seeds its fixture before
	// the horizon, reporting whether the run must let it settle.
	start(r *scenarioRun) (bound workloadKind, settle bool)
	// arm schedules the kind's driver events at the horizon start. A
	// kind that also has a horizonEnd() method is called when it ends.
	arm()
	// recovered marks a recovery point (a partition heal or a respawn)
	// and returns the result rows the kind holds so far.
	recovered() int
	// report writes the kind's report line, passes its assertions to
	// check, and returns its queries submitted and Done (the runner's
	// queries-done assertions count them).
	report(b *strings.Builder, check checkFunc) (submitted, done int)
}

// checkFunc records one assertion verdict. Verdicts print by rank,
// whoever owns them: min-result-rows 10, recovered-rows 20,
// min-queries-done 30, all-queries-done 40, lookup-completeness 50,
// min-completeness 60, p99-latency-max 70, min-quota-rejects 80,
// malformed-seen 90, answers 100, no-leaks 110; equal ranks in registry
// order.
type checkFunc func(rank int, name string, ok bool, detail string)

// workloadKinds is the registry: each kind, in the order kinds seed, arm
// and report, with the assert keys it owns (refused when it is absent).
var workloadKinds = []kindDef{
	{"continuous-agg", []string{"min-result-rows", "recovered-rows", "min-completeness"}, func() workloadKind { return &continuousAgg{} }},
	{"lookups", []string{"lookup-completeness", "p99-latency-max"}, func() workloadKind { return &lookups{} }},
	{"gnutella-flood", nil, func() workloadKind { return &gnutellaFlood{} }},
	{"hier-agg", []string{"answers"}, func() workloadKind { return &ablation{kind: "hier-agg"} }},
	{"join", []string{"answers"}, func() workloadKind { return &ablation{kind: "join"} }},
}

type kindDef struct {
	name    string
	asserts []string
	new     func() workloadKind
}

// workloadBase holds a bound kind's run and the hooks most kinds skip.
type workloadBase struct{ r *scenarioRun }

func (workloadBase) decodeAssert(*fields, *ScenarioSpec) error { return nil }
func (workloadBase) recovered() int                            { return 0 }

// EventSpec is one entry of the timed failure-injection script.
type EventSpec struct {
	// At is the script time, relative to the start of the measurement
	// horizon (after ring convergence).
	At time.Duration
	// Action is "partition", "kill", "link-loss", or "malformed-flood".
	Action string

	// partition: isolate the First lowest-index nodes from the rest;
	// HealAfter > 0 heals the partition that much later.
	First     int
	HealAfter time.Duration

	// kill: fail Count nodes (or Fraction of the live population),
	// sampled deterministically from the live set, never the bootstrap
	// node. RespawnAfter > 0 spawns and joins a replacement for each
	// victim that much later (a churn burst). Interior restricts the
	// victim pool to interior distribution-tree nodes (live tree
	// children recorded) so the kill provably orphans subtrees; if
	// fewer interior candidates than victims exist, the full pool is
	// used unchanged.
	Count        int
	Fraction     float64
	RespawnAfter time.Duration
	Interior     bool

	// link-loss: degrade the link between node indices A and B with
	// Loss drop probability and ExtraLatency added delay; ClearAfter >
	// 0 removes the override that much later.
	A, B         int
	Loss         float64
	ExtraLatency time.Duration
	ClearAfter   time.Duration

	// malformed-flood: store Floods undecodable objects into the
	// continuous-agg table (fwlogs) across live nodes, exercising the
	// malformed-drop path of every subscribed query.
	Floods int
}

// AssertSpec is the assertion block's checks that belong to no workload
// kind; a kind's own (min-result-rows, answers, ...) live in the kind.
// Pointer fields are only checked when present in the file; booleans only
// when true.
type AssertSpec struct {
	// MinQueriesDone: at least this many submitted queries (of the kinds
	// that count queries) reached Done (bounded result loss under churn).
	MinQueriesDone *int
	// AllQueriesDone: every submitted query reached Done.
	AllQueriesDone bool
	// MinQuotaRejects: per-client quota refusals counted across the
	// cluster >= this (requires max-graphs-per-client to be set).
	MinQuotaRejects *int
	// NoLeaks: after teardown, live nodes hold zero bus subscriptions,
	// zero live graphs, zero occupied flush-wheel slots, zero shared
	// subtrees or attachments, and an empty per-client quota ledger.
	NoLeaks bool
	// MalformedSeen: at least one malformed drop was counted (the flood
	// actually met a query's decode path).
	MalformedSeen bool
}

// ---------------------------------------------------------------------
// YAML-subset parser: lines -> yval tree
// ---------------------------------------------------------------------

// yval is one node of the parsed tree: exactly one of scalar (isScalar),
// list, or map is populated. Map insertion order is kept in keys so
// decode errors and reports are stable.
type yval struct {
	scalar   string
	isScalar bool
	list     []*yval
	m        map[string]*yval
	keys     []string
	line     int
}

type yline struct {
	indent int
	text   string
	n      int
}

// stripComment removes a trailing `#` comment, respecting single and
// double quotes.
func stripComment(s string) string {
	inS, inD := false, false
	for i, r := range s {
		switch {
		case r == '\'' && !inD:
			inS = !inS
		case r == '"' && !inS:
			inD = !inD
		case r == '#' && !inS && !inD:
			if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
				return s[:i]
			}
		}
	}
	return s
}

func scanLines(src string) ([]yline, error) {
	var out []yline
	for n, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		indent := 0
		for _, r := range line {
			if r == '\t' {
				return nil, fmt.Errorf("line %d: tab in indentation (use spaces)", n+1)
			}
			if r != ' ' {
				break
			}
			indent++
		}
		out = append(out, yline{indent: indent, text: trimmed, n: n + 1})
	}
	return out, nil
}

// unquote strips one level of matching quotes.
func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '\'' && s[len(s)-1] == '\'') || (s[0] == '"' && s[len(s)-1] == '"') {
			return s[1 : len(s)-1]
		}
	}
	return s
}

func scalarVal(s string, line int) *yval {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		inner := strings.TrimSpace(s[1 : len(s)-1])
		v := &yval{line: line}
		if inner != "" {
			for _, part := range strings.Split(inner, ",") {
				v.list = append(v.list, &yval{scalar: unquote(strings.TrimSpace(part)), isScalar: true, line: line})
			}
		}
		return v
	}
	return &yval{scalar: unquote(s), isScalar: true, line: line}
}

// parseBlock parses the run of lines starting at pos whose indent is
// exactly indent, returning the subtree and the index of the first line
// it did not consume.
func parseBlock(ls []yline, pos, indent int) (*yval, int, error) {
	if pos >= len(ls) || ls[pos].indent != indent {
		return nil, pos, fmt.Errorf("line %d: expected content indented %d columns", lineNum(ls, pos), indent)
	}
	if strings.HasPrefix(ls[pos].text, "- ") || ls[pos].text == "-" {
		return parseList(ls, pos, indent)
	}
	return parseMap(ls, pos, indent)
}

func lineNum(ls []yline, pos int) int {
	if pos < len(ls) {
		return ls[pos].n
	}
	if len(ls) > 0 {
		return ls[len(ls)-1].n
	}
	return 0
}

func parseList(ls []yline, pos, indent int) (*yval, int, error) {
	v := &yval{line: ls[pos].n}
	for pos < len(ls) && ls[pos].indent == indent {
		text := ls[pos].text
		if text != "-" && !strings.HasPrefix(text, "- ") {
			break
		}
		rest := strings.TrimSpace(strings.TrimPrefix(text, "-"))
		itemLine := ls[pos].n
		if rest == "" {
			// `-` alone: the item is the nested block that follows.
			pos++
			if pos >= len(ls) || ls[pos].indent <= indent {
				return nil, pos, fmt.Errorf("line %d: empty list item", itemLine)
			}
			item, next, err := parseBlock(ls, pos, ls[pos].indent)
			if err != nil {
				return nil, pos, err
			}
			v.list = append(v.list, item)
			pos = next
			continue
		}
		if !strings.Contains(rest, ":") {
			// Scalar item.
			v.list = append(v.list, scalarVal(rest, itemLine))
			pos++
			continue
		}
		// `- key: value` opens an inline map; its remaining keys sit two
		// columns deeper than the dash (the column of `key`). Re-enter the
		// map parser with the dash line rewritten to that column.
		sub := []yline{{indent: indent + 2, text: rest, n: itemLine}}
		pos++
		for pos < len(ls) && ls[pos].indent > indent {
			sub = append(sub, ls[pos])
			pos++
		}
		item, next, err := parseMap(sub, 0, indent+2)
		if err != nil {
			return nil, pos, err
		}
		if next != len(sub) {
			return nil, pos, fmt.Errorf("line %d: unexpected indentation inside list item", sub[next].n)
		}
		v.list = append(v.list, item)
	}
	return v, pos, nil
}

func parseMap(ls []yline, pos, indent int) (*yval, int, error) {
	v := &yval{m: make(map[string]*yval), line: ls[pos].n}
	for pos < len(ls) && ls[pos].indent == indent {
		text := ls[pos].text
		if strings.HasPrefix(text, "- ") || text == "-" {
			break
		}
		ci := strings.Index(text, ":")
		if ci < 0 {
			return nil, pos, fmt.Errorf("line %d: expected `key: value`, got %q", ls[pos].n, text)
		}
		key := strings.TrimSpace(text[:ci])
		if key == "" {
			return nil, pos, fmt.Errorf("line %d: empty key", ls[pos].n)
		}
		if _, dup := v.m[key]; dup {
			return nil, pos, fmt.Errorf("line %d: duplicate key %q", ls[pos].n, key)
		}
		rest := strings.TrimSpace(text[ci+1:])
		keyLine := ls[pos].n
		pos++
		if rest != "" {
			v.m[key] = scalarVal(rest, keyLine)
			v.keys = append(v.keys, key)
			continue
		}
		// `key:` with nothing after it: a nested block, one per child
		// indent level found on the next deeper line.
		if pos >= len(ls) || ls[pos].indent <= indent {
			return nil, pos, fmt.Errorf("line %d: key %q has no value", keyLine, key)
		}
		child, next, err := parseBlock(ls, pos, ls[pos].indent)
		if err != nil {
			return nil, pos, err
		}
		v.m[key] = child
		v.keys = append(v.keys, key)
		pos = next
	}
	return v, pos, nil
}

// parseYAML parses the supported YAML subset into a yval tree.
func parseYAML(src string) (*yval, error) {
	ls, err := scanLines(src)
	if err != nil {
		return nil, err
	}
	if len(ls) == 0 {
		return nil, fmt.Errorf("empty scenario file")
	}
	if ls[0].indent != 0 {
		return nil, fmt.Errorf("line %d: top level must not be indented", ls[0].n)
	}
	v, next, err := parseBlock(ls, 0, 0)
	if err != nil {
		return nil, err
	}
	if next != len(ls) {
		return nil, fmt.Errorf("line %d: unexpected indentation", ls[next].n)
	}
	return v, nil
}

// ---------------------------------------------------------------------
// Typed decode: yval tree -> ScenarioSpec
// ---------------------------------------------------------------------

type decodeErr struct {
	line int
	msg  string
}

func (e decodeErr) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

// scalar parses v's scalar with parse; what names the type in the error.
func scalar[T any](v *yval, what string, parse func(string) (T, error)) (T, error) {
	var x T
	if !v.isScalar {
		return x, decodeErr{v.line, "expected a scalar value"}
	}
	x, err := parse(v.scalar)
	if err != nil {
		return x, decodeErr{v.line, fmt.Sprintf("%q is not %s", v.scalar, what)}
	}
	return x, nil
}

func (v *yval) str() (string, error) {
	return scalar(v, "", func(s string) (string, error) { return s, nil })
}

func (v *yval) asInt() (int, error) { return scalar(v, "an integer", strconv.Atoi) }

func (v *yval) asFloat() (float64, error) {
	return scalar(v, "a number", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

func (v *yval) asDur() (time.Duration, error) {
	return scalar(v, "a duration (want 30s, 250ms, ...)", time.ParseDuration)
}

func (v *yval) asBool() (bool, error) {
	return scalar(v, "a boolean", func(s string) (bool, error) {
		switch s {
		case "true", "yes", "on":
			return true, nil
		case "false", "no", "off":
			return false, nil
		}
		return false, strconv.ErrSyntax
	})
}

// asFraction decodes a number in [0, 1].
func (v *yval) asFraction() (float64, error) {
	x, err := v.asFloat()
	if err == nil && (x < 0 || x > 1) {
		err = decodeErr{v.line, fmt.Sprintf("%v outside [0, 1]", x)}
	}
	return x, err
}

// fields wraps a map yval for strict decoding: every get marks its key
// consumed, and done() reports any key the decoder never asked about.
type fields struct {
	v    *yval
	used map[string]bool
}

func asFields(v *yval, what string) (*fields, error) {
	if v.m == nil {
		return nil, decodeErr{v.line, fmt.Sprintf("expected a map for %s", what)}
	}
	return &fields{v: v, used: make(map[string]bool)}, nil
}

func (f *fields) get(key string) *yval {
	f.used[key] = true
	return f.v.m[key]
}

func (f *fields) done(what string) error {
	var unknown []string
	for _, k := range f.v.keys {
		if !f.used[k] {
			unknown = append(unknown, fmt.Sprintf("%q (line %d)", k, f.v.m[k].line))
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("unknown %s key(s): %s", what, strings.Join(unknown, ", "))
	}
	return nil
}

// field decodes key, if present, into *dst with dec; an absent key leaves
// *dst untouched (its default). opt decodes it into a fresh pointer, so an
// absent key stays nil (an assertion left unchecked).
func field[T any](f *fields, key string, dst *T, dec func(*yval) (T, error)) error {
	if v := f.get(key); v != nil {
		x, err := dec(v)
		if err != nil {
			return err
		}
		*dst = x
	}
	return nil
}

func opt[T any](f *fields, key string, dst **T, dec func(*yval) (T, error)) error {
	if f.get(key) == nil {
		return nil
	}
	*dst = new(T)
	return field(f, key, *dst, dec)
}

func (f *fields) intField(key string, dst *int) error { return field(f, key, dst, (*yval).asInt) }
func (f *fields) floatField(key string, dst *float64) error {
	return field(f, key, dst, (*yval).asFloat)
}
func (f *fields) durField(key string, dst *time.Duration) error {
	return field(f, key, dst, (*yval).asDur)
}
func (f *fields) strField(key string, dst *string) error { return field(f, key, dst, (*yval).str) }
func (f *fields) boolField(key string, dst *bool) error  { return field(f, key, dst, (*yval).asBool) }

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ParseScenario parses and validates a scenario file.
func ParseScenario(src string) (ScenarioSpec, error) {
	spec := ScenarioSpec{Seed: 1, Teardown: 15 * time.Second, Topology: TopologySpec{Kind: "star"}}
	root, err := parseYAML(src)
	if err != nil {
		return spec, err
	}
	f, err := asFields(root, "scenario")
	if err != nil {
		return spec, err
	}
	if err := firstErr(
		f.strField("name", &spec.Name),
		field(f, "seed", &spec.Seed, func(v *yval) (int64, error) { n, err := v.asInt(); return int64(n), err }),
		f.intField("nodes", &spec.Nodes),
		f.durField("duration", &spec.Duration),
		f.durField("teardown", &spec.Teardown),
		f.intField("max-graphs-per-client", &spec.MaxGraphsPerClient),
		f.intField("trees", &spec.Trees),
	); err != nil {
		return spec, err
	}
	// The sections decode in this order: a kind's entries read the
	// top-level fields, and the assertions read the kinds and events.
	sections := []struct {
		key    string
		decode func(*yval, *ScenarioSpec) error
	}{{"topology", decodeTopology}, {"network", decodeNetwork}, {"workload", decodeWorkloads}, {"events", decodeEvents}, {"assert", decodeAssert}}
	for _, sec := range sections {
		if v := f.get(sec.key); v != nil {
			if err := sec.decode(v, &spec); err != nil {
				return spec, err
			}
		}
	}
	if err := f.done("scenario"); err != nil {
		return spec, err
	}

	// Cross-field validation.
	switch {
	case spec.Name == "":
		return spec, fmt.Errorf("scenario needs a name")
	case spec.Nodes < 2:
		return spec, fmt.Errorf("scenario needs nodes >= 2, got %d", spec.Nodes)
	case spec.Duration <= 0:
		return spec, fmt.Errorf("scenario needs a positive duration")
	case spec.Trees < 0 || spec.Trees > 8:
		return spec, fmt.Errorf("scenario trees must be 1..8 (0 for the default), got %d", spec.Trees)
	}
	for _, ev := range spec.Events {
		if ev.At < 0 || ev.At > spec.Duration {
			return spec, fmt.Errorf("event %q at %v falls outside the scenario duration %v", ev.Action, ev.At, spec.Duration)
		}
	}
	if spec.Assert.MinQuotaRejects != nil && spec.MaxGraphsPerClient <= 0 {
		return spec, fmt.Errorf("assert min-quota-rejects requires max-graphs-per-client")
	}
	return spec, nil
}

func decodeTopology(v *yval, spec *ScenarioSpec) error {
	f, err := asFields(v, "topology")
	if err != nil {
		return err
	}
	t := &spec.Topology
	if err := firstErr(
		f.strField("kind", &t.Kind),
		f.durField("min-access", &t.MinAccess),
		f.durField("max-access", &t.MaxAccess),
		f.done("topology"),
	); err != nil {
		return err
	}
	if t.Kind != "star" && t.Kind != "transit-stub" {
		return decodeErr{v.line, fmt.Sprintf("unknown topology kind %q (star or transit-stub)", t.Kind)}
	}
	return nil
}

func decodeNetwork(v *yval, spec *ScenarioSpec) error {
	f, err := asFields(v, "network")
	if err != nil {
		return err
	}
	n := &spec.Network
	if err := firstErr(f.floatField("loss-rate", &n.LossRate), f.done("network")); err != nil {
		return err
	}
	if n.LossRate < 0 || n.LossRate >= 1 {
		return decodeErr{v.line, fmt.Sprintf("loss-rate %v outside [0, 1)", n.LossRate)}
	}
	return nil
}

// decodeWorkloads hands each workload entry to its kind's instance, made
// on the kind's first entry, and keeps the instances in registry order.
func decodeWorkloads(v *yval, spec *ScenarioSpec) error {
	if v.list == nil {
		return decodeErr{v.line, "workload must be a list"}
	}
	kinds := make([]workloadKind, len(workloadKinds))
	for _, item := range v.list {
		f, err := asFields(item, "workload")
		if err != nil {
			return err
		}
		var name string
		if err := f.strField("kind", &name); err != nil {
			return err
		}
		i := slices.IndexFunc(workloadKinds, func(d kindDef) bool { return d.name == name })
		switch {
		case name == "":
			return decodeErr{item.line, "workload entry needs a kind"}
		case i < 0:
			return decodeErr{item.line, fmt.Sprintf("unknown workload kind %q", name)}
		case kinds[i] == nil:
			kinds[i] = workloadKinds[i].new()
		}
		if err := kinds[i].decode(f, spec); err != nil {
			return err
		}
	}
	spec.Workloads = slices.DeleteFunc(kinds, func(k workloadKind) bool { return k == nil })
	return nil
}

func decodeEvents(v *yval, spec *ScenarioSpec) error {
	if v.list == nil {
		return decodeErr{v.line, "events must be a list"}
	}
	for _, item := range v.list {
		ev, err := decodeEvent(item)
		if err != nil {
			return err
		}
		spec.Events = append(spec.Events, ev)
	}
	return nil
}

func decodeEvent(v *yval) (EventSpec, error) {
	var e EventSpec
	f, err := asFields(v, "event")
	if err != nil {
		return e, err
	}
	if err := firstErr(f.strField("action", &e.Action), f.durField("at", &e.At)); err != nil {
		return e, err
	}
	switch e.Action {
	case "partition":
		err = firstErr(
			f.intField("first", &e.First),
			f.durField("heal-after", &e.HealAfter),
		)
		if err == nil && e.First < 1 {
			err = decodeErr{v.line, "partition needs first >= 1 (nodes to isolate)"}
		}
	case "kill":
		err = firstErr(
			f.intField("count", &e.Count),
			f.floatField("fraction", &e.Fraction),
			f.durField("respawn-after", &e.RespawnAfter),
			f.boolField("interior", &e.Interior),
		)
		if err == nil && e.Count <= 0 && e.Fraction <= 0 {
			err = decodeErr{v.line, "kill needs count or fraction"}
		}
	case "link-loss":
		e.A, e.B = -1, -1
		err = firstErr(
			f.intField("a", &e.A),
			f.intField("b", &e.B),
			f.floatField("loss", &e.Loss),
			f.durField("extra-latency", &e.ExtraLatency),
			f.durField("clear-after", &e.ClearAfter),
		)
		if err == nil && (e.A < 0 || e.B < 0 || e.A == e.B) {
			err = decodeErr{v.line, "link-loss needs distinct node indices a and b"}
		}
	case "malformed-flood":
		e.Floods = 10
		err = f.intField("count", &e.Floods)
	case "":
		return e, decodeErr{v.line, "event entry needs an action"}
	default:
		return e, decodeErr{v.line, fmt.Sprintf("unknown event action %q", e.Action)}
	}
	if err != nil {
		return e, err
	}
	return e, f.done(fmt.Sprintf("event %s", e.Action))
}

// decodeAssert decodes the assert block: the runner's own keys, then each
// present kind's. A key that only absent kinds own is refused.
func decodeAssert(v *yval, spec *ScenarioSpec) error {
	f, err := asFields(v, "assert")
	if err != nil {
		return err
	}
	a := &spec.Assert
	if err := firstErr(
		opt(f, "min-queries-done", &a.MinQueriesDone, (*yval).asInt),
		opt(f, "min-quota-rejects", &a.MinQuotaRejects, (*yval).asInt),
		f.boolField("all-queries-done", &a.AllQueriesDone),
		f.boolField("no-leaks", &a.NoLeaks),
		f.boolField("malformed-seen", &a.MalformedSeen),
	); err != nil {
		return err
	}
	for _, k := range spec.Workloads {
		if err := k.decodeAssert(f, spec); err != nil {
			return err
		}
	}
	for _, key := range f.v.keys {
		var owners []string
		for _, def := range workloadKinds {
			if !f.used[key] && slices.Contains(def.asserts, key) {
				owners = append(owners, def.name)
			}
		}
		if owners != nil {
			return decodeErr{f.v.m[key].line, fmt.Sprintf("assert %s requires a %s workload", key, strings.Join(owners, " or "))}
		}
	}
	return f.done("assert")
}
