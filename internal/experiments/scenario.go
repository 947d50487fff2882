package experiments

import (
	"fmt"
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
// silently.

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

	Topology  TopologySpec
	Network   NetworkSpec
	Workloads []WorkloadSpec
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

// WorkloadSpec is one entry of the workload mix.
type WorkloadSpec struct {
	// Kind is "continuous-agg", "lookups", "gnutella-flood", "hier-agg"
	// or "join".
	Kind string

	// continuous-agg: Queries concurrent continuous counts over the
	// fwlogs stream (continuousAggPlan), flushing every FlushEvery, fed by
	// per-node publishers emitting EventsPerNode events drawn from
	// Sources source IPs over the scenario duration (0 events-per-node
	// arms no publishers — the entry rides another entry's stream).
	// Shapes > 1 cycles that many structurally distinct plans across
	// the queries (distinct shared chains per node); Client labels the
	// submissions, and Clients > 1 spreads them round-robin over
	// "<client>-0".."<client>-C-1" identities (quota granularity).
	// Start > 0 delays submission into the horizon (a mid-run burst).
	Queries       int
	Shapes        int
	Client        string
	Clients       int
	FlushEvery    time.Duration
	EventsPerNode int
	Sources       int

	// lookups: Count one-shot equality lookups over a pre-published key
	// table of Keys keys, submitted every Interval starting at Start,
	// each with its own Timeout. First-result latency is recorded per
	// lookup (misses count toward completeness and p99).
	Count    int
	Start    time.Duration
	Interval time.Duration
	Timeout  time.Duration
	Keys     int

	// gnutella-flood: a flash crowd of Count concurrent flood searches
	// at time At over co-located Gnutella peers (degree Degree, TTL
	// TTL) sharing a small catalog.
	At     time.Duration
	TTL    int
	Degree int

	// hier-agg and join: the §3.3.4 ablations. Each seeds a fixed
	// fixture before the horizon, submits one plan at its start and
	// counts that plan's traffic over the horizon. Strategy picks the
	// plan: hier-agg's direct or hierarchical, join's symmetric-hash,
	// fetch-matches or bloom-rehash (ablationPlans).
	Strategy string
}

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

// AssertSpec is the assertion block. Pointer fields are only checked
// when present in the file; booleans only when true.
type AssertSpec struct {
	// MinResultRows: total continuous-agg result rows >= this.
	MinResultRows *int
	// RecoveredRows: continuous-agg rows arriving after the LAST
	// recovery event — a partition heal or a kill's respawn — >= this
	// (requires a partition event with heal-after, or a kill event with
	// respawn-after).
	RecoveredRows *int
	// MinQueriesDone: at least this many submitted queries (all kinds)
	// reached Done (bounded result loss under churn).
	MinQueriesDone *int
	// AllQueriesDone: every submitted query reached Done.
	AllQueriesDone bool
	// LookupCompleteness: lookup hits / lookups submitted >= this.
	LookupCompleteness *float64
	// MinCompleteness: every continuous-agg query that reached Done
	// reports ResultSet.Completeness() >= this (contributing nodes /
	// admitted nodes — the query plane's graceful-degradation measure).
	MinCompleteness *float64
	// P99LatencyMax: 99th-percentile lookup latency <= this; a p99
	// falling among misses fails.
	P99LatencyMax *time.Duration
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
	// Answers: "exact" requires every hier-agg and join workload's
	// answer to equal the ground truth its fixture fixes (requires such
	// a workload).
	Answers string
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

func (v *yval) str() (string, error) {
	if !v.isScalar {
		return "", decodeErr{v.line, "expected a scalar value"}
	}
	return v.scalar, nil
}

func (v *yval) asInt() (int, error) {
	s, err := v.str()
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, decodeErr{v.line, fmt.Sprintf("%q is not an integer", s)}
	}
	return n, nil
}

func (v *yval) asFloat() (float64, error) {
	s, err := v.str()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, decodeErr{v.line, fmt.Sprintf("%q is not a number", s)}
	}
	return f, nil
}

func (v *yval) asBool() (bool, error) {
	s, err := v.str()
	if err != nil {
		return false, err
	}
	switch s {
	case "true", "yes", "on":
		return true, nil
	case "false", "no", "off":
		return false, nil
	}
	return false, decodeErr{v.line, fmt.Sprintf("%q is not a boolean", s)}
}

func (v *yval) asDur() (time.Duration, error) {
	s, err := v.str()
	if err != nil {
		return 0, err
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, decodeErr{v.line, fmt.Sprintf("%q is not a duration (want 30s, 250ms, ...)", s)}
	}
	return d, nil
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

// Typed optional-field helpers: each decodes the key if present,
// otherwise leaves the destination untouched.
func (f *fields) intField(key string, dst *int) error {
	if v := f.get(key); v != nil {
		n, err := v.asInt()
		if err != nil {
			return err
		}
		*dst = n
	}
	return nil
}

func (f *fields) int64Field(key string, dst *int64) error {
	n := int(*dst)
	if err := f.intField(key, &n); err != nil {
		return err
	}
	*dst = int64(n)
	return nil
}

func (f *fields) floatField(key string, dst *float64) error {
	if v := f.get(key); v != nil {
		x, err := v.asFloat()
		if err != nil {
			return err
		}
		*dst = x
	}
	return nil
}

func (f *fields) durField(key string, dst *time.Duration) error {
	if v := f.get(key); v != nil {
		d, err := v.asDur()
		if err != nil {
			return err
		}
		*dst = d
	}
	return nil
}

func (f *fields) strField(key string, dst *string) error {
	if v := f.get(key); v != nil {
		s, err := v.str()
		if err != nil {
			return err
		}
		*dst = s
	}
	return nil
}

func (f *fields) boolField(key string, dst *bool) error {
	if v := f.get(key); v != nil {
		b, err := v.asBool()
		if err != nil {
			return err
		}
		*dst = b
	}
	return nil
}

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
		f.int64Field("seed", &spec.Seed),
		f.intField("nodes", &spec.Nodes),
		f.durField("duration", &spec.Duration),
		f.durField("teardown", &spec.Teardown),
		f.intField("max-graphs-per-client", &spec.MaxGraphsPerClient),
		f.intField("trees", &spec.Trees),
	); err != nil {
		return spec, err
	}
	if v := f.get("topology"); v != nil {
		if spec.Topology, err = decodeTopology(v); err != nil {
			return spec, err
		}
	}
	if v := f.get("network"); v != nil {
		if spec.Network, err = decodeNetwork(v); err != nil {
			return spec, err
		}
	}
	if v := f.get("workload"); v != nil {
		if v.list == nil {
			return spec, decodeErr{v.line, "workload must be a list"}
		}
		for _, item := range v.list {
			wl, err := decodeWorkload(item)
			if err != nil {
				return spec, err
			}
			spec.Workloads = append(spec.Workloads, wl)
		}
	}
	if v := f.get("events"); v != nil {
		if v.list == nil {
			return spec, decodeErr{v.line, "events must be a list"}
		}
		for _, item := range v.list {
			ev, err := decodeEvent(item)
			if err != nil {
				return spec, err
			}
			spec.Events = append(spec.Events, ev)
		}
	}
	if v := f.get("assert"); v != nil {
		if spec.Assert, err = decodeAssert(v); err != nil {
			return spec, err
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
	if spec.Assert.RecoveredRows != nil {
		recovers := false
		for _, ev := range spec.Events {
			if ev.Action == "partition" && ev.HealAfter > 0 {
				recovers = true
			}
			if ev.Action == "kill" && ev.RespawnAfter > 0 {
				recovers = true
			}
		}
		if !recovers {
			return spec, fmt.Errorf("assert recovered-rows requires a partition event with heal-after or a kill event with respawn-after")
		}
	}
	if spec.Assert.MinQuotaRejects != nil && spec.MaxGraphsPerClient <= 0 {
		return spec, fmt.Errorf("assert min-quota-rejects requires max-graphs-per-client")
	}
	fixtures := map[string]int{}
	for _, wl := range spec.Workloads {
		if wl.Kind == "continuous-agg" && wl.Start >= spec.Duration {
			return spec, fmt.Errorf("continuous-agg start %v falls outside the scenario duration %v", wl.Start, spec.Duration)
		}
		if ablationPlans[wl.Kind] != nil {
			if fixtures[wl.Kind]++; fixtures[wl.Kind] > 1 {
				return spec, fmt.Errorf("at most one %s workload per scenario (its fixture is seeded once)", wl.Kind)
			}
		}
	}
	if spec.Assert.Answers != "" && len(fixtures) == 0 {
		return spec, fmt.Errorf("assert answers requires a hier-agg or join workload")
	}
	return spec, nil
}

func decodeTopology(v *yval) (TopologySpec, error) {
	t := TopologySpec{Kind: "star"}
	f, err := asFields(v, "topology")
	if err != nil {
		return t, err
	}
	if err := firstErr(
		f.strField("kind", &t.Kind),
		f.durField("min-access", &t.MinAccess),
		f.durField("max-access", &t.MaxAccess),
		f.done("topology"),
	); err != nil {
		return t, err
	}
	if t.Kind != "star" && t.Kind != "transit-stub" {
		return t, decodeErr{v.line, fmt.Sprintf("unknown topology kind %q (star or transit-stub)", t.Kind)}
	}
	return t, nil
}

func decodeNetwork(v *yval) (NetworkSpec, error) {
	var n NetworkSpec
	f, err := asFields(v, "network")
	if err != nil {
		return n, err
	}
	if err := firstErr(
		f.floatField("loss-rate", &n.LossRate),
		f.done("network"),
	); err != nil {
		return n, err
	}
	if n.LossRate < 0 || n.LossRate >= 1 {
		return n, decodeErr{v.line, fmt.Sprintf("loss-rate %v outside [0, 1)", n.LossRate)}
	}
	return n, nil
}

func decodeWorkload(v *yval) (WorkloadSpec, error) {
	var w WorkloadSpec
	f, err := asFields(v, "workload")
	if err != nil {
		return w, err
	}
	if err := f.strField("kind", &w.Kind); err != nil {
		return w, err
	}
	switch w.Kind {
	case "continuous-agg":
		w.Queries, w.FlushEvery, w.EventsPerNode, w.Sources = 8, 5*time.Second, 20, 32
		w.Shapes, w.Client, w.Clients = 1, "scenario", 1
		err = firstErr(
			f.intField("queries", &w.Queries),
			f.intField("shapes", &w.Shapes),
			f.strField("client", &w.Client),
			f.intField("clients", &w.Clients),
			f.durField("start", &w.Start),
			f.durField("flush-every", &w.FlushEvery),
			f.intField("events-per-node", &w.EventsPerNode),
			f.intField("sources", &w.Sources),
		)
		if err == nil && w.Shapes < 1 {
			err = decodeErr{v.line, "continuous-agg needs shapes >= 1"}
		}
	case "lookups":
		w.Count, w.Start, w.Interval, w.Timeout, w.Keys = 10, 2*time.Second, time.Second, 10*time.Second, 32
		err = firstErr(
			f.intField("count", &w.Count),
			f.durField("start", &w.Start),
			f.durField("interval", &w.Interval),
			f.durField("timeout", &w.Timeout),
			f.intField("keys", &w.Keys),
		)
		if err == nil && w.Keys < 1 {
			// Lookups pick key i*7 mod keys.
			err = decodeErr{f.v.m["keys"].line, "lookups needs keys >= 1"}
		}
	case "gnutella-flood":
		w.Count, w.At, w.TTL, w.Degree, w.Timeout = 12, 5*time.Second, 3, 3, 10*time.Second
		err = firstErr(
			f.intField("count", &w.Count),
			f.durField("at", &w.At),
			f.intField("ttl", &w.TTL),
			f.intField("degree", &w.Degree),
			f.durField("timeout", &w.Timeout),
		)
	case "hier-agg", "join":
		err = f.strField("strategy", &w.Strategy)
		if plans := ablationPlans[w.Kind]; err == nil && plans[w.Strategy] == "" {
			names := make([]string, 0, len(plans))
			for name := range plans {
				names = append(names, name)
			}
			sort.Strings(names)
			err = decodeErr{v.line, fmt.Sprintf("%s needs strategy %s, got %q", w.Kind, strings.Join(names, "|"), w.Strategy)}
		}
	case "":
		return w, decodeErr{v.line, "workload entry needs a kind"}
	default:
		return w, decodeErr{v.line, fmt.Sprintf("unknown workload kind %q", w.Kind)}
	}
	if err != nil {
		return w, err
	}
	return w, f.done(fmt.Sprintf("workload %s", w.Kind))
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

func decodeAssert(v *yval) (AssertSpec, error) {
	var a AssertSpec
	f, err := asFields(v, "assert")
	if err != nil {
		return a, err
	}
	optInt := func(key string, dst **int) error {
		if v := f.get(key); v != nil {
			n, err := v.asInt()
			if err != nil {
				return err
			}
			*dst = &n
		}
		return nil
	}
	if err := firstErr(
		optInt("min-result-rows", &a.MinResultRows),
		optInt("recovered-rows", &a.RecoveredRows),
		optInt("min-queries-done", &a.MinQueriesDone),
		optInt("min-quota-rejects", &a.MinQuotaRejects),
		f.boolField("all-queries-done", &a.AllQueriesDone),
		f.boolField("no-leaks", &a.NoLeaks),
		f.boolField("malformed-seen", &a.MalformedSeen),
		f.strField("answers", &a.Answers),
	); err != nil {
		return a, err
	}
	if a.Answers != "" && a.Answers != "exact" {
		return a, decodeErr{f.v.m["answers"].line, fmt.Sprintf("answers must be exact, got %q", a.Answers)}
	}
	if v := f.get("lookup-completeness"); v != nil {
		x, err := v.asFloat()
		if err != nil {
			return a, err
		}
		if x < 0 || x > 1 {
			return a, decodeErr{v.line, "lookup-completeness outside [0, 1]"}
		}
		a.LookupCompleteness = &x
	}
	if v := f.get("min-completeness"); v != nil {
		x, err := v.asFloat()
		if err != nil {
			return a, err
		}
		if x < 0 || x > 1 {
			return a, decodeErr{v.line, "min-completeness outside [0, 1]"}
		}
		a.MinCompleteness = &x
	}
	if v := f.get("p99-latency-max"); v != nil {
		d, err := v.asDur()
		if err != nil {
			return a, err
		}
		a.P99LatencyMax = &d
	}
	return a, f.done("assert")
}
