package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"pier/internal/qp"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/workload"
)

// continuousAgg is `kind: continuous-agg`: each entry submits Queries
// concurrent continuous counts over the fwlogs stream (continuousAggPlan),
// flushing every FlushEvery, fed by per-node publishers emitting
// EventsPerNode events drawn from Sources source IPs over the scenario
// duration (0 events-per-node arms no publishers — the entry rides
// another entry's stream). Shapes > 1 cycles that many structurally
// distinct plans across the queries (distinct shared chains per node);
// Client labels the submissions, and Clients > 1 spreads them round-robin
// over "<client>-0".."<client>-C-1" identities (quota granularity).
// Start > 0 delays submission into the horizon (a mid-run burst). Plan
// names scen1, scen2, ... count across entries.
type continuousAgg struct {
	workloadBase
	entries []aggEntry

	// Its assertions, checked when set: result rows >= minRows; rows
	// after the LAST recovery point (heal or respawn) >= recoveredRows;
	// every Done query's ResultSet.Completeness() (contributing /
	// admitted nodes, the graceful-degradation measure) >= minCompleteness.
	minRows, recoveredRows *int
	minCompleteness        *float64

	// Run state: the queries' results, and the rows at the last recovery.
	sets           []*qp.ResultSet
	rowsAtLastHeal int
	healed         bool
}

type aggEntry struct {
	queries, shapes, clients, eventsPerNode, sources int
	client                                           string
	start, flushEvery                                time.Duration
}

func (k *continuousAgg) decode(f *fields, spec *ScenarioSpec) error {
	e := aggEntry{queries: 8, shapes: 1, clients: 1, eventsPerNode: 20, sources: 32, client: "scenario", flushEvery: 5 * time.Second}
	if err := firstErr(
		f.intField("queries", &e.queries),
		f.intField("shapes", &e.shapes),
		f.strField("client", &e.client),
		f.intField("clients", &e.clients),
		f.durField("start", &e.start),
		f.durField("flush-every", &e.flushEvery),
		f.intField("events-per-node", &e.eventsPerNode),
		f.intField("sources", &e.sources),
		f.done("workload continuous-agg"),
	); err != nil {
		return err
	}
	if e.shapes < 1 {
		return decodeErr{f.v.line, "continuous-agg needs shapes >= 1"}
	}
	if e.start >= spec.Duration {
		return decodeErr{f.v.line, fmt.Sprintf("continuous-agg start %v falls outside the scenario duration %v", e.start, spec.Duration)}
	}
	k.entries = append(k.entries, e)
	return nil
}

func (k *continuousAgg) decodeAssert(f *fields, spec *ScenarioSpec) error {
	if err := firstErr(
		opt(f, "min-result-rows", &k.minRows, (*yval).asInt),
		opt(f, "recovered-rows", &k.recoveredRows, (*yval).asInt),
		opt(f, "min-completeness", &k.minCompleteness, (*yval).asFraction),
	); err != nil {
		return err
	}
	recovers := slices.ContainsFunc(spec.Events, func(ev EventSpec) bool {
		return ev.Action == "partition" && ev.HealAfter > 0 || ev.Action == "kill" && ev.RespawnAfter > 0
	})
	if k.recoveredRows != nil && !recovers {
		return fmt.Errorf("assert recovered-rows requires a partition event with heal-after or a kill event with respawn-after")
	}
	return nil
}

func (k continuousAgg) start(r *scenarioRun) (workloadKind, bool) { k.r = r; return &k, false }

// arm submits each entry's queries at its start (one dissemination batch
// per proxy — a delayed entry is a mid-run burst against already-shared
// chains) and arms its publishers with a lead, so every graph is live
// before the first event lands.
func (k *continuousAgg) arm() {
	const lead = 2 * time.Second
	r, spec := k.r, k.r.spec
	for _, e := range k.entries {
		submit := func() {
			timeout := spec.Duration - e.start + time.Second
			for i := 0; i < e.queries; i++ {
				client := e.client
				if e.clients > 1 {
					client = fmt.Sprintf("%s-%d", e.client, i%e.clients)
				}
				plan := continuousAggPlan(fmt.Sprintf("scen%d", len(k.sets)+1), i%e.shapes, e.flushEvery, timeout)
				rs, err := r.nodes[i%len(r.nodes)].SubmitCollect(plan, client)
				if err != nil {
					panic(err)
				}
				k.sets = append(k.sets, rs)
			}
		}
		if e.start > 0 {
			r.env.Schedule(e.start, submit)
		} else {
			submit()
		}
		if e.eventsPerNode > 0 {
			window := max(spec.Duration-lead-time.Second, time.Second)
			for i, n := range r.nodes {
				p := &firewallPublisher{
					n:        n,
					gen:      workload.NewFirewallGen(spec.Seed+100+int64(i), e.sources, 1.2),
					interval: window / time.Duration(e.eventsPerNode),
					left:     e.eventsPerNode,
				}
				p.tickFn = p.tick
				n.Runtime().Schedule(lead+time.Duration(i*131)*time.Microsecond, p.tickFn)
			}
		}
	}
}

func (k *continuousAgg) tally() (rows, done int) {
	for _, rs := range k.sets {
		rows += rs.Len()
		if rs.Done() {
			done++
		}
	}
	return rows, done
}

func (k *continuousAgg) recovered() int {
	k.rowsAtLastHeal, _ = k.tally()
	k.healed = true
	return k.rowsAtLastHeal
}

func (k *continuousAgg) report(b *strings.Builder, check checkFunc) (submitted, done int) {
	rows, done := k.tally()
	recovered := rows - k.rowsAtLastHeal
	if len(k.sets) > 0 {
		fmt.Fprintf(b, "  continuous-agg: queries=%d done=%d result-rows=%d", len(k.sets), done, rows)
		if k.healed {
			fmt.Fprintf(b, " rows-after-last-heal=%d", recovered)
		}
		b.WriteString("\n")
	}
	if k.minRows != nil {
		check(10, fmt.Sprintf("min-result-rows >= %d", *k.minRows), rows >= *k.minRows, fmt.Sprintf("rows=%d", rows))
	}
	if k.recoveredRows != nil {
		check(20, fmt.Sprintf("recovered-rows >= %d", *k.recoveredRows),
			k.healed && recovered >= *k.recoveredRows, fmt.Sprintf("rows-after-last-heal=%d", recovered))
	}
	if k.minCompleteness != nil {
		// Over the queries whose tallies are final (Done): every one must
		// clear the bar, and a run where none finalized fails too.
		minC, measured := 1.0, 0
		for _, rs := range k.sets {
			if c, ok := rs.Completeness(); ok {
				measured++
				minC = min(minC, c)
			}
		}
		detail := "no query finalized a completeness tally"
		if measured > 0 {
			detail = fmt.Sprintf("min=%.3f over %d queries", minC, measured)
		}
		check(60, fmt.Sprintf("min-completeness >= %.2f", *k.minCompleteness),
			measured > 0 && minC >= *k.minCompleteness, detail)
	}
	return len(k.sets), done
}

// continuousAggPlan renders one continuous count over the fwlogs
// stream, the plan every continuous-agg query runs; the report's
// "sharing:" line counts what the runtime shares across them. Shape 0 is
// the plain count; shape s > 0 inserts a Select whose predicate constant
// differs per shape — structurally distinct (distinct subtree keys)
// while still passing every event (ports top out at 3389), so result
// completeness is shape-independent.
func continuousAggPlan(name string, shape int, flushEvery, timeout time.Duration) *ufl.Query {
	sel, wire := "", "    agg <- src\n"
	if shape > 0 {
		sel = fmt.Sprintf("    sel = Select(pred='dstport <= %d')\n", 4000+shape)
		wire = "    sel <- src\n    agg <- sel\n"
	}
	return ufl.MustParse(fmt.Sprintf(`
query %s timeout %s
opgraph g disseminate broadcast {
    src = NewData(table='fwlogs')
%s    agg = GroupBy(aggs='count(*) as cnt', flushevery='%s')
    out = Result()
%s    out <- agg
}
`, name, timeout, sel, flushEvery, wire))
}

// firewallPublisher is one node's event source: a pre-bound tick that
// publishes firewall events from the node's OWN generator (driver-shared
// state would break the sharded discipline) until its quota is spent.
type firewallPublisher struct {
	n        *qp.Node
	gen      *workload.FirewallGen
	interval time.Duration
	left     int
	tickFn   func()
}

func (p *firewallPublisher) tick() {
	if p.left <= 0 {
		return
	}
	p.left--
	ev := p.gen.Next(p.n.Runtime().Now())
	p.n.PublishLocal("fwlogs", tuple.New("fwlogs").
		Set("src", tuple.String(ev.Src)).
		Set("dstport", tuple.Int(int64(ev.DstPort))).
		Set("severity", tuple.Int(int64(ev.Severity))), 4*time.Hour)
	if p.left > 0 {
		p.n.Runtime().Schedule(p.interval, p.tickFn)
	}
}
