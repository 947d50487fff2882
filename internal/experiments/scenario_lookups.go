package experiments

import (
	"fmt"
	"strings"
	"time"

	"pier/internal/metrics"
	"pier/internal/qp"
	"pier/internal/sqlfront"
	"pier/internal/tuple"
)

// lookups is `kind: lookups`: each entry seeds a table of keys keys, then
// submits count one-shot equality lookups from random live nodes, every
// interval from start, each timing its first result (misses count toward
// completeness and p99). Ids look0, look1, ... count across entries, as
// executors take one id's graphs once, whichever proxy sends them.
type lookups struct {
	workloadBase
	entries []lookupsEntry

	// Its assertions, checked when set: hits / lookups submitted >=
	// minHits, and a 99th-percentile latency <= p99Max (a p99 falling
	// among misses fails).
	minHits *float64
	p99Max  *time.Duration

	// Run state: every submitted lookup.
	looks []scenLookup
}

type lookupsEntry struct {
	count, keys              int
	start, interval, timeout time.Duration
}

// scenLookup tracks one one-shot lookup end to end.
type scenLookup struct {
	rs        *qp.ResultSet
	submitted time.Time
}

func (k *lookups) decode(f *fields, spec *ScenarioSpec) error {
	e := lookupsEntry{count: 10, keys: 32, start: 2 * time.Second, interval: time.Second, timeout: 10 * time.Second}
	if err := firstErr(
		f.intField("count", &e.count),
		f.durField("start", &e.start),
		f.durField("interval", &e.interval),
		f.durField("timeout", &e.timeout),
		f.intField("keys", &e.keys),
		f.done("workload lookups"),
	); err != nil {
		return err
	}
	if e.keys < 1 { // lookups pick key i*7 mod keys
		return decodeErr{f.v.m["keys"].line, "lookups needs keys >= 1"}
	}
	k.entries = append(k.entries, e)
	return nil
}

func (k *lookups) decodeAssert(f *fields, spec *ScenarioSpec) error {
	return firstErr(
		opt(f, "lookup-completeness", &k.minHits, (*yval).asFraction),
		opt(f, "p99-latency-max", &k.p99Max, (*yval).asDur),
	)
}

func (k lookups) start(r *scenarioRun) (workloadKind, bool) {
	k.r = r
	nodes := r.nodes
	for _, e := range k.entries {
		for j := 0; j < e.keys; j++ {
			nodes[j%len(nodes)].Publish("kv", []string{"key"},
				tuple.New("kv").
					Set("key", tuple.String(fmt.Sprintf("key-%03d", j))).
					Set("val", tuple.String(fmt.Sprintf("val-%d", j))),
				4*time.Hour, nil)
		}
	}
	return &k, true
}

func (k *lookups) arm() {
	r := k.r
	opts := sqlfront.Options{TableIndexes: map[string][]string{"kv": {"key"}}}
	for _, e := range k.entries {
		for i := 0; i < e.count; i++ {
			r.env.Schedule(e.start+time.Duration(i)*e.interval, func() {
				live := r.liveQP()
				origin := r.addrToQP[live[r.rng.Intn(len(live))]]
				key := fmt.Sprintf("key-%03d", (i*7)%e.keys)
				plan, err := sqlfront.Run(fmt.Sprintf("look%d", len(k.looks)),
					fmt.Sprintf("SELECT val FROM kv WHERE key = '%s' TIMEOUT %s", key, e.timeout), opts)
				if err != nil {
					panic(err)
				}
				rs, err := origin.SubmitCollect(plan, "scenario-lookup")
				if err != nil {
					panic(err)
				}
				k.looks = append(k.looks, scenLookup{rs: rs, submitted: r.env.Now()})
			})
		}
	}
}

func (k *lookups) report(b *strings.Builder, check checkFunc) (submitted, done int) {
	var rec metrics.LatencyRecorder
	hits := 0
	for _, l := range k.looks {
		if l.rs.Done() {
			done++
		}
		if at, ok := l.rs.FirstAt(); ok {
			hits++
			rec.Record(at.Sub(l.submitted))
		} else {
			rec.Miss()
		}
	}
	if len(k.looks) > 0 {
		fmt.Fprintf(b, "  lookups: submitted=%d done=%d hits=%d misses=%d", len(k.looks), done, hits, len(k.looks)-hits)
		for _, p := range []float64{50, 99} {
			if d, ok := rec.Percentile(p); ok {
				fmt.Fprintf(b, " p%.0f=%v", p, d)
			} else {
				fmt.Fprintf(b, " p%.0f=miss", p)
			}
		}
		b.WriteString("\n")
	}
	if k.minHits != nil {
		got := 0.0
		if len(k.looks) > 0 {
			got = float64(hits) / float64(len(k.looks))
		}
		check(50, fmt.Sprintf("lookup-completeness >= %.2f", *k.minHits),
			got >= *k.minHits, fmt.Sprintf("%d/%d = %.2f", hits, len(k.looks), got))
	}
	if k.p99Max != nil {
		d, ok := rec.Percentile(99)
		detail := "p99=miss"
		if ok {
			detail = fmt.Sprintf("p99=%v", d)
		}
		check(70, fmt.Sprintf("p99-latency-max <= %v", *k.p99Max), ok && d <= *k.p99Max, detail)
	}
	return len(k.looks), done
}
