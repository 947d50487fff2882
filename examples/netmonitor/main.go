// Netmonitor: the paper's second grounding application (§2.2) — endpoint
// network monitoring. Every node holds its own firewall log; a single
// continuous PIER query reports the top sources of firewall events
// across all nodes, refreshed per window. This is Figure 2 as a living
// applet rather than a snapshot.
//
//	go run ./examples/netmonitor
package main

import (
	"fmt"
	"sort"
	"time"

	"pier/internal/experiments"
	"pier/internal/sim"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/workload"
)

func main() {
	env := sim.NewEnv(sim.Options{Seed: 11})
	nodes := experiments.BuildCluster(env, 60, "host")
	gen := workload.NewFirewallGen(12, 200, 1.2)

	// Live log feed: every node appends a few firewall events per second
	// to its local store only (data stays in situ).
	for _, n := range nodes {
		n := n
		var feed func()
		feed = func() {
			ev := gen.Next(n.Runtime().Now())
			n.PublishLocal("fwlogs", tuple.New("fwlogs").
				Set("src", tuple.String(ev.Src)).
				Set("severity", tuple.Int(int64(ev.Severity))),
				10*time.Minute)
			n.Runtime().Schedule(time.Duration(200+n.Runtime().Rand().Intn(400))*time.Millisecond, feed)
		}
		n.Runtime().Schedule(time.Second, feed)
	}

	// A continuous two-phase aggregation: partial counts per node are
	// rehashed to per-source owners every window, and each refresh emits
	// the current counts. (Hand-written UFL; compare sqlfront for the
	// one-shot SQL equivalent.)
	q := ufl.MustParse(`
query livetop timeout 60s

opgraph partials disseminate broadcast {
    scan = Scan(table='fwlogs')
    sel  = Select(pred='severity >= 2')
    agg  = GroupBy(keys='src', aggs='count(*) as cnt', flushevery='10s')
    ship = Put(ns='livetop.partial', key='src')
    sel <- scan
    agg <- sel
    ship <- agg
}

opgraph finals disseminate broadcast {
    recv = Scan(table='livetop.partial')
    agg  = GroupBy(keys='src', aggs='sum(cnt) as cnt', flushevery='15s')
    out  = Result()
    agg <- recv
    out <- agg
}
`)
	counts := map[string]int64{}
	window := 0
	done := false
	err := nodes[0].Submit(q, "monitor",
		func(t *tuple.Tuple) {
			src, _ := t.Get("src")
			cnt, _ := t.Get("cnt")
			c, _ := cnt.AsInt()
			counts[src.String()] += c
		},
		func() { done = true })
	if err != nil {
		panic(err)
	}

	// Print the running top-10 every 15 virtual seconds, like the applet
	// in the paper's Figure 2.
	for !done {
		env.Run(15 * time.Second)
		window++
		type row struct {
			src string
			n   int64
		}
		var rows []row
		for s, n := range counts {
			rows = append(rows, row{s, n})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
		fmt.Printf("--- window %d (virtual t=%ds): top sources of firewall events ---\n", window, env.Now().Unix())
		for i, r := range rows {
			if i >= 10 {
				break
			}
			fmt.Printf("%2d. %-16s %6d events\n", i+1, r.src, r.n)
		}
		fmt.Println()
	}
}
