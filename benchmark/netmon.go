package main

import (
	"fmt"
	"math/rand"
	"time"

	"pier/internal/qp"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
	"pier/internal/workload"
)

// The two netmon workloads are the paper's Figure 2 application —
// continuous per-source aggregation over firewall logs that every node
// holds locally — at the "many coexisting queries" operating point.
// netmon_shared submits structurally identical queries, so every node
// runs one shared operator chain; netmon_mixed gives each query its own
// predicate, so nothing shares and each publish feeds every query's
// private chain with a batch of one.

type netmonSpec struct {
	name     string
	nodes    int
	queries  int
	clients  int // client identities; each submits through one proxy
	sources  int
	distinct bool // one predicate per query, so no two queries share a chain
	// eventsPerSec is each node's publish rate and duration the publish
	// window (virtual) at -seconds = run_seconds; the window scales with
	// -seconds, the rate does not.
	eventsPerSec int
	duration     time.Duration
}

var netmonShared = netmonSpec{
	name: "netmon_shared", nodes: 64, queries: 1000, clients: 25, sources: 16,
	eventsPerSec: 66, duration: 60 * time.Second,
}

var netmonMixed = netmonSpec{
	name: "netmon_mixed", nodes: 48, queries: 200, clients: 25, sources: 16, distinct: true,
	eventsPerSec: 66, duration: 25 * time.Second,
}

const (
	netmonFlushEvery = 5 * time.Second
	// netmonLead is how long before the first event the queries are
	// submitted, so every opgraph is live everywhere when data starts.
	netmonLead = 2 * time.Second
	// netmonEventLifetime is the soft-state lifetime of a published
	// event: three windows, so the store reaches a steady state instead
	// of growing with the run.
	netmonEventLifetime = 3 * netmonFlushEvery
)

// netmonQuery is one query's collector, written only by events on its
// proxy node (so it is safe under the sharded scheduler too).
type netmonQuery struct {
	id     string
	proxy  *qp.Node
	cnt    int64 // Σ cnt over delivered rows
	sev    int64 // Σ sev over delivered rows
	rows   int
	stale  int    // rows whose max(ts) lies after their delivery
	digest uint64 // order-sensitive hash of every delivered row and its arrival time
	done   bool
}

// netmonPublisher is one node's open-loop event source: event i is due
// at i×interval plus a seeded jitter below one interval, whatever the
// system is doing.
type netmonPublisher struct {
	n        *qp.Node
	gen      *workload.FirewallGen
	rng      *rand.Rand
	tr       *tracer
	interval time.Duration
	start    time.Time // virtual time event 0's slot begins
	next     int
	total    int
	sevSum   int64
	sample   *[]*tuple.Tuple // first events of node 0, kept for the layer replays
	tickFn   func()
}

func (p *netmonPublisher) due(i int) time.Time {
	return p.start.Add(time.Duration(i)*p.interval + time.Duration(p.rng.Int63n(int64(p.interval))))
}

func (p *netmonPublisher) tick() {
	rt := p.n.Runtime()
	now := rt.Now()
	ev := p.gen.Next(now)
	p.sevSum += int64(ev.Severity)
	t := tuple.New("fwlogs").
		Set("src", tuple.String(ev.Src)).
		Set("dstport", tuple.Int(int64(ev.DstPort))).
		Set("severity", tuple.Int(int64(ev.Severity))).
		Set("ts", tuple.Int(now.UnixMicro()))
	if p.sample != nil && len(*p.sample) < replayRows {
		*p.sample = append(*p.sample, t)
	}
	p.tr.enter(bQPPublish, false, 0)
	p.n.PublishLocal("fwlogs", t, netmonEventLifetime)
	p.tr.exit()
	p.next++
	if p.next < p.total {
		rt.Schedule(p.due(p.next).Sub(now), p.tickFn)
	}
}

type netmonWorld struct {
	spec       netmonSpec
	c          *simCluster
	tr         *tracer
	queries    []*netmonQuery
	plans      []*ufl.Query
	planTexts  []string
	publishers []*netmonPublisher
	lag        *virtHist // nil under the sharded scheduler: it is shared state
	duration   time.Duration
	perNode    int
	sample     []*tuple.Tuple
	submitHost time.Duration
}

func netmonPlanText(spec netmonSpec, i int, timeout time.Duration) string {
	sel, wiring := "", "    agg <- src\n"
	if spec.distinct {
		sel = fmt.Sprintf("    sel = Select(pred='dstport <= %d AND severity >= 0')\n", 4000+i)
		wiring = "    sel <- src\n    agg <- sel\n"
	}
	return fmt.Sprintf(`
query nm%d timeout %s
opgraph g disseminate broadcast {
    src = NewData(table='fwlogs')
%s    agg = GroupBy(keys='src', aggs='count(*) as cnt; sum(severity) as sev; max(ts) as mx', flushevery='%s')
    out = Result()
%s    out <- agg
}
`, i, timeout, sel, netmonFlushEvery, wiring)
}

// netmonDuration scales the publish window to whole flush periods.
func netmonDuration(spec netmonSpec, scale float64) time.Duration {
	windows := int(float64(spec.duration/netmonFlushEvery)*scale + 0.5)
	if windows < 1 {
		windows = 1
	}
	return time.Duration(windows) * netmonFlushEvery
}

// setupNetmon builds the ring, submits every query at one barrier, arms
// the publishers and runs until dissemination has settled: the state the
// measured phase starts from.
func setupNetmon(spec netmonSpec, o runOpts, workers int, tr *tracer) (*netmonWorld, error) {
	env := newSimEnv(o.seed, workers)
	cfg := qp.Config{}
	cfg.DHT.MaxLifetime = time.Hour
	var wrap func(vri.Runtime) vri.Runtime
	if tr != nil {
		wrap = tr.wrap
	}
	c, err := buildCluster(env, spec.nodes, cfg, wrap)
	if err != nil {
		return nil, err
	}
	w := &netmonWorld{spec: spec, c: c, tr: tr, duration: netmonDuration(spec, o.scale)}
	w.perNode = int(w.duration/time.Second) * spec.eventsPerSec
	if workers == 0 {
		w.lag = newVirtHist()
	}

	// Each client identity submits through one proxy drawn from the seed.
	rng := rand.New(rand.NewSource(o.seed + 1))
	proxies := rng.Perm(spec.nodes)[:spec.clients]
	timeout := netmonLead + w.duration + time.Second
	for i := 0; i < spec.queries; i++ {
		text := netmonPlanText(spec, i, timeout)
		plan, err := ufl.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("plan %d: %w", i, err)
		}
		w.plans, w.planTexts = append(w.plans, plan), append(w.planTexts, text)
	}
	submitStart := time.Now()
	for i, plan := range w.plans {
		client := i % spec.clients
		q := &netmonQuery{id: plan.ID, proxy: c.nodes[proxies[client]]}
		w.queries = append(w.queries, q)
		tr.begin(bQPSubmit, "", int64(i))
		err := q.proxy.Submit(plan, fmt.Sprintf("tenant-%d", client), w.onResult(q), func() { q.done = true })
		tr.exit()
		if err != nil {
			return nil, fmt.Errorf("submit %s: %w", q.id, err)
		}
	}
	w.submitHost = time.Since(submitStart)

	start := env.Now().Add(netmonLead)
	for i, n := range c.nodes {
		p := &netmonPublisher{
			n:        n,
			gen:      workload.NewFirewallGen(o.seed+100+int64(i), spec.sources, 1.2),
			rng:      rand.New(rand.NewSource(o.seed + 5000 + int64(i))),
			tr:       tr,
			interval: time.Second / time.Duration(spec.eventsPerSec),
			start:    start,
			total:    w.perNode,
		}
		if i == 0 {
			p.sample = &w.sample
		}
		p.tickFn = p.tick
		w.publishers = append(w.publishers, p)
		n.Runtime().Schedule(p.due(0).Sub(env.Now()), p.tickFn)
	}
	tr.begin(bSimRun, "sim.run settle", 0)
	env.Run(netmonLead)
	tr.exit()

	if live := readNodes(c.nodes).liveGraphs; live != spec.nodes*spec.queries {
		return nil, fmt.Errorf("%s: %d opgraphs live after dissemination, want %d", spec.name, live, spec.nodes*spec.queries)
	}
	return w, nil
}

// onResult is the proxy-side callback of one query: it folds the row
// into the query's reference sums and digest and records how long after
// the newest contributing event the row arrived.
func (w *netmonWorld) onResult(q *netmonQuery) func(*tuple.Tuple) {
	rt := q.proxy.Runtime()
	return func(t *tuple.Tuple) {
		w.tr.enter(bHarnessCallback, false, 0)
		now := rt.Now().UnixMicro()
		srcV, _ := t.Get("src")
		cntV, _ := t.Get("cnt")
		sevV, _ := t.Get("sev")
		mxV, _ := t.Get("mx")
		s, _ := srcV.AsString()
		cnt, _ := cntV.AsInt()
		sev, _ := sevV.AsInt()
		mx, _ := mxV.AsInt()
		q.cnt += cnt
		q.sev += sev
		q.rows++
		lag := now - mx
		if lag < 0 || mx == 0 {
			q.stale++
		}
		if w.lag != nil {
			w.lag.add(time.Duration(lag) * time.Microsecond)
		}
		h := q.digest
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		for _, v := range [...]int64{cnt, sev, mx, now} {
			h = (h ^ uint64(v)) * 1099511628211
		}
		q.digest = h
		w.tr.exit()
	}
}

// measure runs the publish window and the tail in which the last window
// flushes and every query reports done. The live heap is read at the
// midpoint barrier, with the clock stopped.
func (w *netmonWorld) measure() (wall time.Duration, heapMB float64) {
	env := w.c.env
	tail := time.Second + 2*time.Second + time.Second // timeout slack + done grace + margin
	half := w.duration / 2
	run := func(d time.Duration) {
		w.tr.begin(bSimRun, "", 0)
		t0 := time.Now()
		env.Run(d)
		wall += time.Since(t0)
		w.tr.exit()
	}
	run(half)
	heapMB = liveHeapMB()
	run(w.duration - half + tail)
	return wall, heapMB
}

// check compares every query's sums with the reference: the events the
// publishers generated. Every query's predicate passes every event, so
// each must have counted all of them exactly once.
func (w *netmonWorld) check() (attempted, failed int, recall float64, digest uint64, notes []string) {
	wantCnt := int64(w.spec.nodes * w.perNode)
	var wantSev int64
	for _, p := range w.publishers {
		wantSev += p.sevSum
		if p.next != p.total {
			notes = append(notes, fmt.Sprintf("publisher %s made %d of %d events", p.n.Addr(), p.next, p.total))
		}
	}
	var got int64
	for _, q := range w.queries {
		attempted++
		ok := q.cnt == wantCnt && q.sev == wantSev && q.stale == 0 && q.done
		if !ok {
			failed++
			if len(notes) < 5 {
				notes = append(notes, fmt.Sprintf("%s: cnt=%d want %d, sev=%d want %d, stale=%d, done=%v",
					q.id, q.cnt, wantCnt, q.sev, wantSev, q.stale, q.done))
			}
		}
		c := q.cnt
		if c > wantCnt {
			c = wantCnt
		}
		got += c
		digest = (digest ^ q.digest) * 1099511628211
	}
	recall = float64(got) / float64(wantCnt*int64(len(w.queries)))
	return attempted, failed, recall, digest, notes
}

func (w *netmonWorld) publishes() uint64 { return uint64(w.spec.nodes * w.perNode) }

// runNetmon is one run of a netmon workload: set up three times, measure
// on the last, check against the reference, and on a traced run replay
// the layers and re-run under the sharded scheduler.
func runNetmon(spec netmonSpec, o runOpts) (*result, error) {
	res := &result{Workload: spec.name, Seed: o.seed, Traced: o.trace}
	var tr *tracer
	var w *netmonWorld
	setupS, err := medianSetup(o, func(last bool) (err error) {
		if last && o.trace {
			tr = newTracer()
		}
		w, err = setupNetmon(spec, o, 0, tr)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	tr.resetTotals()
	sim0, nodes0, go0 := readSim(w.c.env), readNodes(w.c.nodes), readGo()
	wall, heapMB := w.measure()
	simD, nodesAll := readSim(w.c.env).sub(sim0), readNodes(w.c.nodes)
	nodesD, goD := nodesAll.sub(nodes0), readGo().sub(go0)

	attempted, failed, recall, digest, notes := w.check()
	res.Attempted, res.Failed, res.Notes = attempted, failed, notes
	if nodesD.leaked != 0 {
		res.fail("qp.leaked = %d after every query ended, want 0", nodesD.leaked)
	}

	if !o.trace {
		rows := 0
		for _, q := range w.queries {
			rows += q.rows
		}
		// Every row reaches each query that shares its chain or its proxy at
		// nearly the same lag, so the tail is read where ten distinct
		// (node, window, group) flushes lie beyond it, not ten rows.
		tail := tailPercentile(int(w.lag.n) / spec.queries)
		res.add(Metric{Name: "setup_s", Value: setupS, Unit: "s", N: o.setups, Clock: "host",
			Detail: "ring build, query submission, dissemination settle"})
		res.add(Metric{Name: "wall_s", Value: wall.Seconds(), Unit: "s", Clock: "host",
			Detail: fmt.Sprintf("%s virtual, %d publishes", w.duration, w.publishes())})
		res.add(Metric{Name: "latency_ms_p50", Value: w.lag.quantileMS(0.5), Unit: "ms", N: int(w.lag.n), Clock: "virt",
			Detail: "result_lag_virt_ms_p50: newest event in a window to the row's delivery at the proxy"})
		res.add(Metric{Name: "latency_ms_tail", Value: w.lag.quantileMS(tail), Unit: "ms", N: int(w.lag.n), Clock: "virt",
			Detail: fmt.Sprintf("result_lag_virt_ms_p%g", tail*100)})
		res.add(Metric{Name: "net_mb", Value: mb(simD.bytes), Unit: "MB", Clock: "virt", Detail: "simulated bytes sent"})
		res.add(Metric{Name: "live_heap_mb", Value: heapMB, Unit: "MB", Detail: "after a forced GC at the mid-run barrier"})
		res.add(Metric{Name: "result_recall", Value: recall, Unit: "ratio", N: attempted})
		res.add(Metric{Name: "ops_per_s", Value: float64(rows) / wall.Seconds(), Unit: "1/s", N: rows, Clock: "host",
			Detail: "result rows delivered per host second"})
		return res, nil
	}

	res.add(Metric{Name: "trace.wall_s", Value: wall.Seconds(), Unit: "s", Clock: "host"})
	addHostCalibration(res, o)
	addSimLayer(res, tr, simD)
	addOverlayLayer(res, tr, nodesD)
	addQPLayer(res, tr, nodesD, nodesAll, w.publishes())
	addGoLayer(res, goD, simD.events)
	res.put("qp.submit_us_per_query", float64(w.submitHost.Microseconds())/float64(len(w.plans)), "us")
	addPlanReplays(res, o, w.plans, w.planTexts)
	addTupleReplays(res, o, w.sample)
	addExecReplays(res, o, w.sample)

	// The same workload under the sharded scheduler must deliver the same
	// rows at the same virtual instants, bit for bit.
	w2, err := setupNetmon(spec, o, 2, nil)
	if err != nil {
		return nil, fmt.Errorf("workers=2: %w", err)
	}
	wall2, _ := w2.measure()
	_, _, _, digest2, _ := w2.check()
	res.put("sim.sharded_w2_run_s", wall2.Seconds(), "s")
	if digest2 != digest {
		res.fail("workers=2 result digest %016x differs from the sequential %016x", digest2, digest)
	}
	path, err := tr.write(o.outDir, spec.name, o.seed)
	if err != nil {
		return nil, err
	}
	res.Info = append(res.Info, "trace: "+path)
	return res, nil
}
