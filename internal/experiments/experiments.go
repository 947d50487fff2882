// Package experiments contains the harnesses that regenerate the
// paper's figures and the ablation studies for its design choices. Both
// the bench_test.go targets at the repository root and cmd/experiments
// call into this package; EXPERIMENTS.md records paper-vs-measured for
// each harness.
//
// The paper's measurable artifacts:
//
//   - Figure 1 — CDF of first-result latency for PIER (rare items) vs
//     Gnutella (all queries) vs Gnutella (rare items), from the hybrid
//     filesharing study on PlanetLab. RunFigure1 reproduces it in the
//     Simulation Environment with a Zipf catalog.
//   - Figure 2 — the top-10 sources of firewall events across all nodes,
//     from the endpoint network monitoring application. RunFigure2
//     reproduces it with a heavy-tailed synthetic event stream and the
//     SQL frontend's two-phase aggregation plan.
//
// Tables 1 and 2 are API listings; they are "reproduced" by the vri and
// overlay interface definitions and asserted by surface tests.
//
// Every harness follows the sharded scheduler's discipline (see the
// sharded-safe harness rules in ROADMAP.md): node-side callbacks write
// only per-node collectors (qp.ResultSet, per-query hit slots), the
// driver drains them between Env.Run calls, and all driver scheduling
// and randomness stay in driver context. Each config therefore takes a
// Workers knob, and results are bit-identical for any worker count —
// sharded_determinism_test.go diffs workers=0 against workers=8 for
// every harness.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pier/internal/gnutella"
	"pier/internal/metrics"
	"pier/internal/qp"
	"pier/internal/sim"
	"pier/internal/sqlfront"
	"pier/internal/tuple"
	"pier/internal/workload"
)

// clusterConfig returns the PIER node configuration for an n-node
// cluster. Experiments publish corpora once and query for (virtual)
// hours, so the system max lifetime stays above any horizon. At paper
// scale (>= 512 nodes) per-node ring maintenance is slowed: aggregate
// maintenance traffic grows with n regardless, and the default
// small-deployment rates would make a 10k-node simulation spend nearly
// all of its events on finger refresh.
func clusterConfig(n int) qp.Config {
	cfg := qp.Config{}
	cfg.DHT.MaxLifetime = 24 * time.Hour
	if n >= 512 {
		// Stabilization stays at 1s: it is the successor-absorption
		// engine during batched joins, and slowing it further lets the
		// join backlog outrun convergence (observed at 10k as half the
		// ring without predecessors and lookups that disagree on key
		// ownership). Finger refresh is the multi-hop (expensive) one.
		cfg.DHT.Router.StabilizeInterval = time.Second
		cfg.DHT.Router.FixFingerInterval = time.Second
		cfg.DHT.Router.CheckPredInterval = 4 * time.Second
		cfg.DHT.SweepInterval = 4 * time.Second
		cfg.TreeRefresh = 15 * time.Second
	}
	return cfg
}

// BuildCluster spawns n PIER nodes in env, joins them in staggered
// batches through node 0, and runs the simulation until the overlay and
// distribution tree have had time to converge. It is sharded-safe: join
// retries are scheduled on the joining node itself, and the driver only
// inspects node state between runs.
func BuildCluster(env *sim.Env, n int, prefix string) []*qp.Node {
	return BuildClusterWith(env, n, prefix, nil)
}

// BuildClusterWith is BuildCluster with a config hook: tweak (if
// non-nil) edits the scale-derived clusterConfig before any node is
// built — scenarios use it to set qp.Config.NumTrees without this
// package growing a knob per Config field.
func BuildClusterWith(env *sim.Env, n int, prefix string, tweak func(*qp.Config)) []*qp.Node {
	sims := env.SpawnN(prefix, n)
	nodes := make([]*qp.Node, n)
	cfg := clusterConfig(n)
	if tweak != nil {
		tweak(&cfg)
	}
	for i, s := range sims {
		nodes[i] = qp.NewNode(s, cfg)
		if err := nodes[i].Start(); err != nil {
			panic(err)
		}
	}
	// Staggered concurrent joins: Chord absorbs batches via
	// stabilization far faster than strictly sequential joining. A join
	// whose bootstrap lookup times out (the young ring is busy absorbing
	// its batch) retries until it succeeds — a node that silently stays
	// a singleton would corrupt every later measurement.
	var joinWithRetry func(i, attempt int)
	joinWithRetry = func(i, attempt int) {
		nodes[i].Join(nodes[0].Addr(), func(err error) {
			if err != nil && attempt < 10 {
				nodes[i].Runtime().Schedule(2*time.Second, func() {
					joinWithRetry(i, attempt+1)
				})
			}
		})
	}
	// Batch size grows with the CURRENT ring size, not the target: a
	// young ring can only absorb joiners at the rate stabilization walks
	// successor chains, so flooding the initial 8-node ring with n/50
	// joiners builds chains it never catches up with (observed at 10k
	// as a permanently half-converged ring). Geometric growth keeps the
	// per-arc chain depth bounded while still reaching 10k nodes in
	// ~50 rounds.
	for joined := 1; joined < n; {
		batch := joined / 2
		if batch < 8 {
			batch = 8
		}
		if batch > 256 {
			batch = 256
		}
		for j := joined; j < joined+batch && j < n; j++ {
			joinWithRetry(j, 0)
		}
		env.Run(4 * time.Second)
		joined += batch
	}
	settle := n / 4
	if settle > 180 {
		settle = 180 // the quiesce loop below does the real convergence work
	}
	env.Run(time.Duration(settle)*time.Second + 30*time.Second)
	// Quiesce: every node must know a successor other than itself and a
	// predecessor (so ownership arcs cover the ring), and hold enough
	// long-range routing entries that lookups complete within their
	// timeout. Stragglers whose joins all timed out are re-joined.
	fingerFloor := 2
	for 1<<uint(fingerFloor+1) < n {
		fingerFloor++
	}
	if fingerFloor > 1 {
		fingerFloor-- // log2(n)-1 distinct long-range entries per node
	}
	for settle := 0; settle < 40; settle++ {
		unsettled := 0
		for _, nd := range nodes[1:] {
			d := nd.DHT()
			if d.Successor() == nd.Addr() {
				unsettled++
				joinWithRetry(indexOf(nodes, nd), 0)
				continue
			}
			if d.Predecessor() == "" || d.FingerCount() < fingerFloor {
				unsettled++
			}
		}
		if unsettled == 0 {
			break
		}
		env.Run(15 * time.Second)
	}
	return nodes
}

func indexOf(nodes []*qp.Node, nd *qp.Node) int {
	for i := range nodes {
		if nodes[i] == nd {
			return i
		}
	}
	return 0
}

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

// Figure1Config parameterizes the filesharing comparison.
type Figure1Config struct {
	// Nodes is the deployment size; the paper used 50 PlanetLab nodes.
	Nodes int
	// Queries per series; the paper replayed real Gnutella queries.
	Queries int
	Catalog workload.CatalogConfig
	// Workers is the scheduler's worker shard count: 0 or 1 = one shard
	// on the calling goroutine, k > 1 = k worker goroutines (identical
	// results for any k).
	Workers int
	// Warm selects the cluster warm-start path (checkpoint save/load).
	Warm WarmStart
	Seed int64
}

func (c *Figure1Config) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 50
	}
	if c.Queries <= 0 {
		c.Queries = 200
	}
	if c.Catalog.NumFiles == 0 {
		c.Catalog = workload.CatalogConfig{
			NumFiles:    300,
			VocabSize:   120,
			ZipfS:       1.0,
			MaxReplicas: c.Nodes / 2,
			RareMax:     3,
			Seed:        c.Seed + 1,
		}
	}
}

const (
	// fig1GnutellaTTL bounds flooding. The classic TTL of 7 covers a real
	// million-node network only fractionally; at simulation scale the TTL
	// is scaled down so the flood horizon covers a comparable fraction of
	// the network.
	fig1GnutellaTTL = 2
	// fig1GnutellaDegree is the random-graph degree.
	fig1GnutellaDegree = 3
	// fig1QueryTimeout declares a query missed if no result arrived.
	fig1QueryTimeout = 30 * time.Second
)

// Figure1Result carries the three CDF series of the figure.
type Figure1Result struct {
	PierRare     *metrics.LatencyRecorder
	GnutellaAll  *metrics.LatencyRecorder
	GnutellaRare *metrics.LatencyRecorder
	// Messages sent per system during the query phase.
	PierMsgs, GnutellaMsgs uint64
}

// Render formats the result like the paper's plot, sampled on a grid.
func (r Figure1Result) Render() string {
	grid := []time.Duration{
		250 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
		15 * time.Second, 30 * time.Second,
	}
	return metrics.RenderCDFTable(grid, map[string]*metrics.LatencyRecorder{
		"PIER(rare)":     r.PierRare,
		"Gnutella(all)":  r.GnutellaAll,
		"Gnutella(rare)": r.GnutellaRare,
	}, []string{"PIER(rare)", "Gnutella(all)", "Gnutella(rare)"})
}

// hitSlot is the per-query collector for first-hit measurements. It is
// written only by events on the query's origin node (which stamps its
// own clock) and read by the driver after the query window — the
// per-node-collector pattern that keeps the harness sharded-safe.
type hitSlot struct {
	got bool
	at  time.Time
}

// RunFigure1 executes the full comparison in one simulation: the same
// nodes run both a PIER overlay (with the file index published as a
// distributed hash index) and a Gnutella flood network (sharing the same
// files), and the three query series of the figure are replayed.
func RunFigure1(cfg Figure1Config) Figure1Result {
	cfg.fill()
	env := sim.NewEnv(sim.Options{Seed: cfg.Seed})
	env.SetWorkers(cfg.Workers)
	nodes := buildOrRestore(env, cfg.Nodes, "n", cfg.Warm)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))

	// Gnutella peers co-located on the same simulated hosts.
	peers := make([]*gnutella.Peer, len(nodes))
	for i, n := range nodes {
		p, err := gnutella.NewPeer(n.Runtime(), gnutella.Config{DefaultTTL: fig1GnutellaTTL})
		if err != nil {
			panic(err)
		}
		peers[i] = p
	}
	gnutella.WireRandomGraph(peers, fig1GnutellaDegree, rng)

	// Content placement: each file is shared by Replicas distinct nodes;
	// Gnutella indexes it locally, PIER publishes (keyword → file) into
	// the DHT's primary hash index on keyword.
	cat := workload.NewCatalog(cfg.Catalog)
	for _, f := range cat.Files {
		hosts := rng.Perm(len(nodes))[:min(f.Replicas, len(nodes))]
		for _, h := range hosts {
			peers[h].Share(f.Name, f.Keywords)
			for _, kw := range f.Keywords {
				nodes[h].Publish("fileindex", []string{"keyword"},
					tuple.New("fileindex").
						Set("keyword", tuple.String(kw)).
						Set("file", tuple.String(f.Name)).
						Set("host", tuple.String(string(nodes[h].Addr()))),
					4*time.Hour, nil)
			}
		}
	}
	env.Run(60 * time.Second) // let publishes land

	res := Figure1Result{
		PierRare:     &metrics.LatencyRecorder{},
		GnutellaAll:  &metrics.LatencyRecorder{},
		GnutellaRare: &metrics.LatencyRecorder{},
	}
	mix := workload.NewQueryMix(cat, cfg.Seed+13)

	_, msgs0, _ := env.Stats()

	// Gnutella series: flood, record first hit, time out as a miss. The
	// hit callback runs on the origin node and writes only the query's
	// slot (stamping the origin's clock, exact under both schedulers);
	// the recorders are driver-owned and written between runs.
	runGnutella := func(rec *metrics.LatencyRecorder, rare bool) {
		for q := 0; q < cfg.Queries; q++ {
			var keywords []string
			if rare {
				keywords, _ = mix.NextRare()
			} else {
				keywords, _ = mix.Next()
			}
			oi := rng.Intn(len(peers))
			origin, originRT := peers[oi], nodes[oi].Runtime()
			start := env.Now()
			slot := &hitSlot{}
			id := origin.Search(keywords, func(gnutella.Hit) {
				if !slot.got {
					slot.got = true
					slot.at = originRT.Now()
				}
			})
			runUntil(env, fig1QueryTimeout, func() bool { return slot.got })
			origin.Cancel(id)
			if slot.got {
				rec.Record(slot.at.Sub(start))
			} else {
				rec.Miss()
			}
		}
	}
	runGnutella(res.GnutellaAll, false)
	runGnutella(res.GnutellaRare, true)
	_, msgs1, _ := env.Stats()
	res.GnutellaMsgs = msgs1 - msgs0

	// PIER series: equality-disseminated index lookups on rare keywords,
	// collected per-query at the proxy node by a qp.ResultSet.
	opts := sqlfront.Options{TableIndexes: map[string][]string{"fileindex": {"keyword"}}}
	for q := 0; q < cfg.Queries; q++ {
		keywords, _ := mix.NextRare()
		kw := keywords[1] // the file's unique keyword: the hard lookup
		origin := nodes[rng.Intn(len(nodes))]
		plan, err := sqlfront.Run(fmt.Sprintf("fig1-%d", q),
			fmt.Sprintf("SELECT file, host FROM fileindex WHERE keyword = '%s' TIMEOUT %s", kw, fig1QueryTimeout),
			opts)
		if err != nil {
			panic(err)
		}
		start := env.Now()
		rs, err := origin.SubmitCollect(plan, "fig1")
		if err != nil {
			panic(err)
		}
		runUntil(env, fig1QueryTimeout, func() bool { return rs.Len() > 0 })
		if at, ok := rs.FirstAt(); ok {
			res.PierRare.Record(at.Sub(start))
		} else {
			res.PierRare.Miss()
		}
		// Let the query's timeout state clear before reusing resources.
		env.Run(time.Second)
	}
	_, msgs2, _ := env.Stats()
	res.PierMsgs = msgs2 - msgs1
	return res
}

// ---------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------

// Figure2Config parameterizes the firewall-log aggregation.
type Figure2Config struct {
	// Nodes is the deployment size; the paper used 350 PlanetLab nodes.
	// The sharded scheduler runs it at the paper's "Internet scale":
	// experiments -fig 2 -nodes 10000 -workers 8.
	Nodes int
	// EventsPerNode is the firewall log size at each node.
	EventsPerNode int
	// Sources is the source-IP population.
	Sources int
	// K is the report size (10 in the figure).
	K int
	// Workers is the scheduler's worker shard count: 0 or 1 = one shard
	// on the calling goroutine, k > 1 = k worker goroutines (identical
	// results for any k).
	Workers int
	// Warm selects the cluster warm-start path (checkpoint save/load).
	Warm WarmStart
	Seed int64
}

func (c *Figure2Config) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 350
	}
	if c.EventsPerNode <= 0 {
		c.EventsPerNode = 40
	}
	if c.Sources <= 0 {
		c.Sources = 400
	}
	if c.K <= 0 {
		c.K = 10
	}
}

// Figure2Row is one bar of the figure.
type Figure2Row struct {
	Src   string
	Count int64
}

// Figure2Result compares the distributed answer to ground truth.
type Figure2Result struct {
	Got   []Figure2Row
	Truth []Figure2Row
	// Events and Msgs are simulator-wide totals — part of the result so
	// determinism tests can diff the whole run, not just the ranking.
	Events, Msgs uint64
}

// Render formats the two rankings side by side.
func (r Figure2Result) Render() string {
	out := fmt.Sprintf("%-4s %-18s %8s   %-18s %8s\n", "rank", "PIER source", "count", "truth source", "count")
	for i := range r.Truth {
		g := Figure2Row{}
		if i < len(r.Got) {
			g = r.Got[i]
		}
		out += fmt.Sprintf("%-4d %-18s %8d   %-18s %8d\n", i+1, g.Src, g.Count, r.Truth[i].Src, r.Truth[i].Count)
	}
	return out
}

// TopOverlap returns how many of the true top-k appear in the answer.
func (r Figure2Result) TopOverlap() int {
	in := map[string]bool{}
	for _, g := range r.Got {
		in[g.Src] = true
	}
	n := 0
	for _, t := range r.Truth {
		if in[t.Src] {
			n++
		}
	}
	return n
}

// RunFigure2 loads every node with a heavy-tailed firewall log and runs
// the paper's query — the top K sources of firewall events across all
// nodes — through the SQL frontend's two-phase aggregation plan.
func RunFigure2(cfg Figure2Config) Figure2Result {
	cfg.fill()
	env := sim.NewEnv(sim.Options{Seed: cfg.Seed})
	env.SetWorkers(cfg.Workers)
	nodes := buildOrRestore(env, cfg.Nodes, "n", cfg.Warm)
	gen := workload.NewFirewallGen(cfg.Seed+3, cfg.Sources, 1.2)

	truth := map[string]int64{}
	for _, n := range nodes {
		for e := 0; e < cfg.EventsPerNode; e++ {
			ev := gen.Next(env.Now())
			truth[ev.Src]++
			n.PublishLocal("fwlogs", tuple.New("fwlogs").
				Set("src", tuple.String(ev.Src)).
				Set("dstport", tuple.Int(int64(ev.DstPort))).
				Set("severity", tuple.Int(int64(ev.Severity))), 4*time.Hour)
		}
	}

	plan, err := sqlfront.Run("fig2",
		fmt.Sprintf("SELECT src, COUNT(*) AS cnt FROM fwlogs GROUP BY src ORDER BY cnt DESC LIMIT %d TIMEOUT 40s", cfg.K),
		sqlfront.Options{})
	if err != nil {
		panic(err)
	}
	var res Figure2Result
	rs, err := nodes[0].SubmitCollect(plan, "fig2")
	if err != nil {
		panic(err)
	}
	env.Run(50 * time.Second)
	for _, t := range rs.Rows() {
		src, _ := t.Get("src")
		cnt, _ := t.Get("cnt")
		c, _ := cnt.AsInt()
		res.Got = append(res.Got, Figure2Row{Src: src.String(), Count: c})
	}

	for src, c := range truth {
		res.Truth = append(res.Truth, Figure2Row{Src: src, Count: c})
	}
	sort.Slice(res.Truth, func(i, j int) bool {
		if res.Truth[i].Count != res.Truth[j].Count {
			return res.Truth[i].Count > res.Truth[j].Count
		}
		return res.Truth[i].Src < res.Truth[j].Src
	})
	if len(res.Truth) > cfg.K {
		res.Truth = res.Truth[:cfg.K]
	}
	res.Events, res.Msgs, _ = env.Stats()
	return res
}

// runUntil advances the simulation in steps until cond is true or max
// virtual time has elapsed — so hits return promptly and only misses pay
// the full timeout. cond is evaluated in driver context (all workers
// parked), so it may read per-node collector state. The final step is
// clamped to the remaining time: a max that is not a multiple of the
// step must still mean what it says, mirroring the scheduler-level
// RunUntil deadline fix (a harness timeout overrun skews miss latencies
// and every measurement window downstream).
func runUntil(env *sim.Env, max time.Duration, cond func() bool) {
	const step = 500 * time.Millisecond
	deadline := env.Now().Add(max)
	for env.Now().Before(deadline) && !cond() {
		d := step
		if remaining := deadline.Sub(env.Now()); remaining < d {
			d = remaining
		}
		env.Run(d)
	}
}
