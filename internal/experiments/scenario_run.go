package experiments

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"time"

	"pier/internal/gnutella"
	"pier/internal/metrics"
	"pier/internal/overlay"
	"pier/internal/qp"
	"pier/internal/sim"
	"pier/internal/sqlfront"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
	"pier/internal/workload"
)

// Scenario runner: executes a parsed ScenarioSpec and evaluates its
// assertion block. The run follows the sharded-safe harness discipline
// throughout — the timed event script runs as environment-level events
// (dispatched alone at window barriers), node callbacks write only
// per-query collectors, and all driver randomness comes from driver
// streams — so the full report, including the event timeline and every
// latency figure, is bit-identical at any worker count. The report never
// mentions the worker count for exactly that reason.

// ScenarioOutcome is the deterministic result of one scenario run.
type ScenarioOutcome struct {
	// Report is the full human-readable report, including one
	// PASS/FAIL line per assertion and a final RESULT line.
	Report string
	// Passed is false if any assertion failed.
	Passed bool
}

// lookupSlot tracks one one-shot lookup end to end.
type scenLookup struct {
	rs        *qp.ResultSet
	submitted time.Time
}

// gnuSlot tracks one flash-crowd search; hit/at are written only by
// events on the origin node (per-node collector), read by the driver
// after the run.
type gnuSlot struct {
	hit       bool
	at        time.Time
	submitted time.Time
}

type scenarioRun struct {
	spec  ScenarioSpec
	env   *sim.Env
	nodes []*qp.Node
	// addrToQP maps every qp-backed address (initial ring + respawns)
	// to its node; bootstrap is spec-protected from kills.
	addrToQP map[vri.Addr]*qp.Node
	respawns int
	rng      *rand.Rand
	base     time.Time
	timeline []string

	aggSets        []*qp.ResultSet
	scenQueries    int // continuous-agg queries submitted (unique plan names across entries)
	rowsAtLastHeal int
	healed         bool

	lookups []*scenLookup
	lookRec *metrics.LatencyRecorder

	gnuSlots []*gnuSlot

	// truth is each seeded fixture's ground truth, by workload kind.
	truth     map[string]map[string]int64
	ablations []*ablationRun
}

func (r *scenarioRun) tl(format string, args ...any) {
	r.timeline = append(r.timeline,
		fmt.Sprintf("  [+%v] %s", r.env.Now().Sub(r.base), fmt.Sprintf(format, args...)))
}

func (r *scenarioRun) aggRows() int {
	total := 0
	for _, rs := range r.aggSets {
		total += rs.Len()
	}
	return total
}

// liveQP returns the qp-backed live addresses in canonical order,
// sampling from Env.LiveAddrs (sorted — the canonical-ordering contract
// the LiveAddrs bugfix restored).
func (r *scenarioRun) liveQP() []vri.Addr {
	var out []vri.Addr
	for _, a := range r.env.LiveAddrs() {
		if _, ok := r.addrToQP[a]; ok {
			out = append(out, a)
		}
	}
	return out
}

func scenarioTopology(spec ScenarioSpec) sim.Topology {
	if spec.Topology.Kind == "transit-stub" {
		return sim.NewTransitStub(sim.TransitStubConfig{Seed: spec.Seed + 5})
	}
	return sim.NewStar(sim.StarConfig{
		MinAccess: spec.Topology.MinAccess,
		MaxAccess: spec.Topology.MaxAccess,
		Seed:      spec.Seed + 5,
	})
}

// RunScenario executes the scenario and evaluates its assertions.
func RunScenario(spec ScenarioSpec, workers int) ScenarioOutcome {
	env := sim.NewEnv(sim.Options{
		Seed:     spec.Seed,
		LossRate: spec.Network.LossRate,
		Topology: scenarioTopology(spec),
	})
	env.SetWorkers(workers)
	nodes := BuildClusterWith(env, spec.Nodes, "s", func(cfg *qp.Config) {
		cfg.NumTrees = spec.Trees
	})
	r := &scenarioRun{
		spec:     spec,
		env:      env,
		nodes:    nodes,
		addrToQP: make(map[vri.Addr]*qp.Node, len(nodes)),
		rng:      rand.New(rand.NewSource(spec.Seed + 21)),
		lookRec:  &metrics.LatencyRecorder{},
		truth:    map[string]map[string]int64{},
	}
	for _, n := range nodes {
		r.addrToQP[n.Addr()] = n
		if spec.MaxGraphsPerClient > 0 {
			n.SetMaxGraphsPerClient(spec.MaxGraphsPerClient)
		}
	}

	// Workload fixtures that must exist before the clock starts: the
	// lookup key table, the gnutella catalog and the §3.3.4 tables.
	var peers []*gnutella.Peer
	var mix *workload.QueryMix
	needsSettle := false
	for _, wl := range spec.Workloads {
		switch wl.Kind {
		case "lookups":
			for j := 0; j < wl.Keys; j++ {
				nodes[j%len(nodes)].Publish("kv", []string{"key"},
					tuple.New("kv").
						Set("key", tuple.String(fmt.Sprintf("key-%03d", j))).
						Set("val", tuple.String(fmt.Sprintf("val-%d", j))),
					4*time.Hour, nil)
			}
			needsSettle = true
		case "gnutella-flood":
			peers = make([]*gnutella.Peer, len(nodes))
			for i, n := range nodes {
				p, err := gnutella.NewPeer(n.Runtime(), gnutella.Config{DefaultTTL: wl.TTL})
				if err != nil {
					panic(err)
				}
				peers[i] = p
			}
			gnutella.WireRandomGraph(peers, wl.Degree, r.rng)
			cat := workload.NewCatalog(workload.CatalogConfig{
				NumFiles: 40, VocabSize: 30, ZipfS: 1.0,
				MaxReplicas: len(nodes) / 2, RareMax: 2, Seed: spec.Seed + 31,
			})
			for _, f := range cat.Files {
				hosts := r.rng.Perm(len(nodes))[:min(f.Replicas, len(nodes))]
				for _, h := range hosts {
					peers[h].Share(f.Name, f.Keywords)
				}
			}
			mix = workload.NewQueryMix(cat, spec.Seed+37)
			needsSettle = true
		case "hier-agg", "join":
			r.truth[wl.Kind] = seedFixture(wl.Kind, nodes)
			needsSettle = true
		}
	}
	if needsSettle {
		env.Run(10 * time.Second) // let publishes land before the horizon
	}

	// The measurement horizon starts here; the event script and every
	// workload time are relative to base.
	r.base = env.Now()
	for _, wl := range spec.Workloads {
		r.armWorkload(wl, peers, mix)
	}
	for _, ev := range spec.Events {
		r.armEvent(ev)
	}

	env.Run(spec.Duration)
	for _, a := range r.ablations {
		msgs, bytes := a.traffic(env)
		a.msgs, a.bytes = msgs-a.msgs, bytes-a.bytes
	}
	env.Run(spec.Teardown)
	return r.evaluate()
}

// armWorkload schedules one workload's driver events.
func (r *scenarioRun) armWorkload(wl WorkloadSpec, peers []*gnutella.Peer, mix *workload.QueryMix) {
	env, spec := r.env, r.spec
	switch wl.Kind {
	case "continuous-agg":
		// Q continuous counts over fwlogs (wl.Shapes structural
		// variants under wl.Clients client identities), submitted at
		// wl.Start (one dissemination batch per proxy — a delayed entry
		// is a mid-run burst against already-shared chains), publishers
		// armed with a lead so every graph is live before the first
		// event lands.
		const lead = 2 * time.Second
		wl := wl
		submit := func() {
			timeout := spec.Duration - wl.Start + time.Second
			for i := 0; i < wl.Queries; i++ {
				r.scenQueries++
				client := wl.Client
				if wl.Clients > 1 {
					client = fmt.Sprintf("%s-%d", wl.Client, i%wl.Clients)
				}
				plan := continuousAggPlan(fmt.Sprintf("scen%d", r.scenQueries),
					i%wl.Shapes, wl.FlushEvery, timeout)
				rs, err := r.nodes[i%len(r.nodes)].SubmitCollect(plan, client)
				if err != nil {
					panic(err)
				}
				r.aggSets = append(r.aggSets, rs)
			}
		}
		if wl.Start > 0 {
			env.Schedule(wl.Start, submit)
		} else {
			submit()
		}
		if wl.EventsPerNode > 0 {
			window := spec.Duration - lead - time.Second
			if window < time.Second {
				window = time.Second
			}
			interval := window / time.Duration(wl.EventsPerNode)
			for i, n := range r.nodes {
				p := &firewallPublisher{
					n:        n,
					gen:      workload.NewFirewallGen(spec.Seed+100+int64(i), wl.Sources, 1.2),
					interval: interval,
					left:     wl.EventsPerNode,
				}
				p.tickFn = p.tick
				n.Runtime().Schedule(lead+time.Duration(i*131)*time.Microsecond, p.tickFn)
			}
		}
	case "lookups":
		opts := sqlfront.Options{TableIndexes: map[string][]string{"kv": {"key"}}}
		for i := 0; i < wl.Count; i++ {
			i := i
			env.Schedule(wl.Start+time.Duration(i)*wl.Interval, func() {
				live := r.liveQP()
				origin := r.addrToQP[live[r.rng.Intn(len(live))]]
				key := fmt.Sprintf("key-%03d", (i*7)%wl.Keys)
				plan, err := sqlfront.Run(fmt.Sprintf("look%d", i),
					fmt.Sprintf("SELECT val FROM kv WHERE key = '%s' TIMEOUT %s", key, wl.Timeout), opts)
				if err != nil {
					panic(err)
				}
				rs, err := origin.SubmitCollect(plan, "scenario-lookup")
				if err != nil {
					panic(err)
				}
				r.lookups = append(r.lookups, &scenLookup{rs: rs, submitted: env.Now()})
			})
		}
	case "hier-agg", "join":
		a := &ablationRun{wl: wl}
		origin := r.nodes[0]
		switch wl.Strategy {
		case "direct":
			a.root, origin = ownerOf(r.nodes, "agg.partial", "all"), r.nodes[1]
		case "hierarchical":
			a.root, origin = ownerOf(r.nodes, "agg.tree", "root"), r.nodes[1]
		}
		a.msgs, a.bytes = a.traffic(env)
		rs, err := origin.SubmitCollect(ufl.MustParse(ablationPlans[wl.Kind][wl.Strategy]), "scenario")
		if err != nil {
			panic(err)
		}
		a.rs = rs
		r.ablations = append(r.ablations, a)
	case "gnutella-flood":
		wl := wl
		env.Schedule(wl.At, func() {
			live := r.liveQP()
			liveIdx := make(map[vri.Addr]bool, len(live))
			for _, a := range live {
				liveIdx[a] = true
			}
			type pending struct {
				oi int
				id string
			}
			var open []pending
			for q := 0; q < wl.Count; q++ {
				oi := r.rng.Intn(len(r.nodes))
				if !liveIdx[r.nodes[oi].Addr()] {
					continue // flash crowds don't originate at dead hosts
				}
				keywords, _ := mix.Next()
				slot := &gnuSlot{submitted: env.Now()}
				originRT := r.nodes[oi].Runtime()
				id := peers[oi].Search(keywords, func(gnutella.Hit) {
					if !slot.hit {
						slot.hit = true
						slot.at = originRT.Now()
					}
				})
				r.gnuSlots = append(r.gnuSlots, slot)
				open = append(open, pending{oi: oi, id: id})
			}
			r.tl("gnutella flash crowd: %d searches", len(open))
			env.Schedule(wl.Timeout, func() {
				for _, p := range open {
					peers[p.oi].Cancel(p.id)
				}
			})
		})
	}
}

// continuousAggPlan renders one continuous count over the fwlogs
// stream, the plan every continuous-agg query runs; the report's
// "sharing:" line counts what the runtime shares across them. Shape 0 is
// the plain count; shape s > 0 inserts a Select whose predicate constant
// differs per shape — structurally distinct (distinct subtree
// signatures) while still passing every event (ports top out at 3389),
// so result completeness is shape-independent.
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

// armEvent schedules one failure-injection event. All mutations run as
// environment-level events: the coordinator dispatches them alone
// between windows, which is exactly the driver context the sim's
// override and Fail APIs require.
func (r *scenarioRun) armEvent(ev EventSpec) {
	env, spec := r.env, r.spec
	switch ev.Action {
	case "partition":
		env.Schedule(ev.At, func() {
			group := make([]vri.Addr, 0, ev.First)
			for _, n := range r.nodes[:min(ev.First, len(r.nodes))] {
				group = append(group, n.Addr())
			}
			env.SetPartition(group)
			r.tl("partition: first %d nodes isolated", len(group))
		})
		if ev.HealAfter > 0 {
			env.Schedule(ev.At+ev.HealAfter, func() {
				env.HealPartition()
				r.rowsAtLastHeal = r.aggRows()
				r.healed = true
				r.tl("partition healed (result rows so far: %d)", r.rowsAtLastHeal)
			})
		}
	case "kill":
		env.Schedule(ev.At, func() {
			bootstrap := r.nodes[0].Addr()
			var candidates []vri.Addr
			for _, a := range r.liveQP() {
				if a != bootstrap {
					candidates = append(candidates, a)
				}
			}
			if ev.Interior {
				// Restrict the victim pool to interior dissemination-tree
				// nodes — the ones whose death orphans a subtree, which is
				// what a tree-repair scenario wants to exercise. Reading
				// TreeChildren here is driver context (all workers parked).
				// If the trees are too flat to supply enough interior
				// victims, fall back to the full pool rather than under-
				// killing the requested count.
				var interior []vri.Addr
				for _, a := range candidates {
					if r.addrToQP[a].TreeChildren() > 0 {
						interior = append(interior, a)
					}
				}
				want := ev.Count
				if want <= 0 {
					want = int(ev.Fraction*float64(len(candidates)) + 0.5)
				}
				if len(interior) >= want {
					candidates = interior
				}
			}
			k := ev.Count
			if k <= 0 {
				k = int(ev.Fraction*float64(len(candidates)) + 0.5)
			}
			if k > len(candidates) {
				k = len(candidates)
			}
			victims := make([]vri.Addr, 0, k)
			for j := 0; j < k; j++ {
				vi := env.Rand().Intn(len(candidates))
				victims = append(victims, candidates[vi])
				candidates = append(candidates[:vi], candidates[vi+1:]...)
			}
			sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
			for _, a := range victims {
				env.Fail(a)
			}
			names := make([]string, len(victims))
			for i, a := range victims {
				names[i] = string(a)
			}
			r.tl("kill: %s", strings.Join(names, " "))
			if ev.RespawnAfter > 0 {
				n := len(victims)
				env.Schedule(ev.RespawnAfter, func() {
					for j := 0; j < n; j++ {
						r.respawn()
					}
					// A respawn is a recovery point like a partition heal:
					// rows arriving after it prove the query plane healed.
					r.rowsAtLastHeal = r.aggRows()
					r.healed = true
					r.tl("respawn: %d replacement nodes joining (result rows so far: %d)", n, r.rowsAtLastHeal)
				})
			}
		})
	case "link-loss":
		a := r.nodes[ev.A%len(r.nodes)].Addr()
		b := r.nodes[ev.B%len(r.nodes)].Addr()
		env.Schedule(ev.At, func() {
			env.SetLinkOverride(a, b, ev.ExtraLatency, ev.Loss)
			r.tl("link-loss %s<->%s: loss=%.2f extra-latency=%v", a, b, ev.Loss, ev.ExtraLatency)
		})
		if ev.ClearAfter > 0 {
			env.Schedule(ev.At+ev.ClearAfter, func() {
				env.SetLinkOverride(a, b, 0, 0)
				r.tl("link-loss %s<->%s cleared", a, b)
			})
		}
	case "malformed-flood":
		env.Schedule(ev.At, func() {
			live := r.liveQP()
			for j := 0; j < ev.Floods; j++ {
				n := r.addrToQP[live[r.rng.Intn(len(live))]]
				n.DHT().PutLocal("fwlogs", "", fmt.Sprintf("scenario-garbage-%d", j),
					[]byte(fmt.Sprintf("\xff\xfenot-a-tuple-%d", j)), time.Hour)
			}
			r.tl("malformed-flood: %d undecodable objects stored", ev.Floods)
		})
	}
	_ = spec
}

// respawn spawns a replacement node and joins it through the bootstrap,
// with the same bounded retry BuildCluster uses.
func (r *scenarioRun) respawn() {
	r.respawns++
	sn := r.env.Spawn(fmt.Sprintf("r-%d", r.respawns))
	cfg := clusterConfig(r.spec.Nodes)
	cfg.NumTrees = r.spec.Trees
	nd := qp.NewNode(sn, cfg)
	if r.spec.MaxGraphsPerClient > 0 {
		nd.SetMaxGraphsPerClient(r.spec.MaxGraphsPerClient)
	}
	if err := nd.Start(); err != nil {
		panic(err)
	}
	r.addrToQP[nd.Addr()] = nd
	var join func(attempt int)
	join = func(attempt int) {
		nd.Join(r.nodes[0].Addr(), func(err error) {
			if err != nil && attempt < 10 {
				nd.Runtime().Schedule(2*time.Second, func() { join(attempt + 1) })
			}
		})
	}
	join(0)
}

// evaluate drains every collector, renders the report, and checks the
// assertion block.
func (r *scenarioRun) evaluate() ScenarioOutcome {
	spec := r.spec
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: nodes=%d seed=%d topology=%s duration=%v loss-rate=%.3f\n",
		spec.Name, spec.Nodes, spec.Seed, spec.Topology.Kind, spec.Duration, spec.Network.LossRate)
	if len(r.timeline) > 0 {
		fmt.Fprintln(&b, "timeline:")
		for _, line := range r.timeline {
			fmt.Fprintln(&b, line)
		}
	}

	// Workload outcomes.
	aggDone := 0
	for _, rs := range r.aggSets {
		if rs.Done() {
			aggDone++
		}
	}
	aggRows := r.aggRows()
	recovered := aggRows - r.rowsAtLastHeal
	lookDone, lookHits := 0, 0
	for _, l := range r.lookups {
		if l.rs.Done() {
			lookDone++
		}
		if at, ok := l.rs.FirstAt(); ok {
			lookHits++
			r.lookRec.Record(at.Sub(l.submitted))
		} else {
			r.lookRec.Miss()
		}
	}
	gnuHits := 0
	for _, s := range r.gnuSlots {
		if s.hit {
			gnuHits++
		}
	}
	fmt.Fprintln(&b, "workloads:")
	if len(r.aggSets) > 0 {
		line := fmt.Sprintf("  continuous-agg: queries=%d done=%d result-rows=%d", len(r.aggSets), aggDone, aggRows)
		if r.healed {
			line += fmt.Sprintf(" rows-after-last-heal=%d", recovered)
		}
		fmt.Fprintln(&b, line)
	}
	if len(r.lookups) > 0 {
		line := fmt.Sprintf("  lookups: submitted=%d done=%d hits=%d misses=%d",
			len(r.lookups), lookDone, lookHits, len(r.lookups)-lookHits)
		for _, p := range []float64{50, 99} {
			if d, ok := r.lookRec.Percentile(p); ok {
				line += fmt.Sprintf(" p%.0f=%v", p, d)
			} else {
				line += fmt.Sprintf(" p%.0f=miss", p)
			}
		}
		fmt.Fprintln(&b, line)
	}
	if len(r.gnuSlots) > 0 {
		fmt.Fprintf(&b, "  gnutella-flood: searches=%d hits=%d\n", len(r.gnuSlots), gnuHits)
	}
	exact := 0
	for _, a := range r.ablations {
		line := fmt.Sprintf("  %s: strategy=%s rows=%d", a.wl.Kind, a.wl.Strategy, a.rs.Len())
		if a.wl.Kind == "hier-agg" {
			line += fmt.Sprintf(" root-msgs-in=%d root-bytes-in=%d", a.msgs, a.bytes)
		} else {
			line += fmt.Sprintf(" msgs=%d bytes=%d", a.msgs, a.bytes)
		}
		verdict := "wrong"
		if maps.Equal(a.answer(), r.truth[a.wl.Kind]) {
			verdict = "exact"
			exact++
		}
		fmt.Fprintf(&b, "%s answer=%s\n", line, verdict)
	}

	// Cluster state after teardown, over LIVE nodes only: a failed
	// node's counters are frozen mid-flight by design (Fail models a
	// crash, not a shutdown), so only survivors owe clean teardown.
	leakSubs, leakGraphs, leakSlots, liveCount := 0, 0, 0, 0
	leakSubtrees, leakAttach, leakClients, leakPending, leakHeld := 0, 0, 0, 0, 0
	var malformed, quotaRejects, rejected, rejectAcks uint64
	var sendRetries, sendExhausted, treeRepairs, treeReinjects, treeRejoins uint64
	var misplacedStores, transitDrops uint64
	var sh qp.NodeStats // the §3.3.2 sharing counters, summed
	clientRejects := map[string]uint64{}
	var dhts []*overlay.DHT
	for _, a := range r.liveQP() {
		st := r.addrToQP[a].Stats()
		dht := r.addrToQP[a].DHT()
		dhts = append(dhts, dht)
		misplacedStores += dht.MisplacedStores()
		transitDrops += dht.TransitDrops()
		liveCount++
		leakSubs += st.Subscriptions
		leakGraphs += st.LiveGraphs
		leakSlots += st.WheelSlots
		leakSubtrees += st.SharedSubtrees
		leakAttach += st.SubtreeAttachments
		leakClients += st.TrackedClients
		leakPending += st.PendingSends
		leakHeld += st.HeldRows
		malformed += st.MalformedDrops
		quotaRejects += st.ClientQuotaRejects
		rejected += st.GraphsRejected
		rejectAcks += st.RejectAcks
		sh.Decodes += st.Decodes
		sh.ChainFeeds += st.ChainFeeds
		sh.SubtreeBuilds += st.SubtreeBuilds
		sh.SubtreeHits += st.SubtreeHits
		sh.SharedExecFanout += st.SharedExecFanout
		sh.FlushTimerFires += st.FlushTimerFires
		sh.GraphFlushes += st.GraphFlushes
		sh.BatchFrames += st.BatchFrames
		sh.BatchedGraphs += st.BatchedGraphs
		sendRetries += st.SendRetries
		sendExhausted += st.SendExhausted
		treeRepairs += st.TreeRepairs
		treeReinjects += st.TreeReinjects
		treeRejoins += st.TreeRejoins
		for c, k := range st.ClientRejects {
			clientRejects[c] += k
		}
	}
	events, msgs, _ := r.env.Stats()
	fmt.Fprintf(&b, "cluster after teardown: live-nodes=%d malformed-drops=%d leaked-subscriptions=%d leaked-graphs=%d leaked-wheel-slots=%d leaked-subtrees=%d leaked-attachments=%d leaked-clients=%d leaked-pending-sends=%d\n",
		liveCount, malformed, leakSubs, leakGraphs, leakSlots, leakSubtrees, leakAttach, leakClients, leakPending)
	// The live nodes' ring as their routing state left it (Chord's
	// invariants; a partition that never re-merges reads cycles=2).
	fmt.Fprintf(&b, "ring: %v\n", overlay.CheckRing(dhts))
	fmt.Fprintf(&b, "reliability: send-retries=%d send-exhausted=%d tree-repairs=%d tree-reinjects=%d tree-rejoins=%d misplaced-stores=%d transit-drops=%d\n",
		sendRetries, sendExhausted, treeRepairs, treeReinjects, treeRejoins, misplacedStores, transitDrops)
	fmt.Fprintf(&b, "sharing: decodes=%d chain-feeds=%d subtree-builds=%d subtree-hits=%d shared-fanout=%d flush-fires=%d chain-flushes=%d dissem-frames=%d dissem-graphs=%d\n",
		sh.Decodes, sh.ChainFeeds, sh.SubtreeBuilds, sh.SubtreeHits, sh.SharedExecFanout,
		sh.FlushTimerFires, sh.GraphFlushes, sh.BatchFrames, sh.BatchedGraphs)
	if len(clientRejects) > 0 {
		cs := make([]string, 0, len(clientRejects))
		for c := range clientRejects {
			cs = append(cs, c)
		}
		sort.Strings(cs)
		parts := make([]string, 0, len(cs))
		for _, c := range cs {
			parts = append(parts, fmt.Sprintf("%s=%d", c, clientRejects[c]))
		}
		fmt.Fprintf(&b, "quota rejects: total=%d rejected=%d reject-acks=%d by client: %s\n",
			quotaRejects, rejected, rejectAcks, strings.Join(parts, " "))
	}
	fmt.Fprintf(&b, "traffic: events=%d msgs=%d\n", events, msgs)

	// Assertions, in a fixed order.
	passed := true
	check := func(name string, ok bool, detail string) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
			passed = false
		}
		fmt.Fprintf(&b, "assert %s: %s (%s)\n", name, verdict, detail)
	}
	a := spec.Assert
	totalQueries := len(r.aggSets) + len(r.lookups)
	totalDone := aggDone + lookDone
	if a.MinResultRows != nil {
		check(fmt.Sprintf("min-result-rows >= %d", *a.MinResultRows),
			aggRows >= *a.MinResultRows, fmt.Sprintf("rows=%d", aggRows))
	}
	if a.RecoveredRows != nil {
		check(fmt.Sprintf("recovered-rows >= %d", *a.RecoveredRows),
			r.healed && recovered >= *a.RecoveredRows, fmt.Sprintf("rows-after-last-heal=%d", recovered))
	}
	if a.MinQueriesDone != nil {
		check(fmt.Sprintf("min-queries-done >= %d", *a.MinQueriesDone),
			totalDone >= *a.MinQueriesDone, fmt.Sprintf("done=%d/%d", totalDone, totalQueries))
	}
	if a.AllQueriesDone {
		check("all-queries-done", totalDone == totalQueries,
			fmt.Sprintf("done=%d/%d", totalDone, totalQueries))
	}
	if a.LookupCompleteness != nil {
		got := 0.0
		if len(r.lookups) > 0 {
			got = float64(lookHits) / float64(len(r.lookups))
		}
		check(fmt.Sprintf("lookup-completeness >= %.2f", *a.LookupCompleteness),
			got >= *a.LookupCompleteness, fmt.Sprintf("%d/%d = %.2f", lookHits, len(r.lookups), got))
	}
	if a.MinCompleteness != nil {
		// Per-query dissemination completeness over the continuous-agg
		// queries whose tallies are final (Done): contributing executors
		// over admitting executors. Every surviving query must clear the
		// bar; a run where no query's tally finalized is a failure too.
		minC, measured := 1.0, 0
		for _, rs := range r.aggSets {
			if c, ok := rs.Completeness(); ok {
				measured++
				if c < minC {
					minC = c
				}
			}
		}
		detail := "no query finalized a completeness tally"
		if measured > 0 {
			detail = fmt.Sprintf("min=%.3f over %d queries", minC, measured)
		}
		check(fmt.Sprintf("min-completeness >= %.2f", *a.MinCompleteness),
			measured > 0 && minC >= *a.MinCompleteness, detail)
	}
	if a.P99LatencyMax != nil {
		d, ok := r.lookRec.Percentile(99)
		detail := "p99=miss"
		if ok {
			detail = fmt.Sprintf("p99=%v", d)
		}
		check(fmt.Sprintf("p99-latency-max <= %v", *a.P99LatencyMax), ok && d <= *a.P99LatencyMax, detail)
	}
	if a.MinQuotaRejects != nil {
		check(fmt.Sprintf("min-quota-rejects >= %d", *a.MinQuotaRejects),
			quotaRejects >= uint64(*a.MinQuotaRejects), fmt.Sprintf("quota-rejects=%d", quotaRejects))
	}
	if a.MalformedSeen {
		check("malformed-seen", malformed > 0, fmt.Sprintf("malformed-drops=%d", malformed))
	}
	if a.Answers == "exact" {
		check("answers exact", exact == len(r.ablations),
			fmt.Sprintf("%d/%d answers match the ground truth", exact, len(r.ablations)))
	}
	if a.NoLeaks {
		detail := fmt.Sprintf("subscriptions=%d graphs=%d wheel-slots=%d subtrees=%d attachments=%d clients=%d pending-sends=%d",
			leakSubs, leakGraphs, leakSlots, leakSubtrees, leakAttach, leakClients, leakPending)
		if leakHeld != 0 {
			detail += fmt.Sprintf(" held-rows=%d", leakHeld)
		}
		check("no-leaks", leakSubs == 0 && leakGraphs == 0 && leakSlots == 0 &&
			leakSubtrees == 0 && leakAttach == 0 && leakClients == 0 && leakPending == 0 && leakHeld == 0,
			detail)
	}
	if passed {
		fmt.Fprintf(&b, "RESULT: PASS\n")
	} else {
		fmt.Fprintf(&b, "RESULT: FAIL\n")
	}
	return ScenarioOutcome{Report: b.String(), Passed: passed}
}

// ---------------------------------------------------------------------
// §3.3.4 ablations: hier-agg and join workloads
// ---------------------------------------------------------------------

// ablationRun is one hier-agg or join workload: its query, and the
// traffic it is measured by, counted over the horizon.
type ablationRun struct {
	wl WorkloadSpec
	rs *qp.ResultSet
	// root is hier-agg's aggregation point: the owner of the name every
	// partial converges on.
	root vri.Addr
	// msgs and bytes hold the counters at the horizon start, then the
	// difference over the horizon.
	msgs, bytes uint64
}

// traffic reads what the workload is measured by: in-traffic at the
// aggregation point for hier-agg, the cluster's traffic for join.
func (a *ablationRun) traffic(env *sim.Env) (msgs, bytes uint64) {
	if a.wl.Kind == "hier-agg" {
		t := env.Traffic(a.root)
		return t.MsgsIn, t.BytesIn
	}
	_, msgs, bytes = env.Stats()
	return msgs, bytes
}

// answer folds the collected rows into the shape of seedFixture's
// ground truth: the count per group for hier-agg, the count of each
// joined row for join.
func (a *ablationRun) answer() map[string]int64 {
	got := map[string]int64{}
	for _, t := range a.rs.Rows() {
		if a.wl.Kind == "hier-agg" {
			k, _ := t.Get("k")
			c, _ := t.Get("cnt")
			n, _ := c.AsInt()
			got[k.String()] += n
			continue
		}
		cols := make([]string, 0, 4)
		for _, col := range []string{"r.id", "r.rv", "s.id", "s.sv"} {
			v, _ := t.Get(col)
			cols = append(cols, col+"="+v.String())
		}
		got[strings.Join(cols, " ")]++
	}
	return got
}

// Sizes of the §3.3.4 fixtures.
const (
	hierAggRowsPerNode = 20 // vals rows per node, over hierAggGroups keys
	hierAggGroups      = 4
	joinInner          = 40             // |S|: table s, also published as the sindex index
	joinOuter          = 400            // |R|: table r
	joinMatching       = joinOuter / 10 // R rows whose id has a partner in S
)

// seedFixture stores a hier-agg or join workload's fixture on the ring
// and returns its ground truth.
func seedFixture(kind string, nodes []*qp.Node) map[string]int64 {
	truth := map[string]int64{}
	if kind == "hier-agg" {
		for ni, n := range nodes {
			for t := 0; t < hierAggRowsPerNode; t++ {
				g := fmt.Sprintf("g%d", (ni+t)%hierAggGroups)
				truth[g]++
				n.PublishLocal("vals", tuple.New("vals").Set("k", tuple.String(g)), 4*time.Hour)
			}
		}
		return truth
	}
	for i := 0; i < joinInner; i++ {
		n := nodes[i%len(nodes)]
		tp := tuple.New("s").Set("id", tuple.Int(int64(i))).Set("sv", tuple.Int(int64(i)))
		n.PublishLocal("s", tp, 4*time.Hour)
		n.Publish("sindex", []string{"id"}, tp, 4*time.Hour, nil)
	}
	for i := 0; i < joinOuter; i++ {
		id := int64(1_000_000 + i)
		if i < joinMatching {
			id = int64(i % joinInner)
			truth[fmt.Sprintf("r.id=%d r.rv=%d s.id=%d s.sv=%d", id, i, id, id)]++
		}
		nodes[i%len(nodes)].PublishLocal("r", tuple.New("r").
			Set("id", tuple.Int(id)).Set("rv", tuple.Int(int64(i))), 4*time.Hour)
	}
	return truth
}

// ablationPlans is the plan each §3.3.4 workload submits at the horizon
// start, by kind and strategy.
var ablationPlans = map[string]map[string]string{
	"hier-agg": {
		// Every node ships its partial straight to one rendezvous site.
		"direct": `
query agg timeout 20s
opgraph g1 disseminate broadcast {
    scan = Scan(table='vals')
    agg  = GroupBy(keys='k', aggs='count(*) as cnt', flushevery='6s')
    ship = Put(ns='agg.partial', fixedkey='all')
    agg <- scan
    ship <- agg
}
opgraph g2 disseminate equality 'agg.partial' 'all' {
    recv  = Scan(table='agg.partial')
    final = GroupBy(keys='k', aggs='sum(cnt) as cnt')
    out   = Result()
    final <- recv
    out <- final
}
`,
		// Partials merge en route up a tree toward the root.
		"hierarchical": `
query agg timeout 20s
opgraph g disseminate broadcast {
    scan = Scan(table='vals')
    agg  = HierAgg(ns='agg.tree', keys='k', aggs='count(*) as cnt', senddelay='5s', wait='250ms')
    out  = Result()
    agg <- scan
    out <- agg
}
`,
	},
	"join": {
		// Both relations rehash into j.x, where a symmetric hash join
		// meets them.
		"symmetric-hash": `
query j timeout 25s
opgraph gr disseminate broadcast {
    scan = Scan(table='r')
    put  = Put(ns='j.x', key='id')
    put <- scan
}
opgraph gs disseminate broadcast {
    scan = Scan(table='s')
    put  = Put(ns='j.x', key='id')
    put <- scan
}
opgraph gj disseminate broadcast {
    l = Scan(table='j.x', only='r')
    r = Scan(table='j.x', only='s')
    j = Join(leftkey='id', rightkey='id')
    o = Result()
    j.left <- l
    j.right <- r
    o <- j
}
`,
		// Each R row probes S's sindex hash index: the distributed index
		// join.
		"fetch-matches": `
query j timeout 25s
opgraph g disseminate broadcast {
    scan = Scan(table='r')
    fm   = FetchMatches(ns='sindex', key='id')
    o    = Result()
    fm <- scan
    o <- fm
}
`,
		// S rehashes and publishes a Bloom filter of its ids; R rehashes
		// only the rows the filter admits.
		"bloom-rehash": `
query j timeout 25s
opgraph gb disseminate broadcast {
    scan = Scan(table='s')
    tee  = Tee()
    bb   = BloomBuild(ns='j.bf', key='id', expected=64, flushevery='3s')
    sput = Put(ns='j.x', key='id')
    tee <- scan
    bb <- tee
    sput <- tee
}
opgraph gp disseminate broadcast {
    scan = Scan(table='r')
    bf   = BloomFilter(ns='j.bf', key='id', fetchdelay='7s')
    put  = Put(ns='j.x', key='id')
    bf <- scan
    put <- bf
}
opgraph gj disseminate broadcast {
    l = Scan(table='j.x', only='r')
    r = Scan(table='j.x', only='s')
    j = Join(leftkey='id', rightkey='id')
    o = Result()
    j.left <- l
    j.right <- r
    o <- j
}
`,
	},
}
