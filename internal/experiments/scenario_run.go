package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"time"

	"pier/internal/overlay"
	"pier/internal/qp"
	"pier/internal/sim"
	"pier/internal/vri"
)

// Scenario runner: runs a parsed ScenarioSpec. It owns what no workload
// kind does (the cluster, the event script, the report's header,
// timeline, cluster, ring, reliability, sharing, quota and traffic lines,
// and the leak, malformed, quota and queries-done assertions) and calls
// each kind for the rest. The event script runs as environment-level
// events (alone at window barriers), node callbacks write only per-query
// collectors, and driver randomness comes from driver streams, so the
// report is bit-identical at any worker count, which it never mentions.

// ScenarioOutcome is the deterministic result of one scenario run.
type ScenarioOutcome struct {
	// Report is the full human-readable report, including one
	// PASS/FAIL line per assertion and a final RESULT line.
	Report string
	// Passed is false if any assertion failed.
	Passed bool
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
	// kinds are the spec's workloads, bound to this run.
	kinds []workloadKind
}

func (r *scenarioRun) tl(format string, args ...any) {
	r.timeline = append(r.timeline,
		fmt.Sprintf("  [+%v] %s", r.env.Now().Sub(r.base), fmt.Sprintf(format, args...)))
}

// recovered marks a recovery point on every kind; it returns their rows.
func (r *scenarioRun) recovered() int {
	rows := 0
	for _, k := range r.kinds {
		rows += k.recovered()
	}
	return rows
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

// nodeConfig sets the scenario's overrides on every node, respawns too.
func (spec ScenarioSpec) nodeConfig(cfg *qp.Config) {
	cfg.NumTrees, cfg.MaxGraphsPerClient = spec.Trees, spec.MaxGraphsPerClient
}

// RunScenario executes the scenario and evaluates its assertions.
func RunScenario(spec ScenarioSpec, workers int) ScenarioOutcome {
	env := sim.NewEnv(sim.Options{
		Seed:     spec.Seed,
		LossRate: spec.Network.LossRate,
		Topology: scenarioTopology(spec),
	})
	env.SetWorkers(workers)
	nodes := BuildClusterWith(env, spec.Nodes, "s", spec.nodeConfig)
	r := &scenarioRun{
		spec:     spec,
		env:      env,
		nodes:    nodes,
		addrToQP: make(map[vri.Addr]*qp.Node, len(nodes)),
		rng:      rand.New(rand.NewSource(spec.Seed + 21)),
	}
	for _, n := range nodes {
		r.addrToQP[n.Addr()] = n
	}
	// Workload fixtures that must exist before the clock starts.
	needsSettle := false
	for _, k := range spec.Workloads {
		bound, settle := k.start(r)
		r.kinds = append(r.kinds, bound)
		needsSettle = needsSettle || settle
	}
	if needsSettle {
		env.Run(10 * time.Second) // let publishes land before the horizon
	}

	// The measurement horizon starts here; the event script and every
	// workload time are relative to base.
	r.base = env.Now()
	for _, k := range r.kinds {
		k.arm()
	}
	for _, ev := range spec.Events {
		r.armEvent(ev)
	}

	env.Run(spec.Duration)
	for _, k := range r.kinds {
		if h, ok := k.(interface{ horizonEnd() }); ok {
			h.horizonEnd()
		}
	}
	env.Run(spec.Teardown)
	return r.evaluate()
}

// armEvent schedules one failure-injection event. All mutations run as
// environment-level events: the coordinator dispatches them alone
// between windows, which is exactly the driver context the sim's
// override and Fail APIs require.
func (r *scenarioRun) armEvent(ev EventSpec) {
	env := r.env
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
				r.tl("partition healed (result rows so far: %d)", r.recovered())
			})
		}
	case "kill":
		env.Schedule(ev.At, func() {
			// The victim pool is the live nodes but the bootstrap. Interior
			// restricts it to interior dissemination-tree nodes, whose death
			// orphans a subtree (reading TreeChildren here is driver
			// context: all workers parked), unless the trees are too flat
			// to supply the requested count.
			size := func(pool []vri.Addr) int {
				if ev.Count > 0 {
					return ev.Count
				}
				return int(ev.Fraction*float64(len(pool)) + 0.5)
			}
			var candidates, interior []vri.Addr
			for _, a := range r.liveQP() {
				if a != r.nodes[0].Addr() {
					candidates = append(candidates, a)
					if ev.Interior && r.addrToQP[a].TreeChildren() > 0 {
						interior = append(interior, a)
					}
				}
			}
			if ev.Interior && len(interior) >= size(candidates) {
				candidates = interior
			}
			var victims []vri.Addr
			for k := min(size(candidates), len(candidates)); len(victims) < k; {
				vi := env.Rand().Intn(len(candidates))
				victims = append(victims, candidates[vi])
				candidates = slices.Delete(candidates, vi, vi+1)
			}
			slices.Sort(victims)
			names := make([]string, len(victims))
			for i, a := range victims {
				env.Fail(a)
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
					r.tl("respawn: %d replacement nodes joining (result rows so far: %d)", n, r.recovered())
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
}

// respawn spawns a replacement node and joins it through the bootstrap,
// with the same bounded retry BuildCluster uses.
func (r *scenarioRun) respawn() {
	r.respawns++
	sn := r.env.Spawn(fmt.Sprintf("r-%d", r.respawns))
	cfg := clusterConfig(r.spec.Nodes)
	r.spec.nodeConfig(&cfg)
	nd := qp.NewNode(sn, cfg)
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

	// Workload outcomes; each kind's verdicts wait for the rank order.
	type verdict struct {
		rank int
		line string
	}
	var verdicts []verdict
	passed := true
	check := func(rank int, name string, ok bool, detail string) {
		v := "PASS"
		if !ok {
			v, passed = "FAIL", false
		}
		verdicts = append(verdicts, verdict{rank, fmt.Sprintf("assert %s: %s (%s)\n", name, v, detail)})
	}
	fmt.Fprintln(&b, "workloads:")
	totalQueries, totalDone := 0, 0
	for _, k := range r.kinds {
		submitted, done := k.report(&b, check)
		totalQueries += submitted
		totalDone += done
	}

	// Cluster state after teardown, over LIVE nodes only: a failed
	// node's counters are frozen mid-flight by design (Fail models a
	// crash, not a shutdown), so only survivors owe clean teardown.
	s := qp.NodeStats{ClientRejects: map[string]uint64{}}
	var misplaced, transitDrops uint64
	var dhts []*overlay.DHT
	live := r.liveQP()
	for _, a := range live {
		addStats(&s, r.addrToQP[a].Stats())
		dht := r.addrToQP[a].DHT()
		dhts = append(dhts, dht)
		misplaced += dht.MisplacedStores()
		transitDrops += dht.TransitDrops()
	}
	events, msgs, _ := r.env.Stats()
	fmt.Fprintf(&b, "cluster after teardown: live-nodes=%d malformed-drops=%d leaked-subscriptions=%d leaked-graphs=%d leaked-wheel-slots=%d leaked-subtrees=%d leaked-attachments=%d leaked-clients=%d leaked-pending-sends=%d\n",
		len(live), s.MalformedDrops, s.Subscriptions, s.LiveGraphs, s.WheelSlots, s.SharedSubtrees, s.SubtreeAttachments, s.TrackedClients, s.PendingSends)
	// The live nodes' ring as their routing state left it (Chord's
	// invariants; a partition that never re-merges reads cycles=2).
	fmt.Fprintf(&b, "ring: %v\n", overlay.CheckRing(dhts))
	fmt.Fprintf(&b, "reliability: send-retries=%d send-exhausted=%d tree-repairs=%d tree-reinjects=%d tree-rejoins=%d misplaced-stores=%d transit-drops=%d\n",
		s.SendRetries, s.SendExhausted, s.TreeRepairs, s.TreeReinjects, s.TreeRejoins, misplaced, transitDrops)
	fmt.Fprintf(&b, "sharing: decodes=%d chain-feeds=%d subtree-builds=%d subtree-hits=%d shared-fanout=%d flush-fires=%d chain-flushes=%d dissem-frames=%d dissem-graphs=%d\n",
		s.Decodes, s.ChainFeeds, s.SubtreeBuilds, s.SubtreeHits, s.SharedExecFanout,
		s.FlushTimerFires, s.GraphFlushes, s.BatchFrames, s.BatchedGraphs)
	if len(s.ClientRejects) > 0 {
		cs := make([]string, 0, len(s.ClientRejects))
		for c := range s.ClientRejects {
			cs = append(cs, c)
		}
		sort.Strings(cs)
		for i, c := range cs {
			cs[i] = fmt.Sprintf("%s=%d", c, s.ClientRejects[c])
		}
		fmt.Fprintf(&b, "quota rejects: total=%d rejected=%d reject-acks=%d by client: %s\n",
			s.ClientQuotaRejects, s.GraphsRejected, s.RejectAcks, strings.Join(cs, " "))
	}
	fmt.Fprintf(&b, "traffic: events=%d msgs=%d\n", events, msgs)

	// The runner's own assertions, then every verdict in rank order.
	a := spec.Assert
	if a.MinQueriesDone != nil {
		check(30, fmt.Sprintf("min-queries-done >= %d", *a.MinQueriesDone),
			totalDone >= *a.MinQueriesDone, fmt.Sprintf("done=%d/%d", totalDone, totalQueries))
	}
	if a.AllQueriesDone {
		check(40, "all-queries-done", totalDone == totalQueries,
			fmt.Sprintf("done=%d/%d", totalDone, totalQueries))
	}
	if a.MinQuotaRejects != nil {
		check(80, fmt.Sprintf("min-quota-rejects >= %d", *a.MinQuotaRejects),
			s.ClientQuotaRejects >= uint64(*a.MinQuotaRejects), fmt.Sprintf("quota-rejects=%d", s.ClientQuotaRejects))
	}
	if a.MalformedSeen {
		check(90, "malformed-seen", s.MalformedDrops > 0, fmt.Sprintf("malformed-drops=%d", s.MalformedDrops))
	}
	if a.NoLeaks {
		detail := fmt.Sprintf("subscriptions=%d graphs=%d wheel-slots=%d subtrees=%d attachments=%d clients=%d pending-sends=%d",
			s.Subscriptions, s.LiveGraphs, s.WheelSlots, s.SharedSubtrees, s.SubtreeAttachments, s.TrackedClients, s.PendingSends)
		if s.HeldRows != 0 {
			detail += fmt.Sprintf(" held-rows=%d", s.HeldRows)
		}
		// The counts are never negative, so they are all zero when their sum is.
		check(110, "no-leaks", s.Subscriptions+s.LiveGraphs+s.WheelSlots+s.SharedSubtrees+
			s.SubtreeAttachments+s.TrackedClients+s.PendingSends+s.HeldRows == 0, detail)
	}
	sort.SliceStable(verdicts, func(i, j int) bool { return verdicts[i].rank < verdicts[j].rank })
	for _, v := range verdicts {
		b.WriteString(v.line)
	}
	if passed {
		fmt.Fprintf(&b, "RESULT: PASS\n")
	} else {
		fmt.Fprintf(&b, "RESULT: FAIL\n")
	}
	return ScenarioOutcome{Report: b.String(), Passed: passed}
}

// addStats adds every counter of st into sum and merges its per-client
// rejects, so a counter NodeStats gains is summed without a line here.
func addStats(sum *qp.NodeStats, st qp.NodeStats) {
	dst, src := reflect.ValueOf(sum).Elem(), reflect.ValueOf(st)
	for i := 0; i < src.NumField(); i++ {
		switch f := dst.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + src.Field(i).Int())
		case reflect.Uint64:
			f.SetUint(f.Uint() + src.Field(i).Uint())
		}
	}
	for c, k := range st.ClientRejects {
		sum.ClientRejects[c] += k
	}
}
