package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pier/internal/qp"
	"pier/internal/sim"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/workload"
)

// QStorm is the multi-tenant scale scenario: N nodes serving Q
// CONCURRENT continuous aggregation queries over the firewall workload —
// the "many simultaneous users" operating point PIER is pitched at
// (§3.3.2's opgraph model assumes hundreds of coexisting continuous
// queries) that no other harness in this repo exercises. Every query is
// a broadcast-disseminated continuous count over the fwlogs stream with
// a periodic flush, so the run stresses exactly the multi-tenant runtime
// paths:
//
//   - structurally identical queries share ONE operator chain per node
//     (the §3.3.2 multi-query optimizer): Q same-shape queries cost one
//     subtree build plus Q-1 cache hits, and each publish executes the
//     shared chain ONCE — chain feeds per publish are O(1) in Q, the
//     headline quantity the report compares against the per-query
//     baseline of Q private chains each fed per publish;
//   - the shared chains ride the table bus: one overlay subscription and
//     ONE decode per publish regardless of Q;
//   - flush timers coalesce onto one wheel slot per node AND one
//     registrant per shared chain — flush work per period drops from
//     Q·nodes to chains·nodes;
//   - queries submitted through one proxy within the dissemination batch
//     window ride one distribution-tree frame instead of Q broadcasts;
//   - admission control degrades gracefully: the MaxLiveGraphs backstop
//     and the per-client MaxGraphsPerClient quota shed load with
//     explicit reject acks instead of growing without bound, and
//     MaxFlushesPerTick sheds flush work deterministically when a wheel
//     tick would overrun.
//
// The harness follows the sharded-safe collector discipline (ROADMAP):
// event publishing runs as per-node agent ticks using per-node
// generators, results accumulate in per-proxy qp.ResultSets, and the
// driver reads everything between Env.Run calls — so the result is
// bit-identical for any worker count.

// QStormConfig parameterizes the storm.
type QStormConfig struct {
	// Nodes is the deployment size. Default 24.
	Nodes int
	// Queries is the number of concurrent continuous queries (the storm
	// axis: the acceptance sweep is Q ∈ {10, 100, 1000}). Default 100.
	Queries int
	// Shapes is the number of structurally DISTINCT query shapes, cycled
	// round-robin across the Q submissions. 1 (the default) makes every
	// query identical — the pure work-sharing operating point; S > 1
	// inserts S-1 distinct Select predicates, so the cluster runs S
	// shared chains per node instead of one (graceful degradation axis).
	Shapes int
	// Clients is the number of distinct client identities the Q queries
	// are attributed to, round-robin ("tenant-0".."tenant-C-1"). 1 (the
	// default) submits everything as one client.
	Clients int
	// FlushEvery is each query's continuous-emission period. Default 5s.
	FlushEvery time.Duration
	// Duration is the event-publishing window. Default 20s.
	Duration time.Duration
	// EventsPerNode is how many firewall events each node publishes
	// locally over the window. Default 40.
	EventsPerNode int
	// Sources is the firewall source-IP population. Default 64.
	Sources int
	// MaxLiveGraphs, when >0, applies the whole-node admission cap to
	// every node.
	MaxLiveGraphs int
	// MaxGraphsPerClient, when >0, applies the per-client quota to every
	// node: one tenant's flood is refused (with acks) while others run.
	MaxGraphsPerClient int
	// MaxFlushesPerTick, when >0, bounds flush work per wheel tick on
	// every node (deterministic load shedding, counted not silent).
	MaxFlushesPerTick int
	// Trees, when >1, gives every node that many redundant dissemination
	// trees (qp.Config.NumTrees, paper §3.3.3). Forces a cold build:
	// checkpoints are taken at the default tree count and restore
	// rejects a tree-count mismatch.
	Trees int
	// Workers selects the scheduler (0 = sequential).
	Workers int
	// Warm selects the cluster warm-start path (checkpoint save/load).
	Warm WarmStart
	Seed int64
}

func (c *QStormConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 24
	}
	if c.Queries <= 0 {
		c.Queries = 100
	}
	if c.Shapes <= 0 {
		c.Shapes = 1
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 5 * time.Second
	}
	if c.Duration <= 0 {
		c.Duration = 20 * time.Second
	}
	if c.EventsPerNode <= 0 {
		c.EventsPerNode = 40
	}
	if c.Sources <= 0 {
		c.Sources = 64
	}
}

// continuousAggPlan renders one continuous count over the fwlogs
// stream — the shape cycle shared by qstorm and the scenario DSL.
// Shape 0 is the plain count; shape s > 0 inserts a Select whose
// predicate constant differs per shape — structurally distinct
// (distinct subtree signatures) while still passing every event (ports
// top out at 3389), so result completeness is shape-independent.
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

// qstormPlan renders the UFL text for query i under cfg's shape cycle.
func qstormPlan(cfg *QStormConfig, i int, timeout time.Duration) *ufl.Query {
	return continuousAggPlan(fmt.Sprintf("qs%d", i), i%cfg.Shapes, cfg.FlushEvery, timeout)
}

// qstormClient returns query i's client identity.
func qstormClient(cfg *QStormConfig, i int) string {
	if cfg.Clients <= 1 {
		return "qstorm"
	}
	return fmt.Sprintf("tenant-%d", i%cfg.Clients)
}

// QStormResult is the deterministic outcome of one storm run. Every
// field is workers-invariant; wall-clock-derived rates are reported by
// the caller on stderr, never here (the bit-identical-stdout contract).
type QStormResult struct {
	Nodes, Queries int
	// Submitted/Completed track the query population end to end.
	Submitted, Completed int
	// ResultRows is the total result tuples delivered to proxies.
	ResultRows int
	// Publishes is the number of firewall events published (nodes ×
	// events per node).
	Publishes uint64
	// Decodes is the number of newData tuple decodes actually performed
	// across the cluster — the decode-once cost. DecodeBaseline is the
	// counterfactual under per-subscriber decoding (each publish decoded
	// once per subscribed query, the pre-bus behavior): publishes × live
	// queries.
	Decodes, DecodeBaseline uint64
	// SubtreeBuilds / SubtreeHits are the signature-keyed chain cache's
	// misses and hits across the cluster: same-shape storms pay
	// nodes×shapes builds and everything else hits.
	SubtreeBuilds, SubtreeHits uint64
	// ChainFeeds is the number of bus deliveries into operator chains —
	// the operator-chain executions actually paid per publish under
	// subtree sharing. ChainFeedBaseline is the per-query counterfactual
	// (every publish feeding every live query's private chain), which
	// equals DecodeBaseline.
	ChainFeeds, ChainFeedBaseline uint64
	// SharedExecFanout counts result-tuple deliveries fanned from shared
	// chains to per-query tails by the demux (>0 proves queries received
	// rows THROUGH shared chains, not private ones).
	SharedExecFanout uint64
	// FlushTimerFires is the number of coalesced wheel timer events;
	// ChainFlushes the chain flushes those events drove (O(chains), not
	// O(Q)); FlushBaseline the counterfactual one-timer-per-query cost
	// (Σ over nodes of fires × live queries there). FlushesShed counts
	// flushes deferred by MaxFlushesPerTick — visible degradation.
	FlushTimerFires, ChainFlushes, FlushBaseline, FlushesShed uint64
	// BatchFrames / BatchedGraphs measure dissemination batching: graphs
	// per tree frame is the amortization factor.
	BatchFrames, BatchedGraphs uint64
	// PeakLiveGraphs / PeakSubscriptions sample the cluster-wide live
	// population right after submission settles.
	PeakLiveGraphs, PeakSubscriptions int
	// PeakSharedSubs is the cluster-wide count of shared access-method
	// subscriptions backing those attachments (nodes × distinct access
	// signatures — here 1 per node).
	PeakSharedSubs int
	// PeakSharedSubtrees / PeakAttachments sample the shared-chain
	// population at the same barrier: nodes×shapes chains serving
	// PeakLiveGraphs attachments.
	PeakSharedSubtrees, PeakAttachments int
	// Rejected counts opgraphs refused by admission control (node cap
	// AND client quota); RejectAcks the refusal acks observed at
	// proxies; QuotaRejects the subset refused by MaxGraphsPerClient,
	// attributed per client in ClientRejects (nil when no quota fired).
	Rejected, RejectAcks, QuotaRejects uint64
	ClientRejects                      map[string]uint64
	// Malformed counts decode failures (the qstorm acceptance asserts 0).
	Malformed uint64
	// SendRetries/SendExhausted count nacked query-plane sends retried /
	// abandoned; the Tree* counters count nack-driven dissemination-tree
	// repair actions (child drops, payload reinjections, orphan
	// re-joins). All zero on a healthy lossless storm.
	SendRetries, SendExhausted              uint64
	TreeRepairs, TreeReinjects, TreeRejoins uint64
	// CompletenessMin/Mean summarize per-query dissemination
	// completeness (contributing / admitting executors) over the
	// CompletenessMeasured queries whose tallies finalized.
	CompletenessMin, CompletenessMean float64
	CompletenessMeasured              int
	// Leaked* must all be 0 after every query has torn down — the
	// 10k-queries-no-leak property at scenario scale, extended to shared
	// chains, their attachments, the per-client quota ledger, the
	// ack-tracked send machinery (every retry state released), and the
	// arrivals the table bus holds for window-gated chains.
	LeakedSubscriptions, LeakedGraphs int
	LeakedSubtrees, LeakedAttachments int
	LeakedClients, LeakedPendingSends int
	LeakedHeldRows                    int
	// Events / Msgs are simulator-wide totals for the determinism diff.
	Events, Msgs uint64
}

// Render formats the deterministic report (stdout-safe: no wall clock).
func (r QStormResult) Render() string {
	ratio := func(base, actual uint64) float64 {
		if actual == 0 {
			return 0
		}
		return float64(base) / float64(actual)
	}
	graphsPerFrame := float64(0)
	if r.BatchFrames > 0 {
		graphsPerFrame = float64(r.BatchedGraphs) / float64(r.BatchFrames)
	}
	hitRate := float64(0)
	if r.SubtreeBuilds+r.SubtreeHits > 0 {
		hitRate = float64(r.SubtreeHits) / float64(r.SubtreeBuilds+r.SubtreeHits)
	}
	quota := ""
	if len(r.ClientRejects) > 0 {
		clients := make([]string, 0, len(r.ClientRejects))
		for c := range r.ClientRejects {
			clients = append(clients, c)
		}
		sort.Strings(clients)
		parts := make([]string, 0, len(clients))
		for _, c := range clients {
			parts = append(parts, fmt.Sprintf("%s=%d", c, r.ClientRejects[c]))
		}
		quota = fmt.Sprintf("quota rejects by client: %s\n", strings.Join(parts, " "))
	}
	completeness := "completeness: no finalized queries\n"
	if r.CompletenessMeasured > 0 {
		completeness = fmt.Sprintf("completeness: min=%.3f mean=%.3f over %d finalized queries\n",
			r.CompletenessMin, r.CompletenessMean, r.CompletenessMeasured)
	}
	return fmt.Sprintf(
		"nodes=%d queries=%d submitted=%d completed=%d result-rows=%d\n"+
			"publishes=%d decodes=%d (per-subscriber baseline %d, %.1fx less decode work)\n"+
			"subtrees: builds=%d hits=%d (hit rate %.4f)\n"+
			"chain feeds=%d (per-query baseline %d, %.1fx less operator execution) shared-fanout=%d\n"+
			"flush timer events=%d drove %d chain flushes, shed %d (per-query baseline %d, %.1fx less flush work)\n"+
			"dissemination: frames=%d graphs=%d (%.1f graphs/frame)\n"+
			"peak: live-graphs=%d subscriptions=%d shared-subs=%d subtrees=%d attachments=%d\n"+
			"admission: rejected=%d reject-acks=%d quota-rejects=%d  malformed=%d\n"+
			quota+
			"reliability: send-retries=%d send-exhausted=%d tree-repairs=%d tree-reinjects=%d tree-rejoins=%d\n"+
			completeness+
			"teardown leaks: subscriptions=%d graphs=%d subtrees=%d attachments=%d clients=%d pending-sends=%d held-rows=%d\n"+
			"traffic: events=%d msgs=%d\n",
		r.Nodes, r.Queries, r.Submitted, r.Completed, r.ResultRows,
		r.Publishes, r.Decodes, r.DecodeBaseline, ratio(r.DecodeBaseline, r.Decodes),
		r.SubtreeBuilds, r.SubtreeHits, hitRate,
		r.ChainFeeds, r.ChainFeedBaseline, ratio(r.ChainFeedBaseline, r.ChainFeeds), r.SharedExecFanout,
		r.FlushTimerFires, r.ChainFlushes, r.FlushesShed, r.FlushBaseline, ratio(r.FlushBaseline, r.ChainFlushes),
		r.BatchFrames, r.BatchedGraphs, graphsPerFrame,
		r.PeakLiveGraphs, r.PeakSubscriptions, r.PeakSharedSubs, r.PeakSharedSubtrees, r.PeakAttachments,
		r.Rejected, r.RejectAcks, r.QuotaRejects, r.Malformed,
		r.SendRetries, r.SendExhausted, r.TreeRepairs, r.TreeReinjects, r.TreeRejoins,
		r.LeakedSubscriptions, r.LeakedGraphs, r.LeakedSubtrees, r.LeakedAttachments, r.LeakedClients, r.LeakedPendingSends, r.LeakedHeldRows,
		r.Events, r.Msgs)
}

// qstormPublisher is one node's event source: a pre-bound tick that
// publishes firewall events from the node's OWN generator (driver-shared
// state would break the sharded discipline) until its quota is spent.
type qstormPublisher struct {
	n        *qp.Node
	gen      *workload.FirewallGen
	interval time.Duration
	left     int
	tickFn   func()
}

func (p *qstormPublisher) tick() {
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

// RunQStorm executes the storm and returns its deterministic outcome.
func RunQStorm(cfg QStormConfig) QStormResult {
	cfg.fill()
	env := sim.NewEnv(sim.Options{Seed: cfg.Seed})
	env.SetWorkers(cfg.Workers)
	var nodes []*qp.Node
	if cfg.Trees > 1 {
		nodes = BuildClusterWith(env, cfg.Nodes, "n", func(c *qp.Config) {
			c.NumTrees = cfg.Trees
		})
	} else {
		nodes = buildOrRestore(env, cfg.Nodes, "n", cfg.Warm)
	}
	for _, n := range nodes {
		if cfg.MaxLiveGraphs > 0 {
			n.SetMaxLiveGraphs(cfg.MaxLiveGraphs)
		}
		if cfg.MaxGraphsPerClient > 0 {
			n.SetMaxGraphsPerClient(cfg.MaxGraphsPerClient)
		}
		if cfg.MaxFlushesPerTick > 0 {
			n.SetMaxFlushesPerTick(cfg.MaxFlushesPerTick)
		}
	}

	// Publishers lead the queries by this much so every graph is live
	// before the first event lands (dissemination is sub-second; the
	// margin keeps the decode accounting exact at any scale).
	const lead = 2 * time.Second
	timeout := lead + cfg.Duration + time.Second

	// Submit Q continuous aggregation queries (cfg.Shapes structural
	// variants, cfg.Clients identities), round-robin across proxies. All
	// submissions happen at this one barrier, so each proxy coalesces
	// its share into one batch frame.
	results := make([]*qp.ResultSet, 0, cfg.Queries)
	for i := 0; i < cfg.Queries; i++ {
		rs, err := nodes[i%len(nodes)].SubmitCollect(qstormPlan(&cfg, i, timeout), qstormClient(&cfg, i))
		if err != nil {
			panic(err)
		}
		results = append(results, rs)
	}

	// Arm the per-node publishers (node-owned generators and clocks).
	interval := cfg.Duration / time.Duration(cfg.EventsPerNode)
	for i, n := range nodes {
		p := &qstormPublisher{
			n:        n,
			gen:      workload.NewFirewallGen(cfg.Seed+100+int64(i), cfg.Sources, 1.2),
			interval: interval,
			left:     cfg.EventsPerNode,
		}
		p.tickFn = p.tick
		n.Runtime().Schedule(lead+time.Duration(i*131)*time.Microsecond, p.tickFn)
	}

	// Let dissemination settle, then sample the live population at a
	// barrier (peak concurrency), then run out the storm.
	env.Run(lead)
	res := QStormResult{Nodes: cfg.Nodes, Queries: cfg.Queries, Submitted: cfg.Queries}
	liveQueriesTotal := uint64(0)
	peakLive := make([]uint64, len(nodes))
	for i, n := range nodes {
		st := n.Stats()
		res.PeakLiveGraphs += st.LiveGraphs
		res.PeakSubscriptions += st.Subscriptions
		res.PeakSharedSubs += st.SharedSubscriptions
		res.PeakSharedSubtrees += st.SharedSubtrees
		res.PeakAttachments += st.SubtreeAttachments
		liveQueriesTotal += uint64(st.LiveGraphs)
		peakLive[i] = uint64(st.LiveGraphs)
	}

	env.Run(cfg.Duration + 2*time.Second + 10*time.Second) // storm + grace + teardown

	for _, rs := range results {
		res.ResultRows += rs.Len()
		if rs.Done() {
			res.Completed++
		}
		if c, ok := rs.Completeness(); ok {
			if res.CompletenessMeasured == 0 || c < res.CompletenessMin {
				res.CompletenessMin = c
			}
			res.CompletenessMean += c
			res.CompletenessMeasured++
		}
	}
	if res.CompletenessMeasured > 0 {
		res.CompletenessMean /= float64(res.CompletenessMeasured)
	}
	res.Publishes = uint64(cfg.Nodes * cfg.EventsPerNode)
	for i, n := range nodes {
		st := n.Stats()
		res.Decodes += st.Decodes
		res.SubtreeBuilds += st.SubtreeBuilds
		res.SubtreeHits += st.SubtreeHits
		res.ChainFeeds += st.ChainFeeds
		res.SharedExecFanout += st.SharedExecFanout
		res.FlushTimerFires += st.FlushTimerFires
		res.ChainFlushes += st.GraphFlushes
		res.FlushesShed += st.FlushesShed
		// One-timer-per-query counterfactual, exact per node: this
		// node's fires × the queries live there (static after the
		// admission barrier — all queries share one timeout).
		res.FlushBaseline += st.FlushTimerFires * peakLive[i]
		res.BatchFrames += st.BatchFrames
		res.BatchedGraphs += st.BatchedGraphs
		res.Rejected += st.GraphsRejected
		res.RejectAcks += st.RejectAcks
		res.QuotaRejects += st.ClientQuotaRejects
		for c, k := range st.ClientRejects {
			if res.ClientRejects == nil {
				res.ClientRejects = make(map[string]uint64)
			}
			res.ClientRejects[c] += k
		}
		res.Malformed += st.MalformedDrops
		res.SendRetries += st.SendRetries
		res.SendExhausted += st.SendExhausted
		res.TreeRepairs += st.TreeRepairs
		res.TreeReinjects += st.TreeReinjects
		res.TreeRejoins += st.TreeRejoins
		res.LeakedSubscriptions += st.Subscriptions
		res.LeakedGraphs += st.LiveGraphs
		res.LeakedSubtrees += st.SharedSubtrees
		res.LeakedAttachments += st.SubtreeAttachments
		res.LeakedClients += st.TrackedClients
		res.LeakedPendingSends += st.PendingSends
		res.LeakedHeldRows += st.HeldRows
	}
	// The per-subscriber-decode counterfactual: every publish decoded
	// once per query-level subscriber on the publishing node. Each node
	// publishes exactly EventsPerNode events to its own live graphs, so
	// the exact total is Σ_node EventsPerNode·live(node) =
	// EventsPerNode·Σlive — no division, exact for uneven admission too.
	// The chain-feed counterfactual (every publish feeding every live
	// query's PRIVATE chain) is the same quantity.
	res.DecodeBaseline = uint64(cfg.EventsPerNode) * liveQueriesTotal
	res.ChainFeedBaseline = res.DecodeBaseline
	res.Events, res.Msgs, _ = env.Stats()
	return res
}
