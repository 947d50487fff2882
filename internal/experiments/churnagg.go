package experiments

import (
	"fmt"
	"time"

	"pier/internal/sim"
	"pier/internal/vri"
	"pier/internal/wire"
)

// ChurnAgg is the scale experiment for the sharded Simulation
// Environment: continuous in-network COUNT aggregation over a
// 10,000-node hierarchical tree (§3.3.4's hierarchical aggregation at
// the paper's §3.1.4 "thousands of virtual nodes" scale) while churn
// (§3.2.2) keeps failing and replacing nodes. Every node periodically
// folds locally observed events plus its children's partial counts into
// one partial and forwards it toward the root; orphaned nodes re-parent
// to the root when the transport reports a failed delivery.
//
// The harness is written to the sharded scheduler's discipline: node
// handlers touch only per-node agent state, and the churn script runs as
// environment-level events at window barriers. Its result is therefore
// bit-identical for any worker count — TestChurnAggDeterministic diffs
// worker counts 1 and 8 — while wall-clock scales with workers.

// ChurnAggConfig parameterizes the scenario.
type ChurnAggConfig struct {
	// Nodes is the initial tree size. Defaults to 10000.
	Nodes int
	// Workers is the scheduler's worker shard count: 0 or 1 = one shard
	// on the calling goroutine, k > 1 = k worker goroutines (identical
	// results for any k).
	Workers int
	// Fanout is the aggregation-tree arity. Defaults to 32.
	Fanout int
	// ReportInterval is each node's aggregation epoch. Defaults to 1s.
	ReportInterval time.Duration
	// Duration is the measured virtual time span. Defaults to 60s.
	Duration time.Duration
	// ChurnInterval is how often the churn script fires. Defaults to 5s.
	ChurnInterval time.Duration
	// ChurnBatch is how many non-root nodes each churn tick fails and
	// replaces. Defaults to Nodes/200.
	ChurnBatch int
	Seed       int64
}

func (c *ChurnAggConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 10000
	}
	if c.Nodes < 2 {
		c.Nodes = 2 // churn needs at least one non-root victim candidate
	}
	if c.Fanout <= 0 {
		c.Fanout = 32
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = time.Second
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.ChurnInterval <= 0 {
		c.ChurnInterval = 5 * time.Second
	}
	if c.ChurnBatch <= 0 {
		c.ChurnBatch = c.Nodes / 200
		if c.ChurnBatch == 0 {
			c.ChurnBatch = 1
		}
	}
}

// ChurnAggResult is the deterministic outcome of one run. Two runs with
// the same config (modulo Workers) must produce identical values.
type ChurnAggResult struct {
	Nodes, Workers   int
	RootEpochs       int    // aggregation epochs the root completed
	RootTotal        int64  // grand total count the root accumulated
	RootReports      uint64 // partial reports the root received
	Failed, Respawns int    // churn activity
	Reparented       int    // children that fell back to the root
	Msgs, Bytes      uint64 // simulator-wide traffic
	Events           uint64 // simulator events dispatched
	Digest           uint64 // FNV-1a over the root's per-epoch series
}

// Render formats the result for cmd/experiments.
func (r ChurnAggResult) Render() string {
	return fmt.Sprintf(
		"nodes=%d workers=%d epochs=%d root-total=%d root-reports=%d\n"+
			"churn: failed=%d respawned=%d reparented=%d\n"+
			"traffic: msgs=%d bytes=%d events=%d digest=%016x\n",
		r.Nodes, r.Workers, r.RootEpochs, r.RootTotal, r.RootReports,
		r.Failed, r.Respawns, r.Reparented, r.Msgs, r.Bytes, r.Events, r.Digest)
}

// aggPort carries partial-count reports up the tree.
const aggPort vri.Port = 7

// aggAgent is one node's aggregation state. All fields are touched only
// by events running on the owning node, or by the churn script at
// barriers — the sharded scheduler's safety discipline.
type aggAgent struct {
	rt       *sim.Node
	root     vri.Addr
	parent   vri.Addr // "" at the root
	interval time.Duration
	acc      int64 // local observations + child partials this epoch

	// tickFn is the pre-bound tick closure and scratch the reusable
	// report encode buffer: rearming a timer or shipping a partial then
	// allocates nothing per epoch (Send consumes the bytes
	// synchronously).
	tickFn  func()
	scratch *wire.Writer

	// Root-only accounting.
	epochs  int
	total   int64
	reports uint64
	digest  uint64

	reparented bool
}

func newAggAgent(rt *sim.Node, root, parent vri.Addr, interval time.Duration) *aggAgent {
	a := &aggAgent{rt: rt, root: root, parent: parent, interval: interval, scratch: wire.NewWriter(8)}
	a.tickFn = a.tick
	if err := rt.Listen(aggPort, a.onReport); err != nil {
		panic(err)
	}
	return a
}

// start arms the first epoch tick, staggered per node id so epochs are
// spread across each interval (and never collide with driver events).
func (a *aggAgent) start(stagger time.Duration) {
	a.rt.Schedule(a.interval+stagger, a.tickFn)
}

// onReport folds one child partial into the local epoch.
func (a *aggAgent) onReport(_ vri.Addr, payload []byte) {
	r := wire.NewReader(payload)
	count := r.I64()
	if r.Err() != nil {
		return
	}
	a.acc += count
	if a.parent == "" {
		a.reports++
	}
}

// tick closes one epoch: add local observations, then either forward
// the partial toward the parent or, at the root, fold it into totals.
func (a *aggAgent) tick() {
	a.acc += int64(a.rt.Rand().Intn(10)) // local event arrivals this epoch
	if a.parent == "" {
		a.total += a.acc
		a.epochs++
		a.digest = fnvMix(a.digest, uint64(a.acc))
		a.acc = 0
		a.rt.Schedule(a.interval, a.tickFn)
		return
	}
	if a.acc != 0 {
		w := a.scratch
		w.Reset()
		w.I64(a.acc)
		sent := a.acc
		a.acc = 0
		a.rt.Send(a.parent, aggPort, w.Bytes(), func(ok bool) {
			if ok {
				return
			}
			// Parent unreachable: re-credit the partial and fall back
			// to reporting straight to the root.
			a.acc += sent
			if a.parent != a.root {
				a.parent = a.root
				a.reparented = true
			}
		})
	}
	a.rt.Schedule(a.interval, a.tickFn)
}

func fnvMix(h, v uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// RunChurnAgg executes the scenario and returns its deterministic
// outcome.
func RunChurnAgg(cfg ChurnAggConfig) ChurnAggResult {
	cfg.fill()
	env := sim.NewEnv(sim.Options{Seed: cfg.Seed})
	env.SetWorkers(cfg.Workers)

	nodes := env.SpawnN("agg", cfg.Nodes)
	root := nodes[0].Addr()
	agents := make([]*aggAgent, 0, cfg.Nodes+cfg.Nodes/8)
	for i, n := range nodes {
		parent := vri.Addr("")
		if i > 0 {
			parent = nodes[(i-1)/cfg.Fanout].Addr()
		}
		agents = append(agents, newAggAgent(n, root, parent, cfg.ReportInterval))
	}
	for i, a := range agents {
		a.start(time.Duration(i*97) * time.Microsecond)
	}

	// Churn script: every tick, fail a batch of random live non-root
	// nodes and spawn replacements attached to the victims' parents.
	// Runs as environment-level events, i.e. at window barriers.
	var failed, respawns int
	rng := env.Rand()
	var churn func()
	churn = func() {
		for b := 0; b < cfg.ChurnBatch && len(agents) > 1; b++ {
			// Draw until a live non-root victim comes up; bounded retries
			// keep the loop deterministic even late in heavy churn.
			var victim *aggAgent
			for try := 0; try < 64; try++ {
				cand := agents[1+rng.Intn(len(agents)-1)]
				if cand.rt.Alive() {
					victim = cand
					break
				}
			}
			if victim == nil {
				continue
			}
			env.Fail(victim.rt.Addr())
			failed++
			respawns++
			r := env.Spawn(fmt.Sprintf("respawn-%d", respawns))
			ra := newAggAgent(r, root, victim.parent, cfg.ReportInterval)
			agents = append(agents, ra)
			ra.start(time.Duration(len(agents)*97) * time.Microsecond)
		}
		env.Schedule(cfg.ChurnInterval, churn)
	}
	env.Schedule(cfg.ChurnInterval, churn)

	env.Run(cfg.Duration)

	reparented := 0
	for _, a := range agents {
		if a.reparented {
			reparented++
		}
	}
	ev, msgs, bytes := env.Stats()
	rootAgent := agents[0]
	return ChurnAggResult{
		Nodes:       cfg.Nodes,
		Workers:     cfg.Workers,
		RootEpochs:  rootAgent.epochs,
		RootTotal:   rootAgent.total,
		RootReports: rootAgent.reports,
		Failed:      failed,
		Respawns:    respawns,
		Reparented:  reparented,
		Msgs:        msgs,
		Bytes:       bytes,
		Events:      ev,
		Digest:      rootAgent.digest,
	}
}
