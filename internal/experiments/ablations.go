package experiments

import (
	"fmt"
	"sort"
	"time"

	"pier/internal/overlay"
	"pier/internal/qp"
	"pier/internal/sim"
	"pier/internal/vri"
	"pier/internal/workload"
)

// Ablation harnesses for the design choices DESIGN.md calls out. Each
// returns a small report struct with a Render method so the bench and
// the CLI print the same rows. Like the figure harnesses, every ablation
// takes a Workers knob and follows the sharded-safe collector
// discipline, so results are identical for any worker count. §3.3.4's
// two ablations, hierarchical aggregation and the join strategies, are
// scenario workloads (hier-agg and join in scenario_run.go).

// ownerOf finds the cluster node owning a DHT name.
func ownerOf(nodes []*qp.Node, ns, key string) vri.Addr {
	id := overlay.HashName(ns, key)
	best := nodes[0]
	bestDist := overlay.Distance(id, best.DHT().NodeID())
	for _, n := range nodes[1:] {
		if d := overlay.Distance(id, n.DHT().NodeID()); d < bestDist {
			best, bestDist = n, d
		}
	}
	return best.Addr()
}

// ---------------------------------------------------------------------
// §3.2.2 / §3.2.3 — churn: lookup success as nodes come and go.
// ---------------------------------------------------------------------

// ChurnConfig parameterizes the churn study.
type ChurnConfig struct {
	Nodes int
	// MeanSession is the mean node lifetime; lower is harsher churn.
	MeanSession time.Duration
	// Duration is how long churn runs before measurement.
	Duration time.Duration
	// Lookups is the number of probes measured under churn.
	Lookups int
	// Workers is the scheduler's worker shard count (0 or 1 = one inline
	// shard; identical results for any count).
	Workers int
	// Warm selects the cluster warm-start path (checkpoint save/load).
	Warm WarmStart
	Seed int64
}

func (c *ChurnConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 48
	}
	if c.MeanSession <= 0 {
		c.MeanSession = 2 * time.Minute
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Minute
	}
	if c.Lookups <= 0 {
		c.Lookups = 100
	}
}

// ChurnResult reports lookup behavior under churn.
type ChurnResult struct {
	MeanSession    time.Duration
	SuccessPercent float64
	Consistent     bool // all successful lookups agreed per key
	NodesKilled    int
	NodesAdded     int
}

// Render prints one row.
func (r ChurnResult) Render() string {
	return fmt.Sprintf("session=%-8v success=%5.1f%% consistent=%-5v killed=%d added=%d\n",
		r.MeanSession, r.SuccessPercent, r.Consistent, r.NodesKilled, r.NodesAdded)
}

// lookupSlot collects one probe's outcome. Written only by the probing
// node's events; read by the driver after the probe window.
type lookupSlot struct {
	ok    bool
	owner vri.Addr
}

// RunChurn subjects a ring to continuous churn (exponential session
// times; every departure replaced by a fresh join, the steady-state
// population model of the Bamboo churn study) and then measures lookup
// success from surviving members. The churn script runs as
// environment-level events (window barriers under the sharded
// scheduler); the live-set is driver state and is iterated in sorted
// address order so victim selection is deterministic.
func RunChurn(cfg ChurnConfig) ChurnResult {
	cfg.fill()
	env := sim.NewEnv(sim.Options{Seed: cfg.Seed})
	env.SetWorkers(cfg.Workers)
	nodes := buildOrRestore(env, cfg.Nodes, "n", cfg.Warm)
	live := map[vri.Addr]*qp.Node{}
	for _, n := range nodes {
		live[n.Addr()] = n
	}
	liveAddrs := func(except vri.Addr) []vri.Addr {
		addrs := make([]vri.Addr, 0, len(live))
		for a := range live {
			if a != except {
				addrs = append(addrs, a)
			}
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		return addrs
	}
	churn := workload.NewChurn(cfg.Seed+5, cfg.MeanSession)
	rng := env.Rand()
	killed, added := 0, 0
	spawned := 0

	// Churn driver: kill a random non-bootstrap node at exponential
	// intervals and bring up a replacement shortly after.
	var tick func()
	deadline := env.Now().Add(cfg.Duration)
	tick = func() {
		if !env.Now().Before(deadline) || len(live) < 3 {
			return
		}
		addrs := liveAddrs(nodes[0].Addr()) // keep the bootstrap alive
		victim := addrs[rng.Intn(len(addrs))]
		env.Fail(victim)
		delete(live, victim)
		killed++

		spawned++
		fresh := qp.NewNode(env.Spawn(fmt.Sprintf("fresh-%d", spawned)), clusterConfig(cfg.Nodes))
		if err := fresh.Start(); err == nil {
			fresh.Join(nodes[0].Addr(), nil)
			live[fresh.Addr()] = fresh
			added++
		}
		// Inter-arrival of departures: mean session / population gives
		// the per-network departure rate.
		gap := churn.NextSession() / time.Duration(len(live))
		if gap < time.Second {
			gap = time.Second
		}
		env.Schedule(gap, tick)
	}
	env.Schedule(time.Second, tick)
	env.Run(cfg.Duration + 30*time.Second) // churn phase + heal time

	// Measurement: lookups from random live nodes must resolve and agree.
	// Each probe writes its own slot (per-node collector); the driver
	// tallies between runs.
	success := 0
	consistent := true
	for i := 0; i < cfg.Lookups; i++ {
		key := fmt.Sprintf("key-%d", i)
		addrs := liveAddrs("")
		probes := 3
		if len(addrs) < probes {
			probes = len(addrs)
		}
		slots := make([]lookupSlot, probes)
		for j, pi := range rng.Perm(len(addrs))[:probes] {
			slot := &slots[j]
			live[addrs[pi]].DHT().Lookup("churn", key, func(owner vri.Addr, err error) {
				if err == nil && owner != "" {
					slot.ok = true
					slot.owner = owner
				}
			})
		}
		env.Run(8 * time.Second)
		oks := 0
		owners := map[vri.Addr]bool{}
		for _, s := range slots {
			if s.ok {
				oks++
				owners[s.owner] = true
			}
		}
		if oks == probes {
			success++
		}
		if len(owners) > 1 {
			consistent = false
		}
	}
	return ChurnResult{
		MeanSession:    cfg.MeanSession,
		SuccessPercent: float64(success) / float64(cfg.Lookups) * 100,
		Consistent:     consistent,
		NodesKilled:    killed,
		NodesAdded:     added,
	}
}

// ---------------------------------------------------------------------
// §3.2.3 — soft-state lifetime: publisher work vs availability.
// ---------------------------------------------------------------------

// SoftStateConfig parameterizes the lifetime sweep.
type SoftStateConfig struct {
	Nodes     int
	Lifetimes []time.Duration
	// Horizon is how long each lifetime is observed.
	Horizon time.Duration
	// Objects published per run.
	Objects int
	// Workers is the scheduler's worker shard count (0 or 1 = one inline
	// shard; identical results for any count).
	Workers int
	// Warm selects the cluster warm-start path (checkpoint save/load).
	Warm WarmStart
	Seed int64
}

func (c *SoftStateConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if len(c.Lifetimes) == 0 {
		c.Lifetimes = []time.Duration{10 * time.Second, 30 * time.Second, 2 * time.Minute}
	}
	if c.Horizon <= 0 {
		c.Horizon = 4 * time.Minute
	}
	if c.Objects <= 0 {
		c.Objects = 30
	}
}

// SoftStateOutcome is one lifetime's measurements.
type SoftStateOutcome struct {
	Lifetime time.Duration
	// RenewsSent counts publisher maintenance work.
	RenewsSent int
	// RecoveryTime is how long objects on a failed node stayed
	// unavailable before the publisher's renew failed and it re-put.
	RecoveryTime time.Duration
	// AvailabilityPercent samples object reachability over the horizon.
	AvailabilityPercent float64
}

// SoftStateResult is the sweep.
type SoftStateResult struct{ Outcomes []SoftStateOutcome }

// Render prints the trade-off rows.
func (r SoftStateResult) Render() string {
	out := fmt.Sprintf("%-10s %8s %14s %14s\n", "lifetime", "renews", "recovery", "availability")
	for _, o := range r.Outcomes {
		out += fmt.Sprintf("%-10v %8d %14v %13.1f%%\n", o.Lifetime, o.RenewsSent, o.RecoveryTime, o.AvailabilityPercent)
	}
	return out
}

// RunSoftState publishes objects under each lifetime with the canonical
// renew-at-half-life discipline, kills a storing node mid-run, and
// measures publisher work, recovery time, and availability: shorter
// lifetimes cost more renews but repair loss faster (§3.2.3).
func RunSoftState(cfg SoftStateConfig) SoftStateResult {
	cfg.fill()
	var res SoftStateResult
	for _, lifetime := range cfg.Lifetimes {
		env := sim.NewEnv(sim.Options{Seed: cfg.Seed})
		env.SetWorkers(cfg.Workers)
		nodes := buildOrRestore(env, cfg.Nodes, "n", cfg.Warm)
		publisher := nodes[0]
		prober := nodes[len(nodes)-1]

		// Publisher-side collector: written only by the publisher node's
		// events (renew loop and its callbacks) plus the kill script at a
		// barrier; drained by the driver after the horizon.
		type tracked struct {
			key    string
			suffix string
			lostAt time.Time
			backAt time.Time
		}
		renews := 0
		objs := make([]*tracked, cfg.Objects)
		for i := range objs {
			objs[i] = &tracked{key: fmt.Sprintf("obj-%d", i), suffix: "s"}
			publisher.DHT().Put("ss", objs[i].key, "s", []byte("v"), lifetime, nil)
		}
		env.Run(5 * time.Second)

		// Renew loop at half-life; failed renew → immediate re-put
		// (recovery). Runs entirely on the publisher node, stamping the
		// publisher's clock (exact under both schedulers).
		half := lifetime / 2
		var renewAll func()
		renewAll = func() {
			for _, o := range objs {
				o := o
				renews++
				publisher.DHT().Renew("ss", o.key, o.suffix, lifetime, func(ok bool) {
					if !ok {
						publisher.DHT().Put("ss", o.key, "s", []byte("v"), lifetime, nil)
						if !o.lostAt.IsZero() && o.backAt.IsZero() {
							o.backAt = publisher.Runtime().Now()
						}
					}
				})
			}
			publisher.Runtime().Schedule(half, renewAll)
		}
		publisher.Runtime().Schedule(half, renewAll)

		// Kill one storing node (not the publisher) at 1/3 horizon: an
		// environment-level event, so it may touch the tracking slots.
		killAt := cfg.Horizon / 3
		env.Schedule(killAt, func() {
			// Choose the node owning obj-0 if it isn't the publisher.
			v := ownerOf(nodes, "ss", "obj-0")
			if v == publisher.Addr() {
				v = ownerOf(nodes, "ss", "obj-1")
			}
			for _, o := range objs {
				o.lostAt = env.Now()
			}
			env.Fail(v)
		})

		// Availability sampling: every 5 s, get obj-0 from a live node.
		// The sampling loop is driver work; the hit counter is written
		// only by the prober node's events.
		samples, available := 0, 0
		var sample func()
		sample = func() {
			samples++
			prober.DHT().Get("ss", "obj-0", func(objsGot []overlay.Object, err error) {
				if err == nil && len(objsGot) > 0 {
					available++
				}
			})
			env.Schedule(5*time.Second, sample)
		}
		env.Schedule(5*time.Second, sample)

		env.Run(cfg.Horizon)

		var rec time.Duration
		o0 := objs[0]
		if !o0.lostAt.IsZero() && !o0.backAt.IsZero() {
			rec = o0.backAt.Sub(o0.lostAt)
		}
		res.Outcomes = append(res.Outcomes, SoftStateOutcome{
			Lifetime:            lifetime,
			RenewsSent:          renews,
			RecoveryTime:        rec,
			AvailabilityPercent: float64(available) / float64(samples) * 100,
		})
	}
	return res
}
