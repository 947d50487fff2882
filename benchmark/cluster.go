package main

import (
	"fmt"
	"time"

	"pier/internal/qp"
	"pier/internal/sim"
	"pier/internal/vri"
)

// topologySeed fixes the simulated network (per-node access latencies)
// across every run: the network is a fixture of the benchmark, not a
// generated input, so virtual-time latencies move with protocol
// behaviour and with the generated inputs, never with which hosts the
// topology happened to make slow. Everything else derives from -seed.
const topologySeed = 20050104

// simCluster is a converged ring of PIER nodes in one simulator.
type simCluster struct {
	env   *sim.Env
	nodes []*qp.Node
}

// newSimEnv creates the simulator every sim workload runs in: the fixed
// star topology and a node-randomness seed derived from the run seed.
func newSimEnv(seed int64, workers int) *sim.Env {
	env := sim.NewEnv(sim.Options{
		Seed: seed,
		Topology: sim.NewStar(sim.StarConfig{
			MinAccess: 20 * time.Millisecond,
			MaxAccess: 60 * time.Millisecond,
			Seed:      topologySeed,
		}),
	})
	env.SetWorkers(workers)
	return env
}

// buildCluster spawns n PIER nodes, joins them through node 0 in
// staggered batches and runs until every node has a successor, a
// predecessor and log2(n)-1 fingers — experiments.BuildCluster's
// procedure, repeated here because that function hands *sim.Node to
// qp.NewNode itself and the traced run has to hand it a decorator. wrap
// (nil on untraced runs) decorates each node's runtime.
func buildCluster(env *sim.Env, n int, cfg qp.Config, wrap func(vri.Runtime) vri.Runtime) (*simCluster, error) {
	sims := env.SpawnN("n", n)
	nodes := make([]*qp.Node, n)
	for i, s := range sims {
		var rt vri.Runtime = s
		if wrap != nil {
			rt = wrap(s)
		}
		nodes[i] = qp.NewNode(rt, cfg)
		if err := nodes[i].Start(); err != nil {
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
	}
	var join func(i, attempt int)
	join = func(i, attempt int) {
		nodes[i].Join(nodes[0].Addr(), func(err error) {
			if err != nil && attempt < 10 {
				nodes[i].Runtime().Schedule(2*time.Second, func() { join(i, attempt+1) })
			}
		})
	}
	for joined := 1; joined < n; {
		batch := joined / 2
		if batch < 8 {
			batch = 8
		}
		for j := joined; j < joined+batch && j < n; j++ {
			join(j, 0)
		}
		env.Run(4 * time.Second)
		joined += batch
	}
	env.Run(time.Duration(n/4)*time.Second + 30*time.Second)

	fingerFloor := 1
	for 1<<uint(fingerFloor+2) < n {
		fingerFloor++
	}
	for round := 0; ; round++ {
		unsettled := 0
		for i, nd := range nodes[1:] {
			d := nd.DHT()
			switch {
			case d.Successor() == nd.Addr():
				unsettled++
				join(i+1, 0)
			case d.Predecessor() == "" || d.FingerCount() < fingerFloor:
				unsettled++
			}
		}
		if unsettled == 0 {
			return &simCluster{env: env, nodes: nodes}, nil
		}
		if round == 40 {
			return nil, fmt.Errorf("ring of %d did not converge: %d nodes unsettled", n, unsettled)
		}
		env.Run(15 * time.Second)
	}
}

// stop tears every node down so the leak gauges can be read.
func (c *simCluster) stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
}
