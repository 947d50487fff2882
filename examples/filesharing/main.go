// Filesharing: the paper's first grounding application (§2.2) — a hybrid
// search infrastructure where Gnutella flooding finds widely replicated
// items and PIER's DHT index finds rare items across the whole network.
// This is Figure 1's scenario at demo scale.
//
//	go run ./examples/filesharing
package main

import (
	"fmt"
	"math/rand"
	"time"

	"pier/internal/experiments"
	"pier/internal/gnutella"
	"pier/internal/sim"
	"pier/internal/sqlfront"
	"pier/internal/tuple"
	"pier/internal/workload"
)

func main() {
	env := sim.NewEnv(sim.Options{Seed: 7})
	nodes := experiments.BuildCluster(env, 30, "peer")
	rng := rand.New(rand.NewSource(7))

	// Every host runs both systems: a Gnutella servent and a PIER node.
	peers := make([]*gnutella.Peer, len(nodes))
	for i, n := range nodes {
		p, err := gnutella.NewPeer(n.Runtime(), gnutella.Config{DefaultTTL: 2})
		if err != nil {
			panic(err)
		}
		peers[i] = p
	}
	gnutella.WireRandomGraph(peers, 3, rng)

	// A Zipf catalog: popular files widely replicated, rare files on a
	// couple of peers.
	cat := workload.NewCatalog(workload.CatalogConfig{
		NumFiles: 150, VocabSize: 60, MaxReplicas: 15, RareMax: 2, Seed: 8,
	})
	for _, f := range cat.Files {
		for _, h := range rng.Perm(len(nodes))[:f.Replicas] {
			peers[h].Share(f.Name, f.Keywords)
			for _, kw := range f.Keywords {
				nodes[h].Publish("fileindex", []string{"keyword"},
					tuple.New("fileindex").
						Set("keyword", tuple.String(kw)).
						Set("file", tuple.String(f.Name)),
					4*time.Hour, nil)
			}
		}
	}
	env.Run(60 * time.Second)

	rare := cat.RareFiles()[0]
	fmt.Printf("searching for the rare file %q (%d replicas of %d nodes)\n\n",
		rare.Name, rare.Replicas, len(nodes))

	// 1. Gnutella flood: may or may not reach a replica within the TTL
	//    horizon. Both searches start at nodes[0], and their callbacks run
	//    as its events, so they read its clock: the environment clock
	//    only advances between runs.
	origin := nodes[0].Runtime()
	start := env.Now()
	found := false
	peers[0].Search(rare.Keywords, func(h gnutella.Hit) {
		if !found {
			found = true
			fmt.Printf("gnutella: hit at %s after %v\n", h.Peer, origin.Now().Sub(start))
		}
	})
	env.Run(20 * time.Second)
	if !found {
		fmt.Println("gnutella: no result within 20s — the rare item sits outside the flood horizon")
	}

	// 2. PIER: an equality lookup on the published keyword index reaches
	//    exactly the node owning that key's partition (§3.3.3).
	plan, err := sqlfront.Run("rarelookup",
		fmt.Sprintf("SELECT file FROM fileindex WHERE keyword = '%s' TIMEOUT 15s", rare.Keywords[1]),
		sqlfront.Options{TableIndexes: map[string][]string{"fileindex": {"keyword"}}})
	if err != nil {
		panic(err)
	}
	start = env.Now()
	got := false
	if err := nodes[0].Submit(plan, "demo", func(t *tuple.Tuple) {
		if !got {
			got = true
			f, _ := t.Get("file")
			fmt.Printf("pier:     found %s after %v via the DHT index\n", f, origin.Now().Sub(start))
		}
	}, nil); err != nil {
		panic(err)
	}
	env.Run(20 * time.Second)
	if !got {
		fmt.Println("pier: lookup failed (unexpected)")
	}
}
