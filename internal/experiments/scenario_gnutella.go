package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"pier/internal/gnutella"
	"pier/internal/workload"
)

// gnutellaFlood is `kind: gnutella-flood`: a flash crowd of count
// concurrent flood searches at time at over Gnutella peers co-located
// with the PIER nodes (degree degree, TTL ttl) sharing a small catalog,
// each cancelled after timeout. A scenario holds at most one: its overlay
// is wired once, before the horizon.
type gnutellaFlood struct {
	workloadBase
	count, ttl, degree int
	at, timeout        time.Duration
	decoded            bool

	// Run state: the overlay, the search mix, and whether each search
	// hit — written only by events on its origin node (a per-node
	// collector), read by the driver after the run.
	peers []*gnutella.Peer
	mix   *workload.QueryMix
	hits  []*bool
}

func (k *gnutellaFlood) decode(f *fields, spec *ScenarioSpec) error {
	if k.decoded {
		return decodeErr{f.v.line, "at most one gnutella-flood workload per scenario (its overlay is wired once)"}
	}
	k.count, k.at, k.ttl, k.degree, k.timeout, k.decoded = 12, 5*time.Second, 3, 3, 10*time.Second, true
	return firstErr(
		f.intField("count", &k.count),
		f.durField("at", &k.at),
		f.intField("ttl", &k.ttl),
		f.intField("degree", &k.degree),
		f.durField("timeout", &k.timeout),
		f.done("workload gnutella-flood"),
	)
}

func (k gnutellaFlood) start(r *scenarioRun) (workloadKind, bool) {
	k.r = r
	nodes := r.nodes
	k.peers = make([]*gnutella.Peer, len(nodes))
	for i, n := range nodes {
		p, err := gnutella.NewPeer(n.Runtime(), gnutella.Config{DefaultTTL: k.ttl})
		if err != nil {
			panic(err)
		}
		k.peers[i] = p
	}
	gnutella.WireRandomGraph(k.peers, k.degree, r.rng)
	cat := workload.NewCatalog(workload.CatalogConfig{
		NumFiles: 40, VocabSize: 30, ZipfS: 1.0,
		MaxReplicas: len(nodes) / 2, RareMax: 2, Seed: r.spec.Seed + 31,
	})
	for _, f := range cat.Files {
		hosts := r.rng.Perm(len(nodes))[:min(f.Replicas, len(nodes))]
		for _, h := range hosts {
			k.peers[h].Share(f.Name, f.Keywords)
		}
	}
	k.mix = workload.NewQueryMix(cat, r.spec.Seed+37)
	return &k, true
}

func (k *gnutellaFlood) arm() {
	r := k.r
	r.env.Schedule(k.at, func() {
		live := r.liveQP()
		var cancels []func()
		for q := 0; q < k.count; q++ {
			oi := r.rng.Intn(len(r.nodes))
			if !slices.Contains(live, r.nodes[oi].Addr()) {
				continue // flash crowds don't originate at dead hosts
			}
			p := k.peers[oi]
			keywords, _ := k.mix.Next()
			hit := new(bool)
			id := p.Search(keywords, func(gnutella.Hit) { *hit = true })
			k.hits = append(k.hits, hit)
			cancels = append(cancels, func() { p.Cancel(id) })
		}
		r.tl("gnutella flash crowd: %d searches", len(cancels))
		r.env.Schedule(k.timeout, func() {
			for _, cancel := range cancels {
				cancel()
			}
		})
	})
}

func (k *gnutellaFlood) report(b *strings.Builder, check checkFunc) (submitted, done int) {
	hits := 0
	for _, hit := range k.hits {
		if *hit {
			hits++
		}
	}
	if len(k.hits) > 0 {
		fmt.Fprintf(b, "  gnutella-flood: searches=%d hits=%d\n", len(k.hits), hits)
	}
	return 0, 0
}
