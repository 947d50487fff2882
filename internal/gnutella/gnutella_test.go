package gnutella

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/sim"
)

func buildNetwork(t *testing.T, seed int64, n, degree int) (*sim.Env, []*Peer) {
	t.Helper()
	env := sim.NewEnv(sim.Options{Seed: seed})
	nodes := env.SpawnN("g", n)
	peers := make([]*Peer, n)
	for i, nd := range nodes {
		p, err := NewPeer(nd, Config{})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	WireRandomGraph(peers, degree, env.Rand())
	return env, peers
}

func TestLocalHitImmediate(t *testing.T) {
	env, peers := buildNetwork(t, 1, 4, 3)
	peers[0].Share("song.mp3", []string{"song", "music"})
	var hits []Hit
	peers[0].Search([]string{"song"}, func(h Hit) { hits = append(hits, h) })
	env.Run(time.Second)
	if len(hits) != 1 || hits[0].File != "song.mp3" {
		t.Fatalf("hits = %v", hits)
	}
}

func TestFloodFindsRemoteFile(t *testing.T) {
	env, peers := buildNetwork(t, 2, 20, 4)
	peers[15].Share("rare.mp3", []string{"rare", "unique"})
	var hits []Hit
	peers[0].Search([]string{"rare"}, func(h Hit) { hits = append(hits, h) })
	env.Run(10 * time.Second)
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Peer != peers[15].rt.Addr() {
		t.Errorf("hit came from %s", hits[0].Peer)
	}
}

func TestMultiKeywordANDSemantics(t *testing.T) {
	env, peers := buildNetwork(t, 3, 10, 3)
	peers[4].Share("both.mp3", []string{"alpha", "beta"})
	peers[5].Share("onlyalpha.mp3", []string{"alpha"})
	var hits []Hit
	peers[0].Search([]string{"alpha", "beta"}, func(h Hit) { hits = append(hits, h) })
	env.Run(10 * time.Second)
	if len(hits) != 1 || hits[0].File != "both.mp3" {
		t.Fatalf("AND semantics violated: %v", hits)
	}
}

func TestTTLBoundsReach(t *testing.T) {
	// A line topology: TTL 2 cannot reach a file 5 hops away.
	env := sim.NewEnv(sim.Options{Seed: 4})
	nodes := env.SpawnN("g", 8)
	peers := make([]*Peer, len(nodes))
	for i, nd := range nodes {
		p, err := NewPeer(nd, Config{})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		if i > 0 {
			p.AddNeighbor(peers[i-1].rt.Addr())
			peers[i-1].AddNeighbor(p.rt.Addr())
		}
	}
	peers[7].Share("far.mp3", []string{"far"})
	var hits []Hit
	peers[0].SearchTTL([]string{"far"}, 2, func(h Hit) { hits = append(hits, h) })
	env.Run(10 * time.Second)
	if len(hits) != 0 {
		t.Fatalf("TTL 2 reached 7 hops: %v", hits)
	}
	// TTL 7 reaches it.
	peers[0].SearchTTL([]string{"far"}, 7, func(h Hit) { hits = append(hits, h) })
	env.Run(10 * time.Second)
	if len(hits) != 1 {
		t.Fatalf("TTL 7 did not reach: %v", hits)
	}
}

func TestDuplicateSuppressionBoundsTraffic(t *testing.T) {
	env, peers := buildNetwork(t, 5, 15, 4)
	peers[0].Search([]string{"nothing"}, nil)
	env.Run(10 * time.Second)
	// Each peer processes the query at most once.
	for i, p := range peers {
		seen, _ := p.Stats()
		if seen > 1 {
			t.Errorf("peer %d processed query %d times", i, seen)
		}
	}
}

func TestReplicatedContentFoundFaster(t *testing.T) {
	// The Figure-1 mechanism in miniature: a widely replicated file is
	// found strictly sooner than a singleton file in the same network.
	env, peers := buildNetwork(t, 6, 40, 4)
	for i := 0; i < 20; i++ { // popular: half the network shares it
		peers[(i*2+1)%40].Share("popular.mp3", []string{"popular"})
	}
	peers[33].Share("rare.mp3", []string{"rareword"})

	// Hits arrive in peers[0]'s handlers, so they read its clock: the
	// environment clock only advances at window barriers.
	originRT := peers[0].rt
	start := originRT.Now()
	var popLatency, rareLatency time.Duration
	peers[0].Search([]string{"popular"}, func(Hit) {
		if popLatency == 0 {
			popLatency = originRT.Now().Sub(start)
		}
	})
	peers[0].Search([]string{"rareword"}, func(Hit) {
		if rareLatency == 0 {
			rareLatency = originRT.Now().Sub(start)
		}
	})
	env.Run(30 * time.Second)
	if popLatency == 0 {
		t.Fatal("popular file not found")
	}
	if rareLatency == 0 {
		t.Skip("rare file outside flood horizon for this seed (itself the Figure-1 effect)")
	}
	if popLatency > rareLatency {
		t.Errorf("popular (%v) slower than rare (%v)", popLatency, rareLatency)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		env, peers := buildNetwork(t, 7, 12, 3)
		peers[9].Share("x.mp3", []string{"x"})
		var log string
		originRT := peers[0].rt
		peers[0].Search([]string{"x"}, func(h Hit) {
			log += fmt.Sprintf("%s@%d;", h.File, originRT.Now().UnixNano())
		})
		env.Run(10 * time.Second)
		return log
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %q vs %q", a, b)
	}
}
