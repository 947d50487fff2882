package workload

import (
	"math/rand"
	"testing"
	"time"
)

func TestZipfSkew(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 100, 1.0)
	counts := make([]int, 101)
	for i := 0; i < 20000; i++ {
		counts[z.Rank()]++
	}
	if counts[1] <= counts[10] || counts[10] <= counts[100] {
		t.Errorf("ranks not skewed: r1=%d r10=%d r100=%d", counts[1], counts[10], counts[100])
	}
	// Rank 1 under s=1 over 100 ranks holds ~19% of mass.
	if frac := float64(counts[1]) / 20000; frac < 0.12 || frac > 0.30 {
		t.Errorf("rank-1 mass = %.3f, want ~0.19", frac)
	}
}

func TestZipfBoundsAndDeterminism(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(2)), 10, 1.5)
	for i := 0; i < 1000; i++ {
		r := z.Rank()
		if r < 1 || r > 10 {
			t.Fatalf("rank %d out of bounds", r)
		}
	}
	a := NewZipf(rand.New(rand.NewSource(3)), 50, 1.0)
	b := NewZipf(rand.New(rand.NewSource(3)), 50, 1.0)
	for i := 0; i < 100; i++ {
		if a.Rank() != b.Rank() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestCatalogReplicationCorrelatesWithPopularity(t *testing.T) {
	cat := NewCatalog(CatalogConfig{NumFiles: 300, VocabSize: 80, MaxReplicas: 40, Seed: 4})
	if len(cat.Files) != 300 {
		t.Fatalf("files = %d", len(cat.Files))
	}
	rare, popular := cat.RareFiles(), cat.PopularFiles()
	if len(rare) == 0 || len(popular) == 0 {
		t.Fatalf("degenerate catalog: %d rare, %d popular", len(rare), len(popular))
	}
	for _, f := range rare {
		if f.Replicas > cat.RareMax {
			t.Errorf("rare file %s has %d replicas", f.Name, f.Replicas)
		}
	}
	// Every file must carry its unique keyword for exact lookup.
	seen := map[string]bool{}
	for _, f := range cat.Files {
		if len(f.Keywords) < 2 {
			t.Fatalf("file %s lacks keywords", f.Name)
		}
		uniq := f.Keywords[1]
		if seen[uniq] {
			t.Errorf("unique keyword %s reused", uniq)
		}
		seen[uniq] = true
	}
}

func TestQueryMixSkewsPopular(t *testing.T) {
	cat := NewCatalog(CatalogConfig{NumFiles: 200, Seed: 5})
	mix := NewQueryMix(cat, 6)
	rareHits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		_, f := mix.Next()
		if f.Replicas <= cat.RareMax {
			rareHits++
		}
	}
	// The mixed workload must be mostly popular queries.
	if float64(rareHits)/n > 0.5 {
		t.Errorf("rare fraction %.2f too high for a popularity-skewed mix", float64(rareHits)/n)
	}
	// NextRare must always return rare files.
	for i := 0; i < 200; i++ {
		_, f := mix.NextRare()
		if f.Replicas > cat.RareMax {
			t.Fatalf("NextRare returned popular file %s (%d replicas)", f.Name, f.Replicas)
		}
	}
}

func TestFirewallGenConcentration(t *testing.T) {
	g := NewFirewallGen(7, 500, 1.2)
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[g.Next(time.Unix(0, 0)).Src]++
	}
	// Top source must dominate: the [74] observation.
	top := g.Source(1)
	if float64(counts[top])/n < 0.10 {
		t.Errorf("top source only %.3f of traffic; want heavy concentration", float64(counts[top])/n)
	}
	if counts[top] <= counts[g.Source(50)] {
		t.Error("rank 1 not above rank 50")
	}
}

func TestFirewallEventFieldsPopulated(t *testing.T) {
	g := NewFirewallGen(8, 100, 1.2)
	ev := g.Next(time.Unix(100, 0))
	if ev.Src == "" || ev.DstPort == 0 || ev.Severity < 1 || ev.Severity > 5 {
		t.Errorf("bad event %+v", ev)
	}
	if !ev.At.Equal(time.Unix(100, 0)) {
		t.Error("timestamp not propagated")
	}
}

func TestChurnDistributions(t *testing.T) {
	c := NewChurn(9, time.Minute)
	var sessSum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		s := c.NextSession()
		if s < 0 {
			t.Fatal("negative duration")
		}
		sessSum += s
	}
	meanSess := sessSum / n
	if meanSess < 45*time.Second || meanSess > 80*time.Second {
		t.Errorf("mean session %v, want ~1m", meanSess)
	}
}
