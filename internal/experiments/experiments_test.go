package experiments

import (
	"strings"
	"testing"
	"time"

	"pier/internal/workload"
)

// These tests run scaled-down versions of every experiment harness so
// the full suite stays fast; the benches at the repository root run the
// paper-scale configurations.

func TestFigure1ShapeSmall(t *testing.T) {
	res := RunFigure1(Figure1Config{
		Nodes:   24,
		Queries: 25,
		Seed:    101,
		Catalog: workload.CatalogConfig{
			NumFiles: 120, VocabSize: 60, ZipfS: 1.0,
			MaxReplicas: 12, RareMax: 2, Seed: 102,
		},
	})
	pierHits, pierMisses := res.PierRare.Count()
	gAllHits, _ := res.GnutellaAll.Count()
	gRareHits, gRareMisses := res.GnutellaRare.Count()

	// The headline Figure-1 claims, in shape:
	// 1. PIER answers (almost) every rare query; Gnutella misses many.
	pierRecall := float64(pierHits) / float64(pierHits+pierMisses)
	gRareRecall := float64(gRareHits) / float64(gRareHits+gRareMisses)
	if pierRecall < 0.9 {
		t.Errorf("PIER rare recall = %.2f, want >= 0.9", pierRecall)
	}
	if gRareRecall >= pierRecall {
		t.Errorf("Gnutella rare recall %.2f should trail PIER %.2f", gRareRecall, pierRecall)
	}
	// 2. Gnutella on the full mix does much better than on rare items.
	gAllRecall := float64(gAllHits) / float64(25)
	if gAllRecall <= gRareRecall {
		t.Errorf("Gnutella(all) recall %.2f should beat Gnutella(rare) %.2f", gAllRecall, gRareRecall)
	}
	// 3. The rendered table contains all three series.
	table := res.Render()
	for _, s := range []string{"PIER(rare)", "Gnutella(all)", "Gnutella(rare)"} {
		if !strings.Contains(table, s) {
			t.Errorf("render missing %s", s)
		}
	}
}

func TestFigure2TopKSmall(t *testing.T) {
	res := RunFigure2(Figure2Config{
		Nodes: 40, EventsPerNode: 25, Sources: 120, K: 10, Seed: 103,
	})
	if len(res.Got) != 10 {
		t.Fatalf("got %d rows, want 10", len(res.Got))
	}
	// The distributed ranking must recover the heavy hitters: the true
	// top source must rank first with the exact count, and the overlap
	// with truth must be high.
	if res.Got[0].Src != res.Truth[0].Src {
		t.Errorf("top source = %s, truth %s", res.Got[0].Src, res.Truth[0].Src)
	}
	if res.Got[0].Count != res.Truth[0].Count {
		t.Errorf("top count = %d, truth %d", res.Got[0].Count, res.Truth[0].Count)
	}
	if ov := res.TopOverlap(); ov < 8 {
		t.Errorf("top-10 overlap = %d, want >= 8", ov)
	}
	// Counts must be non-increasing (a ranking).
	for i := 1; i < len(res.Got); i++ {
		if res.Got[i].Count > res.Got[i-1].Count {
			t.Errorf("ranking not sorted at %d", i)
		}
	}
}

func TestJoinStrategiesAgreeOnResults(t *testing.T) {
	res := RunJoinStrategies(JoinStrategiesConfig{
		Nodes: 10, OuterSize: 600, InnerSize: 20, MatchFraction: 0.05, Seed: 104,
	})
	if len(res.Outcomes) != 3 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	want := res.Outcomes[0].Results
	if want == 0 {
		t.Fatal("symmetric-hash join found nothing")
	}
	for _, o := range res.Outcomes[1:] {
		if o.Results != want {
			t.Errorf("%s produced %d results, symmetric-hash produced %d", o.Strategy, o.Results, want)
		}
	}
	// Bloom must ship fewer bytes than the plain rehash (the point of
	// the rewrite at 10% selectivity).
	var plain, bloomed JoinStrategyOutcome
	for _, o := range res.Outcomes {
		switch o.Strategy {
		case "symmetric-hash":
			plain = o
		case "bloom-rehash":
			bloomed = o
		}
	}
	if bloomed.Bytes >= plain.Bytes {
		t.Errorf("bloom-rehash bytes %d not below symmetric-hash bytes %d", bloomed.Bytes, plain.Bytes)
	}
}

func TestHierAggReducesRootInBandwidth(t *testing.T) {
	// Batched result shipping (one frame per sender per window) moved the
	// direct strategy's crossover point: below ~100 nodes its root now
	// absorbs less than the tree's dissemination overhead costs. The
	// paper's regime — many senders converging on one rendezvous — needs
	// the larger ring for the tree's en-route merging to pay off.
	res := RunHierAgg(HierAggConfig{Nodes: 128, TuplesPerNode: 10, Groups: 12, Seed: 105})
	var direct, hier HierAggOutcome
	for _, o := range res.Outcomes {
		if o.Strategy == "direct" {
			direct = o
		} else {
			hier = o
		}
	}
	if !direct.Correct || !hier.Correct {
		t.Fatalf("correctness: direct=%v hier=%v", direct.Correct, hier.Correct)
	}
	// Bandwidth is the paper's metric (§3.3.4): with windows shipping as
	// one batched frame per sender, message counts no longer scale with
	// group count on either strategy, but the direct root still absorbs
	// every sender's payload while the tree merges partials en route.
	if hier.RootBytesIn >= direct.RootBytesIn {
		t.Errorf("hierarchical root in-bytes %d not below direct %d", hier.RootBytesIn, direct.RootBytesIn)
	}
}

func TestChurnLookupsSurvive(t *testing.T) {
	res := RunChurn(ChurnConfig{
		Nodes: 24, MeanSession: 90 * time.Second,
		Duration: 90 * time.Second, Lookups: 30, Seed: 106,
	})
	if res.NodesKilled == 0 {
		t.Fatal("churn driver killed nobody")
	}
	if res.SuccessPercent < 80 {
		t.Errorf("lookup success %.1f%% under churn, want >= 80%%", res.SuccessPercent)
	}
}

func TestSoftStateTradeoff(t *testing.T) {
	res := RunSoftState(SoftStateConfig{
		Nodes:     12,
		Lifetimes: []time.Duration{15 * time.Second, 60 * time.Second},
		Horizon:   3 * time.Minute,
		Objects:   10,
		Seed:      107,
	})
	if len(res.Outcomes) != 2 {
		t.Fatal("want 2 outcomes")
	}
	short, long := res.Outcomes[0], res.Outcomes[1]
	// Shorter lifetime must cost more renews (§3.2.3: "shorter lifetimes
	// require more work by the publisher").
	if short.RenewsSent <= long.RenewsSent {
		t.Errorf("short lifetime renews %d not above long %d", short.RenewsSent, long.RenewsSent)
	}
}
