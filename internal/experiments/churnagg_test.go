package experiments

import (
	"testing"
	"time"
)

// sameOutcome compares everything except the Workers field, which is
// the one knob allowed to differ.
func sameOutcome(a, b ChurnAggResult) bool {
	a.Workers, b.Workers = 0, 0
	return a == b
}

// TestChurnAggDeterministic is the tentpole acceptance test: one seed,
// one experiment, run at one worker and at eight workers, must produce
// bit-identical outcomes (root totals, per-epoch digest, traffic and
// event counts, churn accounting).
func TestChurnAggDeterministic(t *testing.T) {
	cfg := ChurnAggConfig{
		Nodes:          1200,
		Fanout:         16,
		ReportInterval: time.Second,
		Duration:       30 * time.Second,
		ChurnInterval:  5 * time.Second,
		ChurnBatch:     8,
		Seed:           42,
	}
	cfg.Workers = 1
	one := RunChurnAgg(cfg)
	cfg.Workers = 8
	eight := RunChurnAgg(cfg)
	if !sameOutcome(one, eight) {
		t.Fatalf("workers=1 and workers=8 diverged:\n1: %+v\n8: %+v", one, eight)
	}
	if one.RootEpochs == 0 || one.RootTotal == 0 || one.RootReports == 0 {
		t.Fatalf("degenerate run: %+v", one)
	}
	if one.Failed == 0 || one.Reparented == 0 {
		t.Fatalf("churn never exercised failure paths: %+v", one)
	}
}

// TestChurnAggShardedMatchesSequential locks in that four worker shards
// reproduce the default single inline shard's outcome for this workload
// exactly.
func TestChurnAggShardedMatchesSequential(t *testing.T) {
	cfg := ChurnAggConfig{
		Nodes:          600,
		Fanout:         16,
		ReportInterval: time.Second,
		Duration:       20 * time.Second,
		ChurnInterval:  5 * time.Second,
		ChurnBatch:     4,
		Seed:           7,
	}
	cfg.Workers = 0
	seq := RunChurnAgg(cfg)
	cfg.Workers = 4
	par := RunChurnAgg(cfg)
	if !sameOutcome(seq, par) {
		t.Fatalf("workers=0 and workers=4 outcomes diverged:\nworkers=0: %+v\nworkers=4: %+v", seq, par)
	}
}

// TestChurnAgg10kSharded runs the scenario at the paper's 10k-node
// scale with workers enabled — the configuration the sharded scheduler
// exists for. It asserts structural sanity, not exact values, so the
// scale can be exercised without a golden file.
func TestChurnAgg10kSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node scenario skipped in -short mode")
	}
	res := RunChurnAgg(ChurnAggConfig{
		Nodes:    10000,
		Workers:  8,
		Duration: 30 * time.Second,
		Seed:     1,
	})
	if res.RootEpochs < 25 {
		t.Fatalf("root completed %d epochs, want >= 25", res.RootEpochs)
	}
	// Every live node contributes ~4.5 counts/epoch on average; with
	// propagation delay and churn the root should still have folded in
	// a large fraction of ~10k*4.5*epochs.
	if res.RootTotal < 500_000 {
		t.Fatalf("root total %d implausibly small for 10k nodes over 30s", res.RootTotal)
	}
	if res.RootReports == 0 || res.Failed == 0 {
		t.Fatalf("degenerate 10k run: %+v", res)
	}
	t.Logf("10k-node churn+aggregation: %+v", res)
}
