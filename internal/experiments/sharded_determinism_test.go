package experiments

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pier/internal/workload"
)

// These tests lock in the tentpole property of the harness port: every
// BuildCluster-based figure and ablation harness produces bit-identical
// results on the sequential Main Scheduler (workers=0) and the sharded
// scheduler at eight workers, for the same seed — mirroring
// TestShardedMatchesSequential in internal/sim and the churnagg tests.
// reflect.DeepEqual covers unexported state too (e.g. the latency
// recorders' full sample series), so any scheduler-dependent divergence
// — a stray env clock read inside a node event, a map-order message
// sequence, driver state mutated from a node callback — fails the diff.
//
// Configurations are scaled down so the whole file stays tractable on
// one CPU; the paper-scale runs live in bench_test.go and the CI smoke
// lane.

func TestFigure1ShardedMatchesSequential(t *testing.T) {
	cfg := Figure1Config{
		Nodes:   16,
		Queries: 8,
		Seed:    201,
		Catalog: workload.CatalogConfig{
			NumFiles: 60, VocabSize: 40, ZipfS: 1.0,
			MaxReplicas: 8, RareMax: 2, Seed: 202,
		},
	}
	cfg.Workers = 0
	seq := RunFigure1(cfg)
	cfg.Workers = 8
	par := RunFigure1(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Figure 1 diverged:\nseq: %+v (render:\n%s)\npar: %+v (render:\n%s)",
			seq, seq.Render(), par, par.Render())
	}
	if h, m := seq.PierRare.Count(); h+m == 0 {
		t.Fatal("degenerate run: no PIER queries recorded")
	}
}

func TestFigure2ShardedMatchesSequential(t *testing.T) {
	cfg := Figure2Config{Nodes: 24, EventsPerNode: 12, Sources: 60, Seed: 203}
	cfg.Workers = 0
	seq := RunFigure2(cfg)
	cfg.Workers = 8
	par := RunFigure2(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Figure 2 diverged:\nseq: %+v\npar: %+v", seq, par)
	}
	if len(seq.Got) == 0 || seq.Events == 0 {
		t.Fatalf("degenerate run: %+v", seq)
	}
}

func TestJoinStrategiesShardedMatchesSequential(t *testing.T) {
	cfg := JoinStrategiesConfig{
		Nodes: 8, OuterSize: 120, InnerSize: 12, MatchFraction: 0.1, Seed: 204,
	}
	cfg.Workers = 0
	seq := RunJoinStrategies(cfg)
	cfg.Workers = 8
	par := RunJoinStrategies(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("join strategies diverged:\nseq: %+v\npar: %+v", seq, par)
	}
	for _, o := range seq.Outcomes {
		if o.Results == 0 {
			t.Fatalf("degenerate run: %s found nothing", o.Strategy)
		}
	}
}

func TestHierAggShardedMatchesSequential(t *testing.T) {
	cfg := HierAggConfig{Nodes: 16, TuplesPerNode: 6, Groups: 3, Seed: 205}
	cfg.Workers = 0
	seq := RunHierAgg(cfg)
	cfg.Workers = 8
	par := RunHierAgg(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("hieragg diverged:\nseq: %+v\npar: %+v", seq, par)
	}
	for _, o := range seq.Outcomes {
		if !o.Correct {
			t.Fatalf("degenerate run: %s incorrect", o.Strategy)
		}
	}
}

func TestChurnShardedMatchesSequential(t *testing.T) {
	cfg := ChurnConfig{
		Nodes: 16, MeanSession: 60 * time.Second,
		Duration: 60 * time.Second, Lookups: 10, Seed: 206,
	}
	cfg.Workers = 0
	seq := RunChurn(cfg)
	cfg.Workers = 8
	par := RunChurn(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("churn diverged:\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.NodesKilled == 0 {
		t.Fatal("degenerate run: churn killed nobody")
	}
}

func TestSoftStateShardedMatchesSequential(t *testing.T) {
	cfg := SoftStateConfig{
		Nodes:     10,
		Lifetimes: []time.Duration{15 * time.Second, 45 * time.Second},
		Horizon:   90 * time.Second,
		Objects:   6,
		Seed:      207,
	}
	cfg.Workers = 0
	seq := RunSoftState(cfg)
	cfg.Workers = 8
	par := RunSoftState(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("softstate diverged:\nseq: %+v\npar: %+v", seq, par)
	}
	for _, o := range seq.Outcomes {
		if o.RenewsSent == 0 {
			t.Fatalf("degenerate run: no renews at %v", o.Lifetime)
		}
	}
}

func TestDisseminationShardedMatchesSequential(t *testing.T) {
	cfg := DisseminationConfig{Nodes: 16, Seed: 208}
	cfg.Workers = 0
	seq := RunDissemination(cfg)
	cfg.Workers = 8
	par := RunDissemination(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("dissemination diverged:\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.BroadcastExec == 0 {
		t.Fatal("degenerate run: broadcast reached nobody")
	}
}

func TestQStormShardedMatchesSequential(t *testing.T) {
	cfg := QStormConfig{
		Nodes: 10, Queries: 12, FlushEvery: 4 * time.Second,
		Duration: 12 * time.Second, EventsPerNode: 10, Sources: 24,
		Seed: 209,
	}
	cfg.Workers = 0
	seq := RunQStorm(cfg)
	cfg.Workers = 8
	par := RunQStorm(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("qstorm diverged:\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.Completed != cfg.Queries || seq.ResultRows == 0 {
		t.Fatalf("degenerate run: %+v", seq)
	}
	if seq.Malformed != 0 {
		t.Fatalf("qstorm saw malformed drops: %+v", seq)
	}
	if seq.LeakedSubscriptions != 0 || seq.LeakedGraphs != 0 {
		t.Fatalf("qstorm leaked runtime state: %+v", seq)
	}
	// The multi-tenant invariants at small scale: decode work, operator
	// execution, and flush work must be ~Q-fold below their per-query
	// baselines.
	if seq.Decodes != seq.Publishes {
		t.Fatalf("decode-once violated: %d decodes for %d publishes", seq.Decodes, seq.Publishes)
	}
	if seq.DecodeBaseline != seq.Publishes*uint64(cfg.Queries) {
		t.Fatalf("baseline accounting off: %+v", seq)
	}
	// Subtree sharing: the Q same-shape queries resolve to ONE chain per
	// node (one build, Q-1 hits), each publish executes exactly one
	// chain, and the wheel flushes chains, not queries. (Before PR 8
	// this asserted ChainFlushes == fires × Q — one flush per query per
	// tick; the shared chain makes flush work O(1) in Q by design.)
	if seq.SubtreeBuilds != uint64(cfg.Nodes) || seq.SubtreeHits != uint64(cfg.Nodes*(cfg.Queries-1)) {
		t.Fatalf("subtree cache off: builds=%d hits=%d, want %d/%d",
			seq.SubtreeBuilds, seq.SubtreeHits, cfg.Nodes, cfg.Nodes*(cfg.Queries-1))
	}
	if seq.ChainFeeds != seq.Publishes {
		t.Fatalf("execute-once violated: %d chain feeds for %d publishes", seq.ChainFeeds, seq.Publishes)
	}
	if seq.ChainFeedBaseline != seq.Publishes*uint64(cfg.Queries) {
		t.Fatalf("chain-feed baseline off: %+v", seq)
	}
	if seq.ChainFlushes != seq.FlushTimerFires {
		t.Fatalf("flush sharing off: fires=%d drove %d chain flushes, want 1 per fire", seq.FlushTimerFires, seq.ChainFlushes)
	}
	if seq.FlushBaseline != seq.FlushTimerFires*uint64(cfg.Queries) {
		t.Fatalf("flush baseline off: fires=%d baseline=%d", seq.FlushTimerFires, seq.FlushBaseline)
	}
	if seq.SharedExecFanout == 0 {
		t.Fatal("no result rows flowed through shared chains")
	}
	if seq.LeakedSubtrees != 0 || seq.LeakedAttachments != 0 || seq.LeakedClients != 0 {
		t.Fatalf("qstorm leaked sharing state: %+v", seq)
	}
}

// TestQStormSharedMixedShapesMatchesSequential locks in the shared-
// subtree storm under heterogeneous load: several structurally distinct
// shapes, several client identities, and a per-client quota tight
// enough to refuse part of the population. Output must stay
// bit-identical across schedulers AND the quota refusals must be
// explicit, per-client, and leak-free.
func TestQStormSharedMixedShapesMatchesSequential(t *testing.T) {
	cfg := QStormConfig{
		Nodes: 10, Queries: 18, Shapes: 3, Clients: 3,
		MaxGraphsPerClient: 4,
		FlushEvery:         4 * time.Second,
		Duration:           12 * time.Second, EventsPerNode: 10, Sources: 24,
		Seed: 210,
	}
	cfg.Workers = 0
	seq := RunQStorm(cfg)
	cfg.Workers = 8
	par := RunQStorm(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("mixed-shape qstorm diverged:\nseq: %+v\npar: %+v", seq, par)
	}
	// 3 shapes → 3 chains per node; every query beyond the first of its
	// shape on a node hits the cache.
	if seq.PeakSharedSubtrees != cfg.Nodes*cfg.Shapes {
		t.Fatalf("PeakSharedSubtrees = %d, want %d", seq.PeakSharedSubtrees, cfg.Nodes*cfg.Shapes)
	}
	// 18 queries / 3 clients = 6 each against a quota of 4: every node
	// refuses 2 per client, and the refusals are attributed.
	if seq.QuotaRejects == 0 || len(seq.ClientRejects) != cfg.Clients {
		t.Fatalf("quota did not fire per client: %+v", seq)
	}
	wantQuota := uint64(cfg.Nodes * cfg.Clients * 2)
	if seq.QuotaRejects != wantQuota {
		t.Fatalf("QuotaRejects = %d, want %d", seq.QuotaRejects, wantQuota)
	}
	if seq.RejectAcks != seq.Rejected || seq.Rejected != seq.QuotaRejects {
		t.Fatalf("quota refusals not acked: %+v", seq)
	}
	// Admitted queries still complete and produce rows.
	if seq.Completed != cfg.Queries || seq.ResultRows == 0 {
		t.Fatalf("admitted queries incomplete: %+v", seq)
	}
	if seq.LeakedSubscriptions != 0 || seq.LeakedGraphs != 0 ||
		seq.LeakedSubtrees != 0 || seq.LeakedAttachments != 0 || seq.LeakedClients != 0 {
		t.Fatalf("mixed-shape storm leaked: %+v", seq)
	}
}

// TestScenarioShardedMatchesSequentialWithLoss drives the full scenario
// stack — environment-level LossRate, a healing partition, a lossy link
// override, and a kill — and requires the byte-for-byte report to match
// between the sequential and sharded schedulers. This is the regression
// net for the loss-determinism contract: every loss draw (base rate and
// per-link override) comes from the sender's stream, so the verdict of
// each coin flip is independent of which shard pops the delivery.
func TestScenarioShardedMatchesSequentialWithLoss(t *testing.T) {
	spec := scenarioLossSpec()
	if spec.Network.LossRate <= 0 {
		t.Fatal("spec must exercise LossRate > 0")
	}
	seq := RunScenario(spec, 0)
	par := RunScenario(spec, 8)
	if seq.Report != par.Report {
		t.Fatalf("scenario report diverged under loss:\nseq:\n%s\npar:\n%s", seq.Report, par.Report)
	}
	if !seq.Passed {
		t.Fatalf("degenerate run, scenario failed:\n%s", seq.Report)
	}
	if !strings.Contains(seq.Report, "loss-rate=0.050") {
		t.Fatalf("report does not show the loss rate:\n%s", seq.Report)
	}
}

// TestRetryDeterminismUnderHeavyLoss is the sharded-determinism net for
// the query plane's retry machinery: at LossRate 0.2 a meaningful
// fraction of result sends, admit acks, and tree forwards nack and
// re-enter the backoff path, whose jitter draws come from each node's
// OWN rng. The report — including the reliability counters themselves —
// must stay byte-identical between the sequential and eight-worker
// schedulers, proving no retry timer or jitter draw depends on which
// shard observed the nack.
func TestRetryDeterminismUnderHeavyLoss(t *testing.T) {
	spec, err := ParseScenario(`
name: retry-loss
seed: 23
nodes: 8
duration: 30s
teardown: 12s
network:
  loss-rate: 0.2
workload:
  - kind: continuous-agg
    queries: 4
    flush-every: 4s
    events-per-node: 10
    sources: 16
assert:
  min-result-rows: 1
`)
	if err != nil {
		t.Fatal(err)
	}
	seq := RunScenario(spec, 0)
	par := RunScenario(spec, 8)
	if seq.Report != par.Report {
		t.Fatalf("retry schedules diverged under loss:\nseq:\n%s\npar:\n%s", seq.Report, par.Report)
	}
	if !seq.Passed {
		t.Fatalf("degenerate run, scenario failed:\n%s", seq.Report)
	}
	// The run must actually have exercised the retry path: at 20% loss
	// a zero retry count means the counters are disconnected.
	if strings.Contains(seq.Report, "send-retries=0 ") {
		t.Fatalf("no retries recorded at LossRate 0.2:\n%s", seq.Report)
	}
}

// TestTreeRepairScenarioShardedMatchesSequential runs the checked-in
// tree-repair scenario — redundant trees, interior kills, respawns,
// completeness assertions — from its YAML source, so the CI smoke lane
// and this determinism diff exercise the same spec. The report must be
// bit-identical between schedulers and must show the nack-repair
// counters firing.
func TestTreeRepairScenarioShardedMatchesSequential(t *testing.T) {
	src, err := os.ReadFile("../../scenarios/tree-repair.yaml")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseScenario(string(src))
	if err != nil {
		t.Fatal(err)
	}
	seq := RunScenario(spec, 0)
	par := RunScenario(spec, 8)
	if seq.Report != par.Report {
		t.Fatalf("tree-repair report diverged:\nseq:\n%s\npar:\n%s", seq.Report, par.Report)
	}
	if !seq.Passed {
		t.Fatalf("tree-repair scenario failed:\n%s", seq.Report)
	}
	if strings.Contains(seq.Report, "tree-repairs=0 ") {
		t.Fatalf("kill did not drive nack repair:\n%s", seq.Report)
	}
	if !strings.Contains(seq.Report, "assert min-completeness >= 0.90: PASS") {
		t.Fatalf("completeness assertion missing or failing:\n%s", seq.Report)
	}
}

// TestQStormMixedScenarioShardedMatchesSequential runs the checked-in
// qstorm-mixed scenario — eight distinct-shape window queries, so every
// node's table bus holds arrivals for eight gated chains and releases
// them at each flush, with a mid-run kill and respawn — and diffs the
// report between schedulers.
func TestQStormMixedScenarioShardedMatchesSequential(t *testing.T) {
	src, err := os.ReadFile("../../scenarios/qstorm-mixed.yaml")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseScenario(string(src))
	if err != nil {
		t.Fatal(err)
	}
	seq := RunScenario(spec, 0)
	par := RunScenario(spec, 8)
	if seq.Report != par.Report {
		t.Fatalf("qstorm-mixed report diverged:\nseq:\n%s\npar:\n%s", seq.Report, par.Report)
	}
	if !seq.Passed {
		t.Fatalf("qstorm-mixed scenario failed:\n%s", seq.Report)
	}
}

// TestQStormAggScenarioShardedMatchesSequential runs the checked-in
// qstorm-agg scenario — 500 shared-shape continuous aggregations whose
// window flushes travel the columnar EmitBatch → demux → batched-result
// path, with a mid-run kill and respawn — from its YAML source, so the
// CI smoke lane and this determinism diff exercise the same spec. The
// batched result frames must not introduce worker-count-dependent
// ordering: the report is bit-identical between schedulers.
func TestQStormAggScenarioShardedMatchesSequential(t *testing.T) {
	src, err := os.ReadFile("../../scenarios/qstorm-agg.yaml")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseScenario(string(src))
	if err != nil {
		t.Fatal(err)
	}
	seq := RunScenario(spec, 0)
	par := RunScenario(spec, 8)
	if seq.Report != par.Report {
		t.Fatalf("qstorm-agg report diverged:\nseq:\n%s\npar:\n%s", seq.Report, par.Report)
	}
	if !seq.Passed {
		t.Fatalf("qstorm-agg scenario failed:\n%s", seq.Report)
	}
	if !strings.Contains(seq.Report, "assert recovered-rows >= 50: PASS") {
		t.Fatalf("post-respawn recovery assertion missing or failing:\n%s", seq.Report)
	}
	if !strings.Contains(seq.Report, "assert no-leaks: PASS") {
		t.Fatalf("leak assertion missing or failing:\n%s", seq.Report)
	}
}
