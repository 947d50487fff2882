package experiments

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pier/internal/workload"
)

// These tests lock in the tentpole property of the harness port: every
// BuildCluster-based figure and ablation harness produces bit-identical
// results on one inline scheduler shard (workers=0) and on eight worker
// shards, for the same seed — mirroring TestShardedMatchesSequential
// and TestDispatchOrderGolden in internal/sim.
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

// runStormScenario runs a continuous-agg storm spec at workers 0 and 8,
// requires byte-identical reports and a passing run, and returns the
// counters of the report's "cluster after teardown:", "sharing:" and
// "quota rejects:" lines by key.
func runStormScenario(t *testing.T, src string) (string, map[string]uint64) {
	t.Helper()
	spec, err := ParseScenario(src)
	if err != nil {
		t.Fatal(err)
	}
	seq := RunScenario(spec, 0)
	par := RunScenario(spec, 8)
	if seq.Report != par.Report {
		t.Fatalf("%s report diverged:\nseq:\n%s\npar:\n%s", spec.Name, seq.Report, par.Report)
	}
	if !seq.Passed {
		t.Fatalf("%s scenario failed:\n%s", spec.Name, seq.Report)
	}
	counters := map[string]uint64{}
	for _, line := range strings.Split(seq.Report, "\n") {
		if !strings.HasPrefix(line, "cluster after teardown: ") &&
			!strings.HasPrefix(line, "sharing: ") && !strings.HasPrefix(line, "quota rejects: ") {
			continue
		}
		for _, field := range strings.Fields(line) {
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				continue
			}
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("unparsable counter %q in %q", field, line)
			}
			counters[k] = n
		}
	}
	return seq.Report, counters
}

// TestQStormShardedMatchesSequential: twelve same-shape continuous counts
// on ten nodes. Besides the workers 0 vs 8 diff, the sharing line must
// show the §3.3.2 invariants exactly: one decode and one chain feed per
// publish however many queries read it, one subtree build per node with
// every other attachment a cache hit, and one chain flush per wheel fire.
func TestQStormShardedMatchesSequential(t *testing.T) {
	const nodes, queries, events = 10, 12, 10
	report, c := runStormScenario(t, `
name: storm-same-shape
seed: 209
nodes: 10
duration: 15s
teardown: 12s
workload:
  - kind: continuous-agg
    queries: 12
    flush-every: 4s
    events-per-node: 10
    sources: 24
assert:
  min-result-rows: 1
  all-queries-done: true
  no-leaks: true
`)
	if c["malformed-drops"] != 0 {
		t.Fatalf("storm saw malformed drops:\n%s", report)
	}
	publishes := uint64(nodes * events)
	if c["decodes"] != publishes || c["chain-feeds"] != publishes {
		t.Fatalf("decode/execute-once violated: decodes=%d chain-feeds=%d for %d publishes:\n%s",
			c["decodes"], c["chain-feeds"], publishes, report)
	}
	if c["subtree-builds"] != nodes || c["subtree-hits"] != nodes*(queries-1) {
		t.Fatalf("subtree cache off: builds=%d hits=%d, want %d/%d:\n%s",
			c["subtree-builds"], c["subtree-hits"], nodes, nodes*(queries-1), report)
	}
	if c["flush-fires"] == 0 || c["chain-flushes"] != c["flush-fires"] {
		t.Fatalf("flush-once violated: fires=%d drove %d chain flushes, want 1 per fire:\n%s",
			c["flush-fires"], c["chain-flushes"], report)
	}
	if c["shared-fanout"] == 0 {
		t.Fatalf("no result rows flowed through shared chains:\n%s", report)
	}
}

// TestQStormSharedMixedShapesMatchesSequential: the shared-subtree storm
// under heterogeneous load — three structurally distinct shapes, three
// client identities, and a per-client quota tight enough to refuse part
// of the population. The refusals must be explicit (acked), per client,
// exactly counted, and leak-free.
func TestQStormSharedMixedShapesMatchesSequential(t *testing.T) {
	const nodes, shapes, clients = 10, 3, 3
	report, c := runStormScenario(t, `
name: storm-mixed-shapes
seed: 210
nodes: 10
duration: 15s
teardown: 12s
max-graphs-per-client: 4
workload:
  - kind: continuous-agg
    queries: 18
    shapes: 3
    client: tenant
    clients: 3
    flush-every: 4s
    events-per-node: 10
    sources: 24
assert:
  min-result-rows: 1
  all-queries-done: true
  no-leaks: true
`)
	if c["subtree-builds"] != nodes*shapes {
		t.Fatalf("subtree-builds = %d, want %d (one chain per shape per node):\n%s",
			c["subtree-builds"], nodes*shapes, report)
	}
	// 18 queries / 3 clients = 6 each against a quota of 4: every node
	// refuses 2 per client, and every refusal is acked.
	want := uint64(nodes * clients * 2)
	if c["total"] != want || c["rejected"] != want || c["reject-acks"] != want {
		t.Fatalf("quota rejects total=%d rejected=%d reject-acks=%d, want %d each:\n%s",
			c["total"], c["rejected"], c["reject-acks"], want, report)
	}
	if !strings.Contains(report, "by client: tenant-0=20 tenant-1=20 tenant-2=20") {
		t.Fatalf("refusals not attributed per client:\n%s", report)
	}
}

// TestScenarioShardedMatchesSequentialWithLoss drives the full scenario
// stack — environment-level LossRate, a healing partition, a lossy link
// override, and a kill — and requires the byte-for-byte report to match
// between workers=0 and workers=8. This is the regression
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
// must stay byte-identical between one inline shard and eight worker
// shards, proving no retry timer or jitter draw depends on which
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
	seq := runCheckedInScenario(t, "tree-repair")
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
	runCheckedInScenario(t, "qstorm-mixed")
}

// TestQStormAggScenarioShardedMatchesSequential runs the checked-in
// qstorm-agg scenario — 500 shared-shape continuous aggregations whose
// window flushes travel the columnar EmitBatch → demux → batched-result
// path, with a mid-run kill and respawn — from its YAML source, so the
// CI smoke lane and this determinism diff exercise the same spec. The
// batched result frames must not introduce worker-count-dependent
// ordering: the report is bit-identical between schedulers.
func TestQStormAggScenarioShardedMatchesSequential(t *testing.T) {
	seq := runCheckedInScenario(t, "qstorm-agg")
	if !strings.Contains(seq.Report, "assert recovered-rows >= 50: PASS") {
		t.Fatalf("post-respawn recovery assertion missing or failing:\n%s", seq.Report)
	}
	if !strings.Contains(seq.Report, "assert no-leaks: PASS") {
		t.Fatalf("leak assertion missing or failing:\n%s", seq.Report)
	}
}

// TestTransitStubScenarioShardedMatchesSequential runs the checked-in
// transit-stub scenario — the transit-stub topology under 2% message
// loss, with an aggregation, lookups and a Gnutella flood side by side —
// and diffs the report between schedulers. Loss draws come from each
// sender's own stream, so the lossy transit-stub run must not depend on
// the worker count either.
func TestTransitStubScenarioShardedMatchesSequential(t *testing.T) {
	seq := runCheckedInScenario(t, "transit-stub")
	if !strings.Contains(seq.Report, "topology=transit-stub") {
		t.Fatalf("scenario did not run on the transit-stub topology:\n%s", seq.Report)
	}
}

// runCheckedInScenario runs scenarios/<name>.yaml at workers 0 and 8,
// fails the test unless the two reports are identical and the scenario
// passed, and returns the workers-0 outcome.
func runCheckedInScenario(t *testing.T, name string) ScenarioOutcome {
	t.Helper()
	src, err := os.ReadFile("../../scenarios/" + name + ".yaml")
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
		t.Fatalf("%s report diverged:\nseq:\n%s\npar:\n%s", name, seq.Report, par.Report)
	}
	if !seq.Passed {
		t.Fatalf("%s scenario failed:\n%s", name, seq.Report)
	}
	return seq
}
