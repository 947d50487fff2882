package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestEventThroughputAllocBudget is the allocation-regression gate for
// the scheduler hot path: it runs the BenchmarkSimulatorEventThroughput
// storm body with allocation accounting and fails if allocs/op exceeds
// the checked-in budget (alloc_budget.json), so the pooled-event
// zero-alloc property cannot silently rot. Gated behind an env var
// because it burns ~1s of benchmarking per worker count; the CI
// bench-smoke lane sets PIER_ALLOC_BUDGET=1.
func TestEventThroughputAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		AllocsPerOp map[string]int64 `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if len(budget.AllocsPerOp) == 0 {
		t.Fatal("alloc_budget.json carries no allocs_per_op entries")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		key := fmt.Sprintf("workers=%d", workers)
		limit, ok := budget.AllocsPerOp[key]
		if !ok {
			t.Errorf("alloc_budget.json has no budget for %s", key)
			continue
		}
		res := testing.Benchmark(func(b *testing.B) { runEventThroughput(b, workers) })
		got := res.AllocsPerOp()
		t.Logf("%s: %d allocs/op (budget %d), %d B/op, %s",
			key, got, limit, res.AllocedBytesPerOp(), res.String())
		if got > limit {
			t.Errorf("%s: %d allocs/op exceeds the checked-in budget of %d — the event hot path regressed; "+
				"if the regression is intentional, justify it and raise alloc_budget.json in the same change",
				key, got, limit)
		}
	}
}

// TestExecBatchAllocBudget gates the vectorized operator path per tuple
// processed: it runs the BenchmarkExecBatchThroughput body (8192 rows
// through Select(compiled) → GroupBy per op) at each batch size and
// fails if allocs divided by rows processed exceed the checked-in
// per-tuple budget. Operator scratch is pooled per call, so even a lone
// row per PushBatch costs only the fixed per-op allocations: every batch
// size, batch=1 included, has an absolute cap well under one alloc per
// row, and one allocation per row or per call anywhere on the path
// exceeds it.
func TestExecBatchAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		ExecBatchAllocsPerTuple map[string]float64 `json:"exec_batch_allocs_per_tuple"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if len(budget.ExecBatchAllocsPerTuple) == 0 {
		t.Fatal("alloc_budget.json carries no exec_batch_allocs_per_tuple entries")
	}
	for _, size := range []int{1, 64, 1024} {
		size := size
		key := fmt.Sprintf("batch=%d", size)
		limit, ok := budget.ExecBatchAllocsPerTuple[key]
		if !ok {
			t.Errorf("alloc_budget.json has no exec-batch budget for %s", key)
			continue
		}
		res := testing.Benchmark(func(b *testing.B) { runExecBatch(b, size) })
		got := float64(res.AllocsPerOp()) / execBatchRows
		t.Logf("%s: %.4f allocs/tuple (budget %.4f), %d allocs/op over %d rows",
			key, got, limit, res.AllocsPerOp(), execBatchRows)
		if got > limit {
			t.Errorf("%s: %.4f allocs/tuple exceeds the checked-in budget of %.4f — per-tuple allocations "+
				"crept into the batch path; if intentional, justify it and raise alloc_budget.json in the "+
				"same change", key, got, limit)
		}
	}
}

// TestQueryStormAllocBudget is the multi-tenant twin of the gate above:
// it runs the BenchmarkQueryStormDispatch body — Q concurrent continuous
// queries fed by a fixed publish load — and fails if allocs/op exceeds
// the checked-in budget. The budgets are equal across Q on purpose: the
// shared table bus decodes once and fans shared read-only tuples out
// allocation-free, so per-QUERY-per-event allocations show up as the
// queries=64 row outgrowing queries=1 long before it reaches the cap.
func TestQueryStormAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		QueryStormAllocsPerOp map[string]int64 `json:"query_storm_allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if len(budget.QueryStormAllocsPerOp) == 0 {
		t.Fatal("alloc_budget.json carries no query_storm_allocs_per_op entries")
	}
	for _, queries := range []int{1, 16, 64} {
		queries := queries
		key := fmt.Sprintf("queries=%d", queries)
		limit, ok := budget.QueryStormAllocsPerOp[key]
		if !ok {
			t.Errorf("alloc_budget.json has no query-storm budget for %s", key)
			continue
		}
		res := testing.Benchmark(func(b *testing.B) { runQueryStorm(b, queries) })
		got := res.AllocsPerOp()
		t.Logf("%s: %d allocs/op (budget %d), %d B/op, %s",
			key, got, limit, res.AllocedBytesPerOp(), res.String())
		if got > limit {
			t.Errorf("%s: %d allocs/op exceeds the checked-in budget of %d — per-query-per-event "+
				"allocations crept into the multi-tenant dispatch path; if intentional, justify it and "+
				"raise alloc_budget.json in the same change", key, got, limit)
		}
	}
}

// TestSharedSubtreeAllocBudget gates the §3.3.2 shared-chain dispatch
// path: it runs the BenchmarkSharedSubtreeDispatch body — Q structurally
// identical Result-tailed queries that resolve to ONE shared operator
// chain per node — and fails if allocs/op exceeds the checked-in budget.
// The budgets are equal across Q on purpose: the shared chain is fed
// once per publish and the demux fan-out to per-query tails allocates
// nothing, so per-ATTACHMENT-per-event allocations show up as the
// queries=64 row outgrowing queries=1 long before it reaches the cap.
func TestSharedSubtreeAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		SharedSubtreeAllocsPerOp map[string]int64 `json:"shared_subtree_dispatch"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if len(budget.SharedSubtreeAllocsPerOp) == 0 {
		t.Fatal("alloc_budget.json carries no shared_subtree_dispatch entries")
	}
	for _, queries := range []int{1, 16, 64} {
		queries := queries
		key := fmt.Sprintf("queries=%d", queries)
		limit, ok := budget.SharedSubtreeAllocsPerOp[key]
		if !ok {
			t.Errorf("alloc_budget.json has no shared-subtree budget for %s", key)
			continue
		}
		res := testing.Benchmark(func(b *testing.B) { runSharedSubtreeDispatch(b, queries) })
		got := res.AllocsPerOp()
		t.Logf("%s: %d allocs/op (budget %d), %d B/op, %s",
			key, got, limit, res.AllocedBytesPerOp(), res.String())
		if got > limit {
			t.Errorf("%s: %d allocs/op exceeds the checked-in budget of %d — per-attachment-per-event "+
				"allocations crept into the shared-subtree dispatch path; if intentional, justify it and "+
				"raise alloc_budget.json in the same change", key, got, limit)
		}
	}
}

// TestRingMaintenanceAllocBudget gates the overlay's steady state: it runs
// the BenchmarkRingMaintenanceSteadyState body — one virtual second of a
// converged 64-node ring with nothing to do but maintain itself — and fails
// if allocs/op exceeds the checked-in budget, so re-parsing an unchanged
// stabilise answer, or any other per-tick cost that follows state size
// rather than change, cannot creep back in unseen.
func TestRingMaintenanceAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		RingMaintenanceAllocsPerOp int64 `json:"ring_maintenance_allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if budget.RingMaintenanceAllocsPerOp == 0 {
		t.Fatal("alloc_budget.json carries no ring_maintenance_allocs_per_op entry")
	}
	res := testing.Benchmark(runRingMaintenance)
	got, limit := res.AllocsPerOp(), budget.RingMaintenanceAllocsPerOp
	t.Logf("%d allocs/op (budget %d), %d B/op, %s", got, limit, res.AllocedBytesPerOp(), res.String())
	if got > limit {
		t.Errorf("%d allocs/op exceeds the checked-in budget of %d — ring maintenance allocates more per "+
			"virtual second than it did; if intentional, justify it and raise alloc_budget.json in the same change",
			got, limit)
	}
}

// TestAggBatchAllocBudget gates the column-at-a-time aggregation path
// per tuple accumulated: it runs the BenchmarkGroupByColumnar body —
// 8192 rows into a five-agg GroupBy, flushed as ONE columnar batch and
// fanned through a Demux to Q tails — and fails if allocs divided by
// rows exceed the checked-in budget. AddBatch's scratch is pooled per
// call, so batch=1 has an absolute cap well under one alloc per row like
// every other entry. One relative contract rides along: tails=64 must
// stay within 2x of tails=1 (the single-emission claim — the flushed
// window is one shared read-only batch however many queries consume it,
// so emission is O(groups + Q), never O(groups x Q)).
func TestAggBatchAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		AggAllocsPerTuple map[string]float64 `json:"agg_allocs_per_tuple"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if len(budget.AggAllocsPerTuple) == 0 {
		t.Fatal("alloc_budget.json carries no agg_allocs_per_tuple entries")
	}
	perTuple := map[string]float64{}
	for _, cfg := range []struct {
		size, tails int
	}{{1, 1}, {1024, 1}, {1024, 16}, {1024, 64}} {
		cfg := cfg
		key := fmt.Sprintf("batch=%d/tails=%d", cfg.size, cfg.tails)
		limit, ok := budget.AggAllocsPerTuple[key]
		if !ok {
			t.Errorf("alloc_budget.json has no agg budget for %s", key)
			continue
		}
		res := testing.Benchmark(func(b *testing.B) { runGroupByColumnar(b, cfg.size, cfg.tails) })
		got := float64(res.AllocsPerOp()) / execBatchRows
		perTuple[key] = got
		t.Logf("%s: %.4f allocs/tuple (budget %.4f), %d allocs/op over %d rows",
			key, got, limit, res.AllocsPerOp(), execBatchRows)
		if got > limit {
			t.Errorf("%s: %.4f allocs/tuple exceeds the checked-in budget of %.4f — per-tuple "+
				"allocations crept into the aggregation batch path; if intentional, justify it and "+
				"raise alloc_budget.json in the same change", key, got, limit)
		}
	}
	if one, ok := perTuple["batch=1024/tails=1"]; ok {
		if many, ok := perTuple["batch=1024/tails=64"]; ok && many > 2*one {
			t.Errorf("tails=64 allocates %.4f/tuple, more than 2x tails=1's %.4f — emission is "+
				"scaling with the consumer count instead of staying one shared batch", many, one)
		}
	}
}

// TestAggWindowAllocBudget gates aggregation's steady state per window:
// it runs the BenchmarkGroupByColumnar body at batch=1024/tails=1, where
// every op is one window on the same GroupBy, over at least 8 consecutive
// windows, and fails if a window allocates more than one object per group
// plus the checked-in constant. A flushed window's GroupSet is reset into
// a pool the next window takes it from, so a group's only allocation is
// its key string; anything a group builds per window beyond that — a map
// entry, a key tuple, a state object — trips the gate.
func TestAggWindowAllocBudget(t *testing.T) {
	if os.Getenv("PIER_ALLOC_BUDGET") == "" {
		t.Skip("set PIER_ALLOC_BUDGET=1 to enforce the allocation budget")
	}
	raw, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatalf("reading budget file: %v", err)
	}
	var budget struct {
		OverGroups *int64 `json:"agg_window_allocs_over_groups"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parsing alloc_budget.json: %v", err)
	}
	if budget.OverGroups == nil {
		t.Fatal("alloc_budget.json carries no agg_window_allocs_over_groups entry")
	}
	srcs := map[string]bool{}
	for _, row := range buildExecBatchTuples() {
		v, _ := row.Get("src")
		srcs[v.String()] = true
	}
	groups := int64(len(srcs))
	res := testing.Benchmark(func(b *testing.B) { runGroupByColumnar(b, 1024, 1) })
	if res.N < 8 {
		t.Fatalf("ran %d windows, want at least 8 consecutive ones", res.N)
	}
	got, limit := res.AllocsPerOp(), groups+*budget.OverGroups
	t.Logf("%d allocs/window over %d windows of %d groups (budget %d = groups + %d), %d B/window",
		got, res.N, groups, limit, *budget.OverGroups, res.AllocedBytesPerOp())
	if got > limit {
		t.Errorf("%d allocs per window exceed %d groups + %d — a window's groups allocate more than their "+
			"key strings, so its storage is no longer recycled; if intentional, justify it and raise "+
			"alloc_budget.json in the same change", got, groups, *budget.OverGroups)
	}
}
