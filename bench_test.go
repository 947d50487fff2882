// Package bench holds the benchmark harness that regenerates every
// measurable artifact of the paper (see DESIGN.md §3 and EXPERIMENTS.md):
//
//	BenchmarkFigure1FirstResultLatency      — Figure 1 (PIER vs Gnutella CDFs)
//	BenchmarkFigure2Top10FirewallSources    — Figure 2 (top-10 event sources)
//	BenchmarkAblation*                      — design-choice ablations
//	Benchmark<micro>                        — hot-path microbenchmarks
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The figure benches report shape metrics (recall, medians, overlaps) via
// b.ReportMetric so regressions in the reproduced result — not just in
// speed — are visible.
package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"pier/internal/bloom"
	"pier/internal/exec"
	"pier/internal/experiments"
	"pier/internal/expr"
	"pier/internal/overlay"
	"pier/internal/sim"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
	"pier/internal/wire"
)

// BenchmarkFigure1FirstResultLatency regenerates Figure 1: the CDF of
// first-result latency for PIER on rare items versus Gnutella flooding
// on the full query mix and on rare items, at the paper's 50-node scale.
func BenchmarkFigure1FirstResultLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure1(experiments.Figure1Config{
			Nodes:   50,
			Queries: 60,
			Seed:    int64(1000 + i),
		})
		if i == 0 {
			b.Log("\n" + res.Render())
		}
		ph, pm := res.PierRare.Count()
		gh, gm := res.GnutellaRare.Count()
		b.ReportMetric(float64(ph)/float64(ph+pm)*100, "pier-rare-recall-%")
		b.ReportMetric(float64(gh)/float64(gh+gm)*100, "gnut-rare-recall-%")
		if med, ok := res.PierRare.Percentile(50); ok {
			b.ReportMetric(med.Seconds(), "pier-median-s")
		}
		if med, ok := res.GnutellaAll.Percentile(50); ok {
			b.ReportMetric(med.Seconds(), "gnut-all-median-s")
		}
	}
}

// BenchmarkFigure2Top10FirewallSources regenerates Figure 2: the top ten
// sources of firewall events aggregated across 350 nodes.
func BenchmarkFigure2Top10FirewallSources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure2(experiments.Figure2Config{
			Nodes: 350,
			Seed:  int64(2000 + i),
		})
		if i == 0 {
			b.Log("\n" + res.Render())
		}
		b.ReportMetric(float64(res.TopOverlap()), "top10-overlap")
	}
}

// BenchmarkFigure2Sharded runs the Figure 2 pipeline — cluster build,
// log load, two-phase aggregation — at a 1000-node scale across
// scheduler modes: workers=0 is the sequential Main Scheduler baseline,
// workers=8 the sharded scheduler. Results are bit-identical between
// the two (TestFigure2ShardedMatchesSequential); this bench records the
// wall-clock and events/s ratio, the BENCH_0002.json numbers.
func BenchmarkFigure2Sharded(b *testing.B) {
	for _, workers := range []int{0, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				res := experiments.RunFigure2(experiments.Figure2Config{
					Nodes:   1000,
					Workers: workers,
					Seed:    42, // fixed seed: sub-benchmarks must do identical work
				})
				events += res.Events
				if ov := res.TopOverlap(); ov < 8 {
					b.Fatalf("top-10 overlap degraded to %d", ov)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(events)/secs, "events/s")
			}
		})
	}
}

// BenchmarkCongestionDepartureParallel drives the queuing congestion
// models from concurrent goroutines with distinct sources — the access
// pattern of the sharded scheduler, where each worker calls Departure
// for the sources it owns. The per-source state is striped, so
// throughput should scale with -cpu instead of serializing on a global
// mutex (compare -cpu 1 vs -cpu 8).
func BenchmarkCongestionDepartureParallel(b *testing.B) {
	models := map[string]func() sim.CongestionModel{
		"fifo": func() sim.CongestionModel { return &sim.FIFOQueue{} },
		"fair": func() sim.CongestionModel { return &sim.FairQueue{} },
	}
	for name, mk := range models {
		name, mk := name, mk
		b.Run(name, func(b *testing.B) {
			m := mk()
			var gid int32
			start := time.Unix(0, 0).UTC()
			b.RunParallel(func(pb *testing.PB) {
				// One simulated source per goroutine: matches the sharded
				// scheduler's source-affinity (a source's sends always come
				// from the worker that owns it).
				id := atomic.AddInt32(&gid, 1)
				src := vri.Addr(fmt.Sprintf("src-%d", id))
				dsts := [4]vri.Addr{"d0", "d1", "d2", "d3"}
				now := start
				i := 0
				for pb.Next() {
					m.Departure(now, src, dsts[i%len(dsts)], 1200)
					i++
					now = now.Add(time.Millisecond)
				}
			})
		})
	}
}

// BenchmarkAblationJoinStrategies compares symmetric-hash rehash, Fetch
// Matches, and Bloom-filtered rehash on one workload (§3.3.4, [32]).
func BenchmarkAblationJoinStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunJoinStrategies(experiments.JoinStrategiesConfig{
			Nodes: 16, OuterSize: 800, InnerSize: 40, MatchFraction: 0.05,
			Seed: int64(3000 + i),
		})
		if i == 0 {
			b.Log("\n" + res.Render())
		}
		for _, o := range res.Outcomes {
			b.ReportMetric(float64(o.Bytes), o.Strategy+"-bytes")
		}
	}
}

// BenchmarkAblationHierarchicalAggregation measures in-bandwidth at the
// aggregation point with and without in-network merging (§3.3.4).
func BenchmarkAblationHierarchicalAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunHierAgg(experiments.HierAggConfig{
			Nodes: 64, TuplesPerNode: 20, Groups: 4, Seed: int64(4000 + i),
		})
		if i == 0 {
			b.Log("\n" + res.Render())
		}
		for _, o := range res.Outcomes {
			b.ReportMetric(float64(o.RootMsgsIn), o.Strategy+"-root-msgs")
		}
	}
}

// BenchmarkAblationChurn measures lookup success under increasing churn
// (§3.2.2): shorter mean sessions mean harsher membership turnover.
func BenchmarkAblationChurn(b *testing.B) {
	for _, session := range []time.Duration{5 * time.Minute, 90 * time.Second} {
		session := session
		b.Run(fmt.Sprintf("session=%v", session), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := experiments.RunChurn(experiments.ChurnConfig{
					Nodes: 48, MeanSession: session,
					Duration: 2 * time.Minute, Lookups: 60,
					Seed: int64(5000 + i),
				})
				if i == 0 {
					b.Log("\n" + res.Render())
				}
				b.ReportMetric(res.SuccessPercent, "lookup-success-%")
			}
		})
	}
}

// BenchmarkAblationSoftStateLifetime sweeps object lifetimes against
// publisher work and recovery speed (§3.2.3).
func BenchmarkAblationSoftStateLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunSoftState(experiments.SoftStateConfig{Seed: int64(6000 + i)})
		if i == 0 {
			b.Log("\n" + res.Render())
		}
		for _, o := range res.Outcomes {
			b.ReportMetric(float64(o.RenewsSent), fmt.Sprintf("renews@%v", o.Lifetime))
		}
	}
}

// BenchmarkAblationQueryDissemination compares broadcast-tree reach and
// cost against equality-index dissemination (§3.3.3).
func BenchmarkAblationQueryDissemination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunDissemination(experiments.DisseminationConfig{Nodes: 64, Seed: int64(7000 + i)})
		if i == 0 {
			b.Log("\n" + res.Render())
		}
		b.ReportMetric(float64(res.BroadcastMsgs), "broadcast-msgs")
		b.ReportMetric(float64(res.EqualityMsgs), "equality-msgs")
	}
}

// BenchmarkAblationCongestionModels exercises the simulator's three
// congestion models (§3.1.4) on a contended access link and reports how
// long a 100-message burst takes to drain under each.
func BenchmarkAblationCongestionModels(b *testing.B) {
	models := map[string]func() sim.CongestionModel{
		"none": func() sim.CongestionModel { return sim.NoCongestion{} },
		"fifo": func() sim.CongestionModel { return &sim.FIFOQueue{BytesPerSecond: 125_000} },
		"fair": func() sim.CongestionModel { return &sim.FairQueue{BytesPerSecond: 125_000} },
	}
	for name, mk := range models {
		name, mk := name, mk
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env := sim.NewEnv(sim.Options{Seed: int64(i), Congestion: mk()})
				a := env.Spawn("a")
				dsts := env.SpawnN("d", 4)
				received := 0
				start := env.Now()
				last := start
				for _, d := range dsts {
					_ = d.Listen(vri.PortQuery, func(vri.Addr, []byte) {
						received++
						last = env.Now()
					})
				}
				payload := make([]byte, 1200)
				for m := 0; m < 100; m++ {
					a.Send(dsts[m%len(dsts)].Addr(), vri.PortQuery, payload, nil)
				}
				env.Run(time.Minute)
				if received != 100 {
					b.Fatalf("delivered %d/100", received)
				}
				b.ReportMetric(last.Sub(start).Seconds(), "burst-drain-s")
			}
		})
	}
}

// --- Microbenchmarks on the hot paths -------------------------------

// BenchmarkTupleEncodeDecode measures the self-describing tuple codec.
func BenchmarkTupleEncodeDecode(b *testing.B) {
	t := tuple.New("fwlogs").
		Set("src", tuple.String("10.20.30.40")).
		Set("dstport", tuple.Int(443)).
		Set("severity", tuple.Int(3)).
		Set("note", tuple.String("blocked inbound probe"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := t.Encode()
		if _, err := tuple.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireWriter measures the message builder used for every
// network message.
func BenchmarkWireWriter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := wire.NewWriter(64)
		w.U8(1)
		w.U64(uint64(i))
		w.String("namespace")
		w.String("partitioning-key")
		w.Bytes32([]byte("payload payload payload"))
		_ = w.Bytes()
	}
}

// BenchmarkExprEval measures predicate evaluation (the Select hot path).
func BenchmarkExprEval(b *testing.B) {
	e := expr.MustParse("severity >= 3 AND contains(src, '10.') AND dstport != 80")
	t := tuple.New("fw").
		Set("src", tuple.String("10.1.2.3")).
		Set("dstport", tuple.Int(443)).
		Set("severity", tuple.Int(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Eval(t); !ok {
			b.Fatal("malformed")
		}
	}
}

// BenchmarkSymmetricHashJoin measures local join throughput.
func BenchmarkSymmetricHashJoin(b *testing.B) {
	b.ReportAllocs()
	j := exec.NewSymmetricHashJoin([]string{"id"}, []string{"id"})
	sink := exec.SinkFunc(func(exec.Tag, *tuple.Tuple) {})
	j.SetParent(sink)
	rows := make([]*tuple.Batch, 1024) // batch=1: one row per push
	for i := range rows {
		rows[i] = tuple.OfTuple(tuple.New("r").Set("id", tuple.Int(int64(i%128))).Set("v", tuple.Int(int64(i))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := exec.Tag(i + 1) // fresh probe per iteration bounds state
		j.PushBatchLeft(tag, rows[i%len(rows)])
		j.PushBatchRight(tag, rows[(i+7)%len(rows)])
	}
}

// BenchmarkGroupSetAdd measures the aggregation inner loop at batch=1.
func BenchmarkGroupSetAdd(b *testing.B) {
	g := exec.NewGroupSet([]string{"src"}, []exec.AggSpec{
		{Kind: exec.AggCount, As: "cnt"},
		{Kind: exec.AggSum, Col: "bytes", As: "total"},
	})
	rows := make([]*tuple.Batch, 64)
	for i := range rows {
		rows[i] = tuple.OfTuple(tuple.New("fw").
			Set("src", tuple.String(fmt.Sprintf("10.0.0.%d", i%16))).
			Set("bytes", tuple.Int(int64(i))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddBatch(rows[i%len(rows)])
	}
}

// BenchmarkExecBatchThroughput measures the vectorized operator path:
// one op pushes a fixed 8192-row dataset through Select(compiled
// predicate) → GroupBy(count+sum) and flushes, as pre-built columnar
// batches of N rows. batch=1 is what a lone row costs on the one edge
// (per-row column resolution, per-row group keys); larger batches
// amortize it. The rows carry the predicate/group columns LAST among the
// filler columns, so batch=1 pays the honest per-row resolution cost a
// batch amortizes to one column-index resolution. tuples/s is the
// comparable work metric; the allocation side is gated per tuple by
// TestExecBatchAllocBudget against alloc_budget.json.
func BenchmarkExecBatchThroughput(b *testing.B) {
	for _, size := range []int{1, 64, 1024} {
		size := size
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			runExecBatch(b, size)
		})
	}
}

// execBatchRows is the dataset size of one benchmark op.
const execBatchRows = 8192

// execBatchSchema places the hot columns last among filler columns, the
// shape of the paper's firewall-log tuples (timestamps, interface ids,
// flags ahead of the queried fields): each index is resolved once per
// batch, so once per row at batch=1.
var execBatchSchema = []string{
	"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11",
	"severity", "src", "score",
}

func buildExecBatchTuples() []*tuple.Tuple {
	rng := rand.New(rand.NewSource(11))
	rows := make([]*tuple.Tuple, execBatchRows)
	for i := range rows {
		t := tuple.New("fwlogs")
		for f := 0; f < len(execBatchSchema)-3; f++ {
			t.Set(execBatchSchema[f], tuple.Int(int64(i+f)))
		}
		t.Set("severity", tuple.Int(rng.Int63n(8))).
			Set("src", tuple.String(fmt.Sprintf("10.0.0.%d", rng.Intn(32)))).
			Set("score", tuple.Float(float64(rng.Intn(100))))
		rows[i] = t
	}
	return rows
}

func buildExecBatchBatches(rows []*tuple.Tuple, size int) []*tuple.Batch {
	var out []*tuple.Batch
	vals := make([]tuple.Value, len(execBatchSchema))
	for off := 0; off < len(rows); off += size {
		end := off + size
		if end > len(rows) {
			end = len(rows)
		}
		cb := tuple.NewColumnarBatch("fwlogs", execBatchSchema, end-off)
		for _, t := range rows[off:end] {
			for c, name := range execBatchSchema {
				vals[c], _ = t.Get(name)
			}
			cb.AppendRow(vals)
		}
		out = append(out, cb)
	}
	return out
}

// runExecBatch is the body shared by BenchmarkExecBatchThroughput and the
// allocation-budget gate (TestExecBatchAllocBudget).
func runExecBatch(b *testing.B, batchSize int) {
	b.ReportAllocs()
	batches := buildExecBatchBatches(buildExecBatchTuples(), batchSize)
	sel := exec.NewSelect(expr.MustParse("severity > 2 AND score <= 90"))
	gb := exec.NewGroupBy([]string{"src"}, []exec.AggSpec{
		{Kind: exec.AggCount, As: "cnt"},
		{Kind: exec.AggSum, Col: "severity", As: "sevsum"},
	})
	gb.SetChild(sel)
	results := 0
	gb.SetParent(exec.SinkFunc(func(exec.Tag, *tuple.Tuple) { results++ }))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := exec.Tag(i + 1) // fresh probe per pass bounds group state
		for _, bt := range batches {
			sel.PushBatch(tag, bt)
		}
		gb.Flush(tag)
	}
	b.StopTimer()
	if results == 0 {
		b.Fatal("pipeline produced no groups")
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*execBatchRows/secs, "tuples/s")
	}
}

// BenchmarkGroupByColumnar measures the column-at-a-time aggregation
// path end to end: one op pushes the fixed 8192-row dataset into
// GroupBy(count + int sum + float avg + float max + string min keyed by
// src), flushes the window as ONE columnar batch, and fans that batch
// through a Demux to Q attached tails — the shape of Q structurally
// identical continuous aggregates sharing one chain. batch=1 is the
// per-row cost of AddBatch, batch=1024 the amortized one; both flush
// through EmitBatch. The tails axis isolates the emission contract:
// the flushed window is encoded into ONE shared read-only batch however
// many queries consume it, so cost scales O(groups + Q), not
// O(groups x Q) — tails=64 must stay within noise of tails=1. Gated per
// tuple by TestAggBatchAllocBudget against alloc_budget.json.
func BenchmarkGroupByColumnar(b *testing.B) {
	for _, size := range []int{1, 1024} {
		for _, tails := range []int{1, 16, 64} {
			size, tails := size, tails
			b.Run(fmt.Sprintf("batch=%d/tails=%d", size, tails), func(b *testing.B) {
				runGroupByColumnar(b, size, tails)
			})
		}
	}
}

// aggTail is a Demux tail that counts delivered rows without touching
// them — the cheapest possible consumer, so the benchmark isolates the
// aggregation and fan-out cost itself.
type aggTail struct{ rows int }

func (c *aggTail) PushBatch(_ exec.Tag, b *tuple.Batch) { c.rows += b.Len() }

// runGroupByColumnar is the body shared by BenchmarkGroupByColumnar and
// the allocation gate (TestAggBatchAllocBudget).
func runGroupByColumnar(b *testing.B, batchSize, tails int) {
	b.ReportAllocs()
	batches := buildExecBatchBatches(buildExecBatchTuples(), batchSize)
	gb := exec.NewGroupBy([]string{"src"}, []exec.AggSpec{
		{Kind: exec.AggCount, As: "cnt"},
		{Kind: exec.AggSum, Col: "severity", As: "sevsum"},
		{Kind: exec.AggAvg, Col: "score", As: "avgscore"},
		{Kind: exec.AggMax, Col: "score", As: "maxscore"},
		{Kind: exec.AggMin, Col: "src", As: "minsrc"},
	})
	demux := &exec.Demux{}
	sinks := make([]*aggTail, tails)
	for i := range sinks {
		sinks[i] = &aggTail{}
		demux.Attach(exec.Tag(1000+i), sinks[i])
	}
	gb.SetParent(demux)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := exec.Tag(i + 1) // fresh window per pass bounds group state
		for _, bt := range batches {
			gb.PushBatch(tag, bt)
		}
		gb.Flush(tag)
	}
	b.StopTimer()
	for i, s := range sinks {
		if s.rows == 0 {
			b.Fatalf("tail %d received no groups", i)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*execBatchRows/secs, "tuples/s")
	}
}

// BenchmarkBloomFilter measures membership probes.
func BenchmarkBloomFilter(b *testing.B) {
	f := bloom.New(10_000, 0.01)
	for i := 0; i < 10_000; i++ {
		f.AddString(fmt.Sprintf("key-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContainString("key-5000")
	}
}

// BenchmarkDHTPutGet measures an end-to-end overlay put+get pair in a
// 16-node simulated ring, in virtual operations per wall second.
func BenchmarkDHTPutGet(b *testing.B) {
	env := sim.NewEnv(sim.Options{Seed: 99})
	nodes := env.SpawnN("n", 16)
	dhts := make([]*overlay.DHT, len(nodes))
	for i, nd := range nodes {
		dhts[i] = overlay.New(nd, overlay.Config{MaxLifetime: 24 * time.Hour})
		if err := dhts[i].Start(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i < len(dhts); i++ {
		dhts[i].Join(dhts[0].Addr(), nil)
		env.Run(2 * time.Second)
	}
	env.Run(60 * time.Second)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := dhts[rng.Intn(len(dhts))]
		dst := dhts[rng.Intn(len(dhts))]
		key := fmt.Sprintf("k-%d", i)
		stored := false
		src.Put("bench", key, "s", []byte("v"), time.Hour, func(ok bool) { stored = ok })
		env.Run(3 * time.Second)
		if !stored {
			b.Fatal("put failed")
		}
		var got []overlay.Object
		dst.Get("bench", key, func(objs []overlay.Object, err error) { got = objs })
		env.Run(3 * time.Second)
		if len(got) != 1 {
			b.Fatal("get failed")
		}
	}
}

// BenchmarkRingMaintenanceSteadyState measures what a converged ring spends
// keeping itself alive: 64 overlay nodes, no queries, no data; one op is one
// virtual second of every node's stabilise, fix-finger, predecessor-check
// and sweep ticks. TestRingMaintenanceAllocBudget gates its allocs/op
// against the ring_maintenance_allocs_per_op entry of alloc_budget.json.
func BenchmarkRingMaintenanceSteadyState(b *testing.B) { runRingMaintenance(b) }

// runRingMaintenance is the body shared by the benchmark above and the
// allocation-budget regression test.
func runRingMaintenance(b *testing.B) {
	const nodes = 64
	b.ReportAllocs()
	env := sim.NewEnv(sim.Options{Seed: 1})
	dhts := make([]*overlay.DHT, nodes)
	for i, nd := range env.SpawnN("n", nodes) {
		dhts[i] = overlay.New(nd, overlay.Config{})
		if err := dhts[i].Start(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i < nodes; i++ {
		dhts[i].Join(dhts[0].Addr(), nil)
		env.Run(2 * time.Second)
	}
	env.Run(2 * time.Minute) // every finger slot comes round several times
	for _, d := range dhts {
		if d.Predecessor() == "" || d.FingerCount() == 0 {
			b.Fatalf("%s did not converge: predecessor %q, %d fingers", d.Addr(), d.Predecessor(), d.FingerCount())
		}
	}
	start, _, _ := env.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Run(time.Second)
	}
	b.StopTimer()
	ev, _, _ := env.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(ev-start)/secs, "events/s")
	}
}

// BenchmarkSimulatorEventThroughput measures raw discrete-event
// dispatch: how many simulator events per wall second the Simulation
// Environment sustains — the capacity bound on "thousands of virtual
// nodes on a single physical machine" (§3.1.4) — across worker-shard
// counts of the sharded Main Scheduler (workers=1 is the windowed
// scheduler on one shard: the parallel-speedup baseline).
//
// The workload is a self-sustaining message storm: every node rearms a
// timer each 25 ms of virtual time and sends one 200-byte message to a
// deterministic peer, so each benchmark iteration advances 100 ms of
// virtual time across the whole population. One iteration is therefore
// identical work at every worker count, and the events/s metric is
// directly comparable between sub-benchmarks.
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runEventThroughput(b, workers)
		})
	}
}

// runEventThroughput is the storm body shared by the benchmark above and
// the allocation-budget regression test (alloc_budget_test.go), which
// drives it through testing.Benchmark so the checked-in allocs/op budget
// gates exactly what the benchmark measures.
func runEventThroughput(b *testing.B, workers int) {
	const (
		nodes   = 512
		tick    = 25 * time.Millisecond
		slice   = 100 * time.Millisecond
		payload = 200
	)
	b.ReportAllocs()
	env := sim.NewEnv(sim.Options{Seed: 1})
	env.SetWorkers(workers)
	ns := env.SpawnN("n", nodes)
	buf := make([]byte, payload)
	for i, n := range ns {
		i, n := i, n
		_ = n.Listen(vri.PortQuery, func(vri.Addr, []byte) {})
		var tickFn func()
		tickFn = func() {
			n.Send(ns[(i*13+7)%nodes].Addr(), vri.PortQuery, buf, nil)
			n.Schedule(tick, tickFn)
		}
		n.Schedule(time.Duration(i)*time.Microsecond, tickFn)
	}
	env.Run(slice) // warm the storm before timing
	start, _, _ := env.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Run(slice)
	}
	b.StopTimer()
	ev, _, _ := env.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(ev-start)/secs, "events/s")
	}
}

// BenchmarkQueryStormDispatch measures the multi-tenant newData hot path:
// an 8-node cluster runs `queries` concurrent continuous queries over one
// table while every node publishes a steady local event stream. Each
// benchmark iteration advances 100 ms of virtual time, so allocs/op is
// the allocation cost of a fixed publish load under Q-way query fan-out —
// the per-query-per-event quantity the shared table bus (decode-once,
// shared read-only tuples) keeps near-flat in Q. The checked-in budget in
// alloc_budget.json gates it (TestQueryStormAllocBudget) the same way the
// scheduler storm gates the per-event path.
func BenchmarkQueryStormDispatch(b *testing.B) {
	for _, queries := range []int{1, 16, 64} {
		queries := queries
		b.Run(fmt.Sprintf("queries=%d", queries), func(b *testing.B) {
			runQueryStorm(b, queries)
		})
	}
}

// runQueryStorm is the storm body shared by the benchmark above and the
// allocation-budget regression test.
func runQueryStorm(b *testing.B, queries int) {
	const (
		nodeCount = 8
		tick      = 25 * time.Millisecond
		slice     = 100 * time.Millisecond
	)
	b.ReportAllocs()
	env := sim.NewEnv(sim.Options{Seed: 1})
	nodes := experiments.BuildCluster(env, nodeCount, "n")
	// Continuous queries whose Select never matches: the measured cost is
	// pure dispatch (decode-once + Q pushes + predicate eval), with no
	// result forwarding noise.
	for i := 0; i < queries; i++ {
		plan := ufl.MustParse(fmt.Sprintf(`
query storm%d timeout 4h
opgraph g disseminate broadcast {
    src = NewData(table='fwlogs')
    sel = Select(pred='severity > 99')
    sel <- src
}
`, i))
		if err := nodes[i%len(nodes)].Submit(plan, "bench", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	env.Run(5 * time.Second) // all graphs live before the stream starts
	// One pre-built tuple per node, republished each tick: the measured
	// path is publish → store → decode-once → Q-way fan-out.
	for i, n := range nodes {
		n := n
		t := tuple.New("fwlogs").
			Set("src", tuple.String(fmt.Sprintf("10.0.0.%d", i))).
			Set("severity", tuple.Int(int64(i%5)))
		var tickFn func()
		tickFn = func() {
			n.PublishLocal("fwlogs", t, time.Hour)
			n.Runtime().Schedule(tick, tickFn)
		}
		n.Runtime().Schedule(time.Duration(i)*time.Microsecond, tickFn)
	}
	env.Run(slice) // warm the storm before timing
	start, _, _ := env.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Run(slice)
	}
	b.StopTimer()
	ev, _, _ := env.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(ev-start)/secs, "events/s")
	}
	for _, n := range nodes {
		if st := n.Stats(); st.MalformedDrops != 0 {
			b.Fatalf("storm dropped tuples as malformed: %+v", st)
		}
	}
}

// BenchmarkSharedSubtreeDispatch measures the §3.3.2 multi-query
// optimizer's hot path: the same 8-node publish load as
// BenchmarkQueryStormDispatch, but the Q queries carry a Result tail,
// which makes their operator chains subtree-shareable — all Q resolve
// to ONE shared chain per node, fed once per publish and demuxed to the
// per-query tails (which the never-matching Select keeps silent). Where
// the query-storm bench pays Q private chain feeds per publish, this
// path pays one; allocs/op must be flat in Q AND stay below the private
// storm's figures at Q>1. Gated by TestSharedSubtreeAllocBudget against
// the shared_subtree_dispatch section of alloc_budget.json.
func BenchmarkSharedSubtreeDispatch(b *testing.B) {
	for _, queries := range []int{1, 16, 64} {
		queries := queries
		b.Run(fmt.Sprintf("queries=%d", queries), func(b *testing.B) {
			runSharedSubtreeDispatch(b, queries)
		})
	}
}

// runSharedSubtreeDispatch is the storm body shared by the benchmark
// above and the allocation-budget regression test.
func runSharedSubtreeDispatch(b *testing.B, queries int) {
	const (
		nodeCount = 8
		tick      = 25 * time.Millisecond
		slice     = 100 * time.Millisecond
	)
	b.ReportAllocs()
	env := sim.NewEnv(sim.Options{Seed: 1})
	nodes := experiments.BuildCluster(env, nodeCount, "n")
	// Same-shape continuous queries with a Result tail: structurally
	// identical up to the tail, so every instantiation past the first
	// per node attaches to the existing shared chain. The Select never
	// matches, so the measured cost is pure shared dispatch (decode-once
	// + ONE chain feed + one predicate eval), no result forwarding.
	for i := 0; i < queries; i++ {
		plan := ufl.MustParse(fmt.Sprintf(`
query shared%d timeout 4h
opgraph g disseminate broadcast {
    src = NewData(table='fwlogs')
    sel = Select(pred='severity > 99')
    out = Result()
    sel <- src
    out <- sel
}
`, i))
		if err := nodes[i%len(nodes)].Submit(plan, "bench", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	env.Run(5 * time.Second) // all graphs live before the stream starts
	for _, n := range nodes {
		if st := n.Stats(); st.SharedSubtrees != 1 || st.SubtreeAttachments != queries {
			b.Fatalf("subtree sharing did not engage: %+v", st)
		}
	}
	for i, n := range nodes {
		n := n
		t := tuple.New("fwlogs").
			Set("src", tuple.String(fmt.Sprintf("10.0.0.%d", i))).
			Set("severity", tuple.Int(int64(i%5)))
		var tickFn func()
		tickFn = func() {
			n.PublishLocal("fwlogs", t, time.Hour)
			n.Runtime().Schedule(tick, tickFn)
		}
		n.Runtime().Schedule(time.Duration(i)*time.Microsecond, tickFn)
	}
	env.Run(slice) // warm the storm before timing
	start, _, _ := env.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Run(slice)
	}
	b.StopTimer()
	ev, _, _ := env.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(ev-start)/secs, "events/s")
	}
	for _, n := range nodes {
		if st := n.Stats(); st.MalformedDrops != 0 {
			b.Fatalf("storm dropped tuples as malformed: %+v", st)
		}
	}
}
