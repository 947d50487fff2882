package main

import (
	"runtime"
	"sort"
	"time"

	"pier/internal/exec"
	"pier/internal/expr"
	"pier/internal/qp"
	"pier/internal/sqlfront"
	"pier/internal/tuple"
	"pier/internal/ufl"
)

// Layer replays: the tuples and plans a workload generated are fed to
// one layer's public functions alone and timed. They call only batch
// entry points (PushBatch, GroupSet.AddBatch/EmitBatch, EncodeFrame,
// DecodeFrame, CompilePred), never the row paths.

// replayRows is how many of a workload's own tuples the replays keep.
const replayRows = 4096

// perOp runs fn iters times, five times over, and returns the median
// nanoseconds and heap allocations per unit of work, units being what
// one call of fn processes. o.replayDiv (the package's own test sets it)
// divides iters.
func perOp(o runOpts, iters, units int, fn func()) (ns, allocs float64) {
	if o.replayDiv > 1 {
		iters = iters/o.replayDiv + 1
	}
	fn() // warm caches and lazily built state
	var times []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/float64(iters*units))
	}
	runtime.ReadMemStats(&ms1)
	sort.Float64s(times)
	return times[2], float64(ms1.Mallocs-ms0.Mallocs) / float64(5*iters*units)
}

// columnar copies rows into one columnar batch, the form the executor's
// vectorized paths take.
func columnar(rows []*tuple.Tuple) *tuple.Batch {
	names := append([]string(nil), rows[0].Columns()...)
	b := tuple.NewColumnarBatch(rows[0].Table(), names, len(rows))
	vals := make([]tuple.Value, len(names))
	for _, t := range rows {
		for i := range names {
			_, vals[i] = t.At(i)
		}
		b.AppendRow(vals)
	}
	return b
}

// addTupleReplays times the frame codec on the workload's own tuples:
// 256-row columnar frames, and frames of one row, which is what every
// PublishLocal stores and every subscriber decodes.
func addTupleReplays(res *result, o runOpts, sample []*tuple.Tuple) {
	if len(sample) < 256 {
		return
	}
	b256 := columnar(sample[:256])
	var frame []byte
	encNS, _ := perOp(o, 200, 256, func() { frame = b256.EncodeFrame() })
	decNS, decAllocs := perOp(o, 200, 256, func() {
		if _, err := tuple.DecodeFrame(frame); err != nil {
			panic(err)
		}
	})
	res.put("tuple.encode_ns_per_tuple", encNS, "ns")
	res.put("tuple.decode_ns_per_tuple", decNS, "ns")
	res.put("tuple.decode_allocs_per_tuple", decAllocs, "count")
	res.put("tuple.frame_bytes_per_tuple", float64(len(frame))/256, "count")

	b1 := tuple.OfTuple(sample[0])
	enc1, _ := perOp(o, 20000, 1, func() { frame = b1.EncodeFrame() })
	dec1, _ := perOp(o, 20000, 1, func() {
		if _, err := tuple.DecodeFrame(frame); err != nil {
			panic(err)
		}
	})
	res.put("tuple.encode1_ns", enc1, "ns")
	res.put("tuple.decode1_ns", dec1, "ns")
}

// addExecReplays times predicate evaluation and the Select → GroupBy
// chain at batch sizes 1 and 1024, a window flush, and the symmetric
// hash join, which no end-to-end workload runs.
func addExecReplays(res *result, o runOpts, sample []*tuple.Tuple) {
	if len(sample) < 1024 {
		return
	}
	pred, err := expr.Parse("dstport <= 4100 AND severity >= 0")
	if err != nil {
		panic(err)
	}
	aggs, err := qp.ParseAggSpecs("count(*) as cnt; sum(severity) as sev; max(ts) as mx")
	if err != nil {
		panic(err)
	}
	b1024 := columnar(sample[:1024])
	ones := make([]*tuple.Batch, 1024)
	for i := range ones {
		ones[i] = columnar(sample[i : i+1])
	}

	bp := expr.CompilePred(pred)
	out := make([]int8, 1024)
	p1, _ := perOp(o, 20, 1024, func() {
		for _, b := range ones {
			bp(b, out[:1])
		}
	})
	p1024, _ := perOp(o, 200, 1024, func() { bp(b1024, out) })
	res.put("expr.pred_ns_per_row.b1", p1, "ns")
	res.put("expr.pred_ns_per_row.b1024", p1024, "ns")

	// The chain the netmon queries run: Select, then GroupBy on src.
	sel := exec.NewSelect(pred)
	gb := exec.NewGroupBy([]string{"src"}, aggs)
	sel.SetParent(gb)
	gb.SetParent(exec.SinkFunc(func(exec.Tag, *tuple.Tuple) {}))
	c1, a1 := perOp(o, 20, 1024, func() {
		for _, b := range ones {
			sel.PushBatch(1, b)
		}
	})
	c1024, _ := perOp(o, 200, 1024, func() { sel.PushBatch(1, b1024) })
	res.put("exec.chain_ns_per_tuple.b1", c1, "ns")
	res.put("exec.chain_ns_per_tuple.b1024", c1024, "ns")
	res.put("exec.allocs_per_tuple.b1", a1, "count")

	gs := exec.NewGroupSet([]string{"src"}, aggs)
	gs.AddBatch(b1024)
	groups := gs.Len()
	flushNS, _ := perOp(o, 2000, groups, func() { gs.EmitBatch("groupby") })
	res.put("exec.flush_ns_per_group", flushNS, "ns")

	// Join two halves of the sample on (src, dstport, severity), a key with
	// a match or two per probe, in 256-row batches; a fresh join
	// per repetition so its tables do not grow across repetitions.
	joinKeys := []string{"src", "dstport", "severity"}
	var lefts, rights []*tuple.Batch
	for i := 0; i+256 <= 512; i += 256 {
		lefts = append(lefts, columnar(sample[i:i+256]))
		rights = append(rights, columnar(sample[512+i:512+i+256]))
	}
	joinNS, _ := perOp(o, 10, 1024, func() {
		j := exec.NewSymmetricHashJoin(joinKeys, joinKeys)
		j.SetParent(exec.SinkFunc(func(exec.Tag, *tuple.Tuple) {}))
		for i := range lefts {
			j.PushBatchLeft(1, lefts[i])
			j.PushBatchRight(1, rights[i])
		}
	})
	res.put("exec.join_ns_per_tuple", joinNS, "ns")
}

// addPlanReplays times what submitting a plan costs before any message
// is sent: parsing its UFL text, computing its sharing signature, and
// its encoded size.
func addPlanReplays(res *result, o runOpts, plans []*ufl.Query, texts []string) {
	if len(plans) == 0 {
		return
	}
	n := len(plans)
	if n > 200 {
		n = 200
	}
	if len(texts) >= n {
		parseNS, _ := perOp(o, 3, n, func() {
			for _, text := range texts[:n] {
				if _, err := ufl.Parse(text); err != nil {
					panic(err)
				}
			}
		})
		res.put("ufl.parse_us_per_plan", parseNS/1000, "us")
	}
	sigNS, _ := perOp(o, 3, n, func() {
		for _, p := range plans[:n] {
			for g := range p.Graphs {
				p.Graphs[g].Signature(p.ID)
			}
		}
	})
	res.put("ufl.signature_us_per_plan", sigNS/1000, "us")
	bytes := 0
	for _, p := range plans[:n] {
		bytes += len(p.Encode())
	}
	res.put("ufl.encode_bytes_per_plan", float64(bytes)/float64(n), "count")
}

// addSQLReplay times the SQL frontend on the workload's own statements.
func addSQLReplay(res *result, o runOpts, sqls []string, opts sqlfront.Options) {
	if len(sqls) == 0 {
		return
	}
	n := len(sqls)
	if n > 200 {
		n = 200
	}
	ns, _ := perOp(o, 3, n, func() {
		for i, s := range sqls[:n] {
			if _, err := sqlfront.Run("replay", s, opts); err != nil {
				panic(i)
			}
		}
	})
	res.put("sqlfront.compile_us_per_query", ns/1000, "us")
}

// addHostCalibration times two fixed kernels that touch none of the
// program: an arithmetic loop and a pointer chase through 64 MB. They
// say how fast the machine was while this run was measured, so that a
// slow box is not read as a slow program: on a shared machine the same
// binary's wall_s drifts by tens of percent over minutes.
func addHostCalibration(res *result, o runOpts) {
	div := 1
	if o.replayDiv > 1 {
		div = o.replayDiv
	}
	cpuIters, memIters, n := 100_000_000/div, 4_000_000/div, (16<<20)/div
	t0 := time.Now()
	h := uint64(1469598103934665603)
	for i := 0; i < cpuIters; i++ {
		h = (h ^ uint64(i)) * 1099511628211
	}
	cpu := time.Since(t0)

	next := make([]int32, n)
	// One cycle through every slot with a large odd stride: a fixed,
	// cache-hostile permutation that needs no random source.
	for i, j := 0, int32(0); i < n; i++ {
		k := int32((int64(j) + 7_368_787) % int64(n))
		next[j] = k
		j = k
	}
	t0 = time.Now()
	j := int32(h % uint64(n))
	for i := 0; i < memIters; i++ {
		j = next[j]
	}
	mem := time.Since(t0)
	if j < 0 {
		panic("unreachable: keeps the chase from being optimised away")
	}
	res.add(Metric{Name: "host.calib_cpu_ms", Value: ms(cpu), Unit: "ms", Clock: "host"})
	res.add(Metric{Name: "host.calib_mem_ms", Value: ms(mem), Unit: "ms", Clock: "host"})
}
