package main

import (
	"time"

	"pier/internal/vri"
)

// Per-layer metrics from a traced run: the tracer's self times and call
// counts, and the program's own counters over the measured phase. Names
// are <module>.<metric>.

// resetTotals zeroes the aggregates at the start of the measured phase;
// kept spans stay, so the trace file still shows setup.
func (t *tracer) resetTotals() {
	if t == nil {
		return
	}
	t.self = [nBuckets]time.Duration{}
	t.total = [nBuckets]time.Duration{}
	t.calls = [nBuckets]uint64{}
	for p := range t.sendMsgs {
		delete(t.sendMsgs, p)
		delete(t.sendBytes, p)
	}
}

func (t *tracer) selfS(b bucket) float64 { return t.self[b].Seconds() }

// addSimLayer emits the scheduler's numbers and the attribution check.
// Self times nest, so everything that ran under Env.Run is, by
// construction, exactly one of: the scheduler itself (sim.self_s), a
// callback charged to overlay, qp or the harness, or a callback armed by
// a package the tracer has no layer for. That last share is the residual
// and has to stay under 2% of sim.run_s.
func addSimLayer(res *result, t *tracer, d simCounters) {
	runS := t.total[bSimRun].Seconds()
	res.put("sim.events", float64(d.events), "count")
	res.put("sim.msgs", float64(d.msgs), "count")
	res.put("sim.bytes", float64(d.bytes), "count")
	res.put("sim.run_s", runS, "s")
	res.put("sim.self_s", t.selfS(bSimRun), "s")
	res.put("sim.events_per_s", ratio(float64(d.events), runS), "1/s")
	res.put("harness.callback_s", t.selfS(bHarnessCallback), "s")
	res.put("harness.timer_s", t.selfS(bHarnessTimer), "s")

	residual := 100 * ratio(t.selfS(bOtherTimer)+t.selfS(bOtherHandler), runS)
	res.put("attribution.residual_pct", residual, "%")
	if residual >= 2 {
		res.fail("attribution residual %.2f%% of sim.run_s, want under 2%%", residual)
	}
}

func addOverlayLayer(res *result, t *tracer, d nodeCounters) {
	res.put("overlay.handler_s", t.selfS(bOverlayHandler), "s")
	res.put("overlay.handler_calls", float64(t.calls[bOverlayHandler]), "count")
	res.put("overlay.timer_s", t.selfS(bOverlayTimer), "s")
	res.put("overlay.timer_calls", float64(t.calls[bOverlayTimer]), "count")
	res.put("overlay.ack_s", t.selfS(bOverlayAck), "s")
	res.put("overlay.send_msgs", float64(t.sendMsgs[vri.PortOverlay]), "count")
	res.put("overlay.send_bytes", float64(t.sendBytes[vri.PortOverlay]), "count")
	res.put("overlay.lookups_routed", float64(d.lookupsRouted), "count")
	res.put("overlay.hops_per_lookup", ratio(float64(d.hops), float64(d.lookupsRouted)), "count")
	res.put("overlay.decodes", float64(d.overlayDecodes), "count")
	res.put("overlay.malformed", float64(d.overlayMalformed), "count")
}

// addQPLayer takes the counters over the measured phase (d) and since the
// ring was built (all): subtree sharing and dissemination batching happen
// when queries are submitted, which the netmon workloads do in setup.
func addQPLayer(res *result, t *tracer, d, all nodeCounters, publishes uint64) {
	res.put("qp.handler_s", t.selfS(bQPHandler), "s")
	res.put("qp.handler_calls", float64(t.calls[bQPHandler]), "count")
	res.put("qp.timer_s", t.selfS(bQPTimer), "s")
	res.put("qp.timer_calls", float64(t.calls[bQPTimer]), "count")
	res.put("qp.ack_s", t.selfS(bQPAck), "s")
	res.put("qp.send_msgs", float64(t.sendMsgs[vri.PortQuery]), "count")
	res.put("qp.send_bytes", float64(t.sendBytes[vri.PortQuery]), "count")
	res.put("qp.result_fanout", float64(d.resultFanout), "count")
	res.put("qp.graph_flushes", float64(d.graphFlushes), "count")
	res.put("qp.flush_timer_fires", float64(d.flushTimerFires), "count")
	res.put("qp.publish_s", t.selfS(bQPPublish), "s")
	res.put("qp.publish_ns_per_tuple", ratio(float64(t.self[bQPPublish].Nanoseconds()), float64(publishes)), "ns")
	res.put("qp.chain_feeds", float64(d.chainFeeds), "count")
	res.put("qp.decodes", float64(d.decodes), "count")
	res.put("qp.subtree_hit_ratio", ratio(float64(all.subtreeHits), float64(all.subtreeHits+all.subtreeBuilds)), "ratio")
	res.put("qp.batch_frames", float64(all.batchFrames), "count")
	res.put("qp.graphs_per_frame", ratio(float64(all.batchedGraphs), float64(all.batchFrames)), "count")
	res.put("qp.send_retries", float64(d.sendRetries), "count")
	res.put("qp.send_exhausted", float64(d.sendExhausted), "count")
	res.put("qp.rejects", float64(d.rejects), "count")
	res.put("qp.malformed_drops", float64(d.malformedDrops), "count")
	res.put("qp.leaked", float64(d.leaked), "count")
}

func addGoLayer(res *result, d goCounters, events uint64) {
	res.put("go.alloc_mb", mb(d.allocBytes), "MB")
	res.put("go.allocs_per_event", ratio(float64(d.mallocs), float64(events)), "count")
	res.put("go.num_gc", float64(d.numGC), "count")
	res.put("go.gc_pause_ms", ms(d.gcPause), "ms")
}
