package main

import (
	"runtime"
	"time"

	"pier/internal/qp"
	"pier/internal/sim"
)

// This file is the only place the benchmark reads the program's own
// counters (qp.NodeStats, DHT.RouterStats, DHT.SubscriptionStats,
// Env.Stats) and runtime.MemStats, so a change to those surfaces is a
// change to one file here.

// simCounters is Env.Stats at one instant.
type simCounters struct {
	events, msgs, bytes uint64
}

func readSim(env *sim.Env) simCounters {
	var c simCounters
	c.events, c.msgs, c.bytes = env.Stats()
	return c
}

func (c simCounters) sub(o simCounters) simCounters {
	return simCounters{c.events - o.events, c.msgs - o.msgs, c.bytes - o.bytes}
}

// nodeCounters sums the query-plane and overlay counters of a cluster.
type nodeCounters struct {
	resultFanout, graphFlushes, flushTimerFires uint64
	chainFeeds, decodes                         uint64
	subtreeBuilds, subtreeHits                  uint64
	batchFrames, batchedGraphs                  uint64
	sendRetries, sendExhausted                  uint64
	rejects, malformedDrops                     uint64
	lookupsRouted, hops                         uint64
	overlayDecodes, overlayMalformed            uint64
	// liveGraphs is the opgraphs executing now, across the cluster.
	liveGraphs int
	// leaked is the sum of the gauges that must all read zero once every
	// query has ended: live graphs, subscriptions, shared chains and
	// their attachments, per-client ledgers, pending sends, wheel slots.
	leaked int
}

func readNodes(nodes []*qp.Node) nodeCounters {
	var c nodeCounters
	for _, n := range nodes {
		st := n.Stats()
		c.resultFanout += st.SharedExecFanout
		c.graphFlushes += st.GraphFlushes
		c.flushTimerFires += st.FlushTimerFires
		c.chainFeeds += st.ChainFeeds
		c.decodes += st.Decodes
		c.subtreeBuilds += st.SubtreeBuilds
		c.subtreeHits += st.SubtreeHits
		c.batchFrames += st.BatchFrames
		c.batchedGraphs += st.BatchedGraphs
		c.sendRetries += st.SendRetries
		c.sendExhausted += st.SendExhausted
		c.rejects += st.GraphsRejected
		c.malformedDrops += st.MalformedDrops
		c.liveGraphs += st.LiveGraphs
		c.leaked += st.LiveGraphs + st.Subscriptions + st.SharedSubscriptions +
			st.SharedSubtrees + st.SubtreeAttachments + st.TrackedClients +
			st.PendingSends + st.WheelSlots

		routed, hops := n.DHT().RouterStats()
		c.lookupsRouted += routed
		c.hops += hops
		ss := n.DHT().SubscriptionStats()
		c.overlayDecodes += ss.Decodes
		c.overlayMalformed += ss.Malformed
	}
	return c
}

func (c nodeCounters) sub(o nodeCounters) nodeCounters {
	return nodeCounters{
		resultFanout:     c.resultFanout - o.resultFanout,
		graphFlushes:     c.graphFlushes - o.graphFlushes,
		flushTimerFires:  c.flushTimerFires - o.flushTimerFires,
		chainFeeds:       c.chainFeeds - o.chainFeeds,
		decodes:          c.decodes - o.decodes,
		subtreeBuilds:    c.subtreeBuilds - o.subtreeBuilds,
		subtreeHits:      c.subtreeHits - o.subtreeHits,
		batchFrames:      c.batchFrames - o.batchFrames,
		batchedGraphs:    c.batchedGraphs - o.batchedGraphs,
		sendRetries:      c.sendRetries - o.sendRetries,
		sendExhausted:    c.sendExhausted - o.sendExhausted,
		rejects:          c.rejects - o.rejects,
		malformedDrops:   c.malformedDrops - o.malformedDrops,
		lookupsRouted:    c.lookupsRouted - o.lookupsRouted,
		hops:             c.hops - o.hops,
		overlayDecodes:   c.overlayDecodes - o.overlayDecodes,
		overlayMalformed: c.overlayMalformed - o.overlayMalformed,
		liveGraphs:       c.liveGraphs,
		leaked:           c.leaked,
	}
}

// liveHeapMB forces a collection and returns what survived it.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mb(m.HeapAlloc)
}

// goCounters is the allocator's and collector's cumulative work.
type goCounters struct {
	allocBytes, mallocs uint64
	numGC               uint32
	gcPause             time.Duration
}

func readGo() goCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goCounters{
		allocBytes: m.TotalAlloc,
		mallocs:    m.Mallocs,
		numGC:      m.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs),
	}
}

func (c goCounters) sub(o goCounters) goCounters {
	return goCounters{c.allocBytes - o.allocBytes, c.mallocs - o.mallocs, c.numGC - o.numGC, c.gcPause - o.gcPause}
}
