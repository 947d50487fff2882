// Package sim implements PIER's Simulation Environment (paper §3.1.4,
// Figure 4): a discrete-event simulator capable of running thousands of
// virtual nodes on one physical machine, each with its own logical clock
// and network interface, while executing the same program code as the
// Physical Runtime Environment.
//
// By default one Main Scheduler and one priority queue serve all nodes;
// events are annotated with the virtual node that must handle them and
// demultiplexed on dispatch. For large deployments the scheduler can be
// sharded across worker goroutines with SetWorkers (see sharded.go): the
// node population is partitioned into per-shard event heaps that advance
// in conservative time windows bounded by the topology's minimum
// latency. Both modes are deterministic for a given seed, and the
// sharded mode produces identical results for any worker count.
//
// The network is simulated at message-level granularity (one simulated
// packet per application message), with pluggable topology and
// congestion models. Matching the paper, the simulator does not drop
// messages by default (loss can be enabled) but does simulate complete
// node failures. Virtual time starts at the Unix epoch.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"pier/internal/vri"
)

// eventKind selects an event's dispatch behavior. The two dominant
// event classes of every workload — message delivery and its ack — carry
// typed bodies inline in the event struct instead of a closure, so the
// hot path allocates nothing per event; the general Schedule API keeps
// arbitrary closures via evFunc.
type eventKind uint8

const (
	// evFunc runs an arbitrary closure (Env.Schedule, Node.Schedule,
	// stream plumbing).
	evFunc eventKind = iota
	// evDeliver delivers a datagram to ev.node: traffic accounting, the
	// port handler, and the ack-back event. Body: from, port, payload,
	// ack.
	evDeliver
	// evAck reports a delivery outcome to the sender (ev.node). Body:
	// ack, ackOK.
	evAck
)

// event is one entry in a scheduler's priority queue. Dispatch order is
// the total order (at, src, seq): src is the scheduling source's node id
// (0 for environment-level sources) and seq a per-source counter, so the
// order is deterministic and — in sharded mode — independent of how many
// workers raced to enqueue.
//
// Events are pooled (see pool.go): after dispatch or discard the popping
// context recycles the struct, so no reference to an *event may be
// retained past dispatch except through a timerHandle, which carries the
// generation it was issued for and goes inert once the event recycles.
type event struct {
	at        time.Time
	src       uint64
	seq       uint64
	node      *Node // nil for environment-level events
	kind      eventKind
	cancelled bool
	ackOK     bool     // evAck: the outcome to report
	port      vri.Port // evDeliver: destination port

	// gen counts recycles. A timerHandle snapshots it at Schedule time
	// and cancels only while it still matches, so a handle kept past the
	// event's dispatch cannot cancel an unrelated reincarnation. See
	// timerHandle.Cancel for the ownership contract that makes the
	// check-then-act safe and for why the counter is atomic.
	gen atomic.Uint32

	next    *event // pool free-list link
	fn      func() // evFunc: the closure to run
	from    *Node  // evDeliver: the sender
	payload []byte // evDeliver: pooled message bytes, recycled with the event
	ack     vri.AckFunc
}

func (ev *event) before(other *event) bool {
	if !ev.at.Equal(other.at) {
		return ev.at.Before(other.at)
	}
	if ev.src != other.src {
		return ev.src < other.src
	}
	return ev.seq < other.seq
}

// Options configure an Env; the zero value of each field selects its
// default.
type Options struct {
	// Seed drives all randomness in the environment, making runs
	// reproducible. Node random streams derive from it.
	Seed int64
	// Topology supplies pairwise latency. Defaults to a Star topology
	// with 20–60 ms access latency.
	Topology Topology
	// Congestion schedules message departures on access links. Defaults
	// to NoCongestion.
	Congestion CongestionModel
	// LossRate drops each message independently with this probability.
	// The paper's simulator delivers all messages; this defaults to 0.
	// The loss decision always draws from the sender's random stream —
	// never the environment's — so a lossy run is bit-identical at any
	// worker count (the scheduler's core determinism contract; see
	// Env.deliver).
	LossRate float64
	// AckTimeout is how long the transport waits before reporting a
	// failed delivery (dead destination or lost message) to the sender.
	// Default 2s.
	AckTimeout time.Duration
}

// epoch is the virtual time origin of every Env: the Unix epoch.
var epoch = time.Unix(0, 0).UTC()

func (o *Options) fill() {
	if o.Topology == nil {
		o.Topology = NewStar(StarConfig{MinAccess: 20 * time.Millisecond, MaxAccess: 60 * time.Millisecond, Seed: o.Seed})
	}
	if o.Congestion == nil {
		o.Congestion = NoCongestion{}
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 2 * time.Second
	}
}

// Env is the Simulation Environment: virtual clock, Main Scheduler, node
// demultiplexer, and network model.
type Env struct {
	opts   Options
	now    time.Time
	seq    uint64 // environment-source event counter
	queue  eventHeap
	nodes  map[vri.Addr]*Node
	nextID uint64
	rng    *rand.Rand

	// Cumulative counters for events executed, messages sent, and
	// payload bytes sent in environment context. In sharded mode each
	// shard keeps its own counters; Stats sums them.
	events uint64
	msgs   uint64
	bytes  uint64

	// perNode tallies traffic per node for in/out-bandwidth analyses
	// (e.g. the hierarchical-aggregation ablation measures root
	// in-bandwidth). Entries are created at Spawn so sharded workers
	// only ever read the map.
	perNode map[vri.Addr]*NodeTraffic

	// par is non-nil when the sharded scheduler is selected via
	// SetWorkers. See sharded.go.
	par *parEngine

	// net holds driver-installed network condition overrides (partitions,
	// per-link loss/latency) layered on the topology; nil until the first
	// override is installed, so the delivery hot path pays one nil check.
	// Mutated only at driver barriers, read by shard workers during
	// windows (the barrier handoff orders the accesses). See overrides.go.
	net *netOverrides

	// pool recycles events and payload buffers for the sequential
	// scheduler and all driver/coordinator-context scheduling. Shards
	// own their own pools (single-writer, lock-free).
	pool pool
}

// NodeTraffic is one node's cumulative message accounting.
type NodeTraffic struct {
	MsgsIn, MsgsOut   uint64
	BytesIn, BytesOut uint64
}

// NewEnv creates a simulation environment.
func NewEnv(opts Options) *Env {
	opts.fill()
	return &Env{
		opts:    opts,
		now:     epoch,
		nodes:   make(map[vri.Addr]*Node),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		perNode: make(map[vri.Addr]*NodeTraffic),
	}
}

// Now returns the current virtual time. Inside a node's event handler
// under the sharded scheduler, use the node's Now instead: the
// environment clock only advances at window barriers there.
func (e *Env) Now() time.Time { return e.now }

// Rand returns the environment-level random source (used by workload
// generators and churn injection; nodes have their own streams). It must
// only be used from driver code, never from node event handlers.
func (e *Env) Rand() *rand.Rand { return e.rng }

// SetNow rebases the virtual clock to t. It is the restore half of
// checkpoint/restore: a warm-started environment continues at the
// virtual instant its checkpoint was taken, so soft-state expiries
// rebased to relative durations re-anchor consistently and nodes
// spawned afterwards start with the rebased clock. It may only be
// called on an empty environment — before any Spawn, with no events
// pending — because existing node clocks and event timestamps are not
// rewritten.
func (e *Env) SetNow(t time.Time) {
	if !e.AtBarrier() {
		panic("sim: SetNow called from inside a sharded window")
	}
	if len(e.nodes) != 0 {
		panic("sim: SetNow after Spawn; rebase the clock before populating the environment")
	}
	if len(e.queue) != 0 {
		panic("sim: SetNow with pending events")
	}
	if e.par != nil {
		for _, sh := range e.par.shards {
			if len(sh.heap) != 0 {
				panic("sim: SetNow with pending events")
			}
		}
	}
	e.now = t
}

// AtBarrier reports whether the environment is at a driver barrier: the
// sequential scheduler between dispatches, or the sharded scheduler with
// every worker parked (no window executing). Driver-only operations —
// checkpointing node state, Spawn, Fail, Env.Schedule — require it.
func (e *Env) AtBarrier() bool { return e.par == nil || !e.par.inWindow }

// Stats reports cumulative counters: events dispatched, messages sent,
// payload bytes sent.
func (e *Env) Stats() (events, msgs, bytes uint64) {
	events, msgs, bytes = e.events, e.msgs, e.bytes
	if e.par != nil {
		for _, sh := range e.par.shards {
			events += sh.events
			msgs += sh.msgs
			bytes += sh.bytes
		}
	}
	return events, msgs, bytes
}

// Traffic returns the cumulative per-node traffic counters for addr
// (zero-valued if the node never communicated).
func (e *Env) Traffic(addr vri.Addr) NodeTraffic {
	if t := e.perNode[addr]; t != nil {
		return *t
	}
	return NodeTraffic{}
}

// newEvent draws an event from the scheduling context's pool and stamps
// the deterministic dispatch key (at, src, seq) on behalf of source src
// (nil = environment) targeting target (nil = environment). The caller
// fills the kind-specific body and hands the event to enqueue. The
// source determines the tie-break key, the pool, and — in sharded mode —
// which shard's structures the event is routed through. Both scheduler
// modes key events identically, so their dispatch orders (and therefore
// all simulation results) coincide exactly.
func (e *Env) newEvent(src *Node, at time.Time, target *Node) *event {
	var base time.Time
	var ev *event
	if p := e.par; p != nil && p.inWindow && src != nil {
		// Worker context: the source's clock and the source shard's pool,
		// both owned by the calling worker.
		base = src.now
		ev = e.par.shards[src.shard].pool.getEvent()
	} else {
		base = e.now
		ev = e.pool.getEvent()
	}
	if at.Before(base) {
		at = base
	}
	ev.at = at
	ev.node = target
	if src != nil {
		src.srcSeq++
		ev.src, ev.seq = src.id, src.srcSeq
	} else {
		e.seq++
		ev.src, ev.seq = 0, e.seq
	}
	return ev
}

// enqueue routes a stamped event into the right queue: the sequential
// heap, the owning shard's heap, or — during a sharded window — the
// sender shard's outbox lane for cross-shard and environment targets.
// src must be the same source the event was stamped with.
func (e *Env) enqueue(src *Node, ev *event) {
	p := e.par
	if p == nil {
		e.queue.push(ev)
		return
	}
	if p.inWindow && src != nil {
		sh := p.shards[src.shard]
		switch {
		case ev.node == nil:
			sh.outEnv = append(sh.outEnv, ev)
		case ev.node.shard == sh.id:
			sh.heap.push(ev)
		default:
			sh.out[ev.node.shard] = append(sh.out[ev.node.shard], ev)
		}
		return
	}
	// Coordinator context: workers are parked, every heap is safe.
	if ev.node != nil {
		p.shards[ev.node.shard].heap.push(ev)
	} else {
		e.queue.push(ev)
	}
}

// scheduleFrom enqueues fn to run at time at on behalf of target,
// attributed to scheduling source src. It is the closure-bodied (evFunc)
// event constructor; the delivery hot path builds typed events directly.
func (e *Env) scheduleFrom(src *Node, at time.Time, target *Node, fn func()) *event {
	ev := e.newEvent(src, at, target)
	ev.kind = evFunc
	ev.fn = fn
	e.enqueue(src, ev)
	return ev
}

// scheduleAfter is scheduleFrom with a delay relative to the source's
// current clock (the node's own event time inside a sharded window, the
// environment clock otherwise).
func (e *Env) scheduleAfter(src *Node, delay time.Duration, target *Node, fn func()) *event {
	var base time.Time
	if p := e.par; p != nil && p.inWindow && src != nil {
		base = src.now
	} else {
		base = e.now
	}
	return e.scheduleFrom(src, base.Add(delay), target, fn)
}

// timerAfter wraps scheduleAfter in a generation-pinned handle. It
// returns the concrete type so Node.Schedule stays a single call plus an
// interface conversion — cheap enough to inline, which lets callers that
// discard the vri.Timer (the common rearm-a-tick pattern) pay no
// allocation for the handle boxing.
func (e *Env) timerAfter(src *Node, delay time.Duration, fn func()) timerHandle {
	ev := e.scheduleAfter(src, delay, src, fn)
	return timerHandle{ev, ev.gen.Load()}
}

// dispatch runs one popped, live event. The caller recycles ev into its
// own pool afterwards; nothing in dispatch may retain ev or its payload.
func (e *Env) dispatch(ev *event) {
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evDeliver:
		e.runDeliver(ev)
	case evAck:
		ev.ack(ev.ackOK)
	}
}

// runDeliver executes a typed delivery event on the destination node:
// traffic accounting, the port handler, and the ack racing back over the
// reverse path. The payload buffer is only valid until dispatch returns
// (it recycles with the event), which is safe because handlers copy
// anything they retain — the vri.MessageHandler contract.
func (e *Env) runDeliver(ev *event) {
	dst := ev.node
	dst.traf.MsgsIn++
	dst.traf.BytesIn += uint64(len(ev.payload))
	if h := dst.handlers[ev.port]; h != nil {
		h(ev.from.addr, ev.payload)
	}
	// If the sender has failed meanwhile the ack event is silently
	// discarded at dispatch.
	if ev.ack != nil {
		back := e.opts.Topology.Latency(dst.addr, ev.from.addr)
		if nv := e.net; nv != nil {
			// A slow link delays the ack too; partitions and loss do not
			// apply to acks (see the override contract in overrides.go).
			ov, _ := nv.link(dst.addr, ev.from.addr)
			back += ov.extraLatency
		}
		ae := e.newEvent(dst, dst.timeNow().Add(back), ev.from)
		ae.kind = evAck
		ae.ack = ev.ack
		ae.ackOK = true
		e.enqueue(dst, ae)
	}
}

// nackDroppedDeliver honors the transport's reliable-or-notified
// contract for a delivery event discarded because its destination
// failed while the message was in flight. The send-time path already
// nacks a dead destination (deliver); without this, an in-flight
// failure silently swallowed the ack callback and the sender waited
// forever. The failure ack fires at the sender AckTimeout after the
// message's would-be arrival, mirroring the send-time nack delay, and
// is stamped from the DEAD destination's event stream: the popping
// context owns that node's srcSeq counter and pool in both scheduler
// modes (the sender's stream may be racing on another shard), and the
// dead node's events pop in the same (at, src, seq) total order at any
// worker count, so the stamp — and therefore the whole simulation —
// stays bit-identical. Callers invoke this on every discarded
// dead-destination event before recycling it; non-delivery kinds and
// ackless sends are no-ops.
func (e *Env) nackDroppedDeliver(ev *event) {
	if ev.kind != evDeliver || ev.ack == nil {
		return
	}
	dst := ev.node
	ae := e.newEvent(dst, ev.at.Add(e.opts.AckTimeout), ev.from)
	ae.kind = evAck
	ae.ack = ev.ack
	ae.ackOK = false
	e.enqueue(dst, ae)
}

// Schedule enqueues an environment-level event after delay. It is used by
// drivers (workload generators, churn scripts) that are not themselves
// virtual nodes. Under the sharded scheduler such events run alone at
// window barriers and may therefore touch cross-node driver state; they
// must not be scheduled from inside node event handlers there (use the
// node's Schedule for that).
func (e *Env) Schedule(delay time.Duration, fn func()) vri.Timer {
	if e.par != nil && e.par.inWindow {
		panic("sim: Env.Schedule called from a node event under the sharded scheduler; use Node.Schedule")
	}
	ev := e.scheduleFrom(nil, e.now.Add(delay), nil, fn)
	return timerHandle{ev, ev.gen.Load()}
}

// timerHandle implements vri.Timer over a pooled event. gen pins the
// incarnation the handle was issued for: once the event dispatches and
// recycles, the generations diverge and Cancel goes inert instead of
// cancelling whatever event reused the struct.
type timerHandle struct {
	ev  *event
	gen uint32
}

// Cancel is subject to the same ownership rule as every timer in this
// event-driven system (§3.1.2, one logical thread per node): it may only
// be called from the context that scheduled the timer — the owning
// node's event handlers, or driver/coordinator code for Env.Schedule
// timers. That rule is what makes the check-then-act below sound: while
// the generations match, the event is still pending in the calling
// context's own structures, so no other goroutine can be recycling it
// between the check and the cancelled write. Once the timer has fired,
// its recycle happened in this same context (a node's events dispatch on
// one worker), so a later Cancel here observes the bumped generation and
// stays read-only. The counter is atomic for the one remaining
// interleaving: a pooled struct whose ownership has already moved to
// another shard (recycled here, reused for a cross-shard event, now
// being recycled there) may bump gen concurrently with this stale
// handle's load — the load must not be a data race, and whichever value
// it observes is a past-this-handle generation, so the match fails and
// nothing is written.
func (t timerHandle) Cancel() {
	if t.ev.gen.Load() == t.gen {
		t.ev.cancelled = true
	}
}

// Step dispatches the single next event, advancing virtual time. It
// returns false when the queue is empty. Step requires the sequential
// scheduler (the default); use Run or Drain with the sharded one.
func (e *Env) Step() bool {
	if e.par != nil {
		panic("sim: Step requires the sequential scheduler; call SetWorkers(0) first")
	}
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.cancelled {
			e.pool.putEvent(ev)
			continue
		}
		e.now = ev.at
		if ev.node != nil {
			if !ev.node.alive {
				// Events for failed nodes are discarded — but an in-flight
				// delivery still owes its sender the failure ack.
				e.nackDroppedDeliver(ev)
				e.pool.putEvent(ev)
				continue
			}
			ev.node.now = ev.at
		}
		e.events++
		e.dispatch(ev)
		e.pool.putEvent(ev)
		return true
	}
	return false
}

// Run dispatches events until the queue is empty or virtual time would
// exceed the given duration from the current time.
func (e *Env) Run(d time.Duration) {
	e.RunUntil(e.now.Add(d))
}

// RunUntil dispatches events until the queue is empty or the next event
// is after deadline; virtual time ends at deadline.
func (e *Env) RunUntil(deadline time.Time) {
	if e.par != nil {
		e.par.run(e, deadline, false)
		return
	}
	for len(e.queue) > 0 {
		// Peek without popping. Cancelled events and events for failed
		// nodes are discarded here rather than left to Step: Step skips
		// them and dispatches the next live event, so a skippable head
		// with at <= deadline would let an event PAST the deadline run
		// and drag the clock beyond it — a boundary overrun the sharded
		// scheduler (correctly) never makes.
		next := e.queue[0]
		if next.cancelled || (next.node != nil && !next.node.alive) {
			ev := e.queue.pop()
			e.nackDroppedDeliver(ev)
			e.pool.putEvent(ev)
			continue
		}
		if next.at.After(deadline) {
			break
		}
		e.Step()
		if e.events%pruneEvery == 0 {
			e.pruneCongestion(e.now)
		}
	}
	if e.now.Before(deadline) {
		e.now = deadline
	}
	e.pruneCongestion(e.now)
}

// Drain dispatches every remaining event regardless of time. Useful in
// tests that want quiescence.
func (e *Env) Drain() {
	if e.par != nil {
		e.par.run(e, time.Time{}, true)
		return
	}
	for e.Step() {
	}
	e.pruneCongestion(e.now)
}

// pruneEvery is how many dispatched events may pass between congestion
// garbage-collection sweeps during a long uninterrupted run.
const pruneEvery = 1 << 16

// pruneCongestion garbage-collects drained per-link congestion state.
// It must only be called from driver context, with `before` no later
// than any pending or future event time. In sequential mode e.now
// qualifies (schedules clamp to it); the sharded engine passes the
// minimum pending event time across shards instead, since a shard's
// clock may trail the environment clock by up to one lookahead window.
func (e *Env) pruneCongestion(before time.Time) {
	if p, ok := e.opts.Congestion.(Prunable); ok {
		p.Prune(before)
	}
}

// Spawn creates a live virtual node with the given name and returns its
// runtime. Names must be unique among live and failed nodes. Under the
// sharded scheduler, Spawn may only be called from driver code (between
// runs or inside environment-level events), never from node handlers.
func (e *Env) Spawn(name string) *Node {
	if e.par != nil && e.par.inWindow {
		panic("sim: Spawn called from a node event under the sharded scheduler")
	}
	addr := vri.Addr(name)
	if _, ok := e.nodes[addr]; ok {
		panic(fmt.Sprintf("sim: duplicate node %q", name))
	}
	e.nextID++
	n := &Node{
		env:      e,
		addr:     addr,
		id:       e.nextID,
		alive:    true,
		now:      e.now,
		handlers: make(map[vri.Port]vri.MessageHandler),
		streams:  make(map[vri.Port]vri.StreamHandler),
		rng:      rand.New(rand.NewSource(e.opts.Seed ^ int64(fnvHash(name)))),
		traf:     &NodeTraffic{},
	}
	if e.par != nil {
		n.shard = int((n.id - 1) % uint64(e.par.k))
	}
	e.nodes[addr] = n
	e.perNode[addr] = n.traf
	e.opts.Topology.Register(addr)
	return n
}

// SpawnN creates n nodes named prefix-0..prefix-(n-1).
func (e *Env) SpawnN(prefix string, n int) []*Node {
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = e.Spawn(fmt.Sprintf("%s-%d", prefix, i))
	}
	return nodes
}

// Node returns the node with the given address, or nil.
func (e *Env) Node(addr vri.Addr) *Node {
	return e.nodes[addr]
}

// Fail kills a node: pending and future events for it are discarded, its
// handlers are dropped, and messages addressed to it fail delivery. This
// models the paper's "complete node failures": the node's state is
// frozen as-is, nothing is captured or flushed, and the address never
// revives (respawns use fresh names). The transport contract survives
// the failure — a message already in flight to the dying node nacks its
// sender AckTimeout after the would-be arrival (nackDroppedDeliver),
// exactly as a send to an already-dead node nacks at send time. Under
// the sharded scheduler, Fail may only be called from driver code.
func (e *Env) Fail(addr vri.Addr) {
	if e.par != nil && e.par.inWindow {
		panic("sim: Fail called from a node event under the sharded scheduler")
	}
	n := e.nodes[addr]
	if n == nil || !n.alive {
		return
	}
	n.alive = false
	for _, c := range n.conns {
		c.failPeer()
	}
	n.conns = nil
	n.handlers = make(map[vri.Port]vri.MessageHandler)
	n.streams = make(map[vri.Port]vri.StreamHandler)
}

// Alive reports whether the node exists and has not failed.
func (e *Env) Alive(addr vri.Addr) bool {
	n := e.nodes[addr]
	return n != nil && n.alive
}

// LiveAddrs returns the addresses of all live nodes in sorted order.
// The canonical order is part of the contract: drivers sample failure
// targets and workload origins from this slice, and any iteration whose
// order decides message sequences must be canonically ordered (the
// sharded-safe harness rules in ROADMAP.md) — the map-iteration order
// returned before made every such draw run-dependent.
func (e *Env) LiveAddrs() []vri.Addr {
	out := make([]vri.Addr, 0, len(e.nodes))
	for a, n := range e.nodes {
		if n.alive {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// deliver routes a datagram through the network model. It computes the
// departure time from the congestion model, adds propagation latency from
// the topology, and schedules a typed receive event on the destination
// (or a typed failure-ack on the source). It always executes in src's
// context: on src's shard worker during a window, or in driver context
// otherwise. The caller's payload slice is consumed synchronously — the
// bytes are copied into a pooled buffer before deliver returns — so
// senders may immediately reuse their encode buffers.
func (e *Env) deliver(src *Node, dst vri.Addr, dstPort vri.Port, payload []byte, ack vri.AckFunc) {
	now := src.timeNow()
	var pl *pool
	if e.par != nil && e.par.inWindow {
		sh := e.par.shards[src.shard]
		sh.msgs++
		sh.bytes += uint64(len(payload))
		pl = &sh.pool
	} else {
		e.msgs++
		e.bytes += uint64(len(payload))
		pl = &e.pool
	}
	src.traf.MsgsOut++
	src.traf.BytesOut += uint64(len(payload))
	size := len(payload) + 48 // crude header overhead
	departure := e.opts.Congestion.Departure(now, src.addr, dst, size)
	latency := e.opts.Topology.Latency(src.addr, dst)
	arrival := departure.Add(latency)

	var lost bool
	if e.opts.LossRate > 0 {
		// Always the sender's stream. The environment stream is not just
		// unsafe under sharded workers — drawing from it SEQUENTIALLY
		// while drawing from src.rng under workers meant any LossRate>0
		// run violated the workers=0 ≡ workers=8 contract (the draw
		// sequences diverged). The per-sender stream is consumed in the
		// sender's own deterministic event order in both modes.
		lost = src.rng.Float64() < e.opts.LossRate
	}
	blocked := false
	if nv := e.net; nv != nil {
		ov, cut := nv.link(src.addr, dst)
		blocked = cut
		arrival = arrival.Add(ov.extraLatency)
		if !lost && ov.loss > 0 {
			// Same stream, after the base draw: the draw count per send
			// is a deterministic function of the override table, which
			// only changes at driver barriers.
			lost = src.rng.Float64() < ov.loss
		}
	}
	dstNode := e.nodes[dst]
	if lost || blocked || dstNode == nil || !dstNode.alive {
		if ack != nil {
			ev := e.newEvent(src, now.Add(e.opts.AckTimeout), src)
			ev.kind = evAck
			ev.ack = ack
			ev.ackOK = false
			e.enqueue(src, ev)
		}
		return
	}
	ev := e.newEvent(src, arrival, dstNode)
	ev.kind = evDeliver
	ev.from = src
	ev.port = dstPort
	ev.ack = ack
	buf := pl.getBuf(len(payload))
	copy(buf, payload)
	ev.payload = buf
	e.enqueue(src, ev)
}

func fnvHash(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
