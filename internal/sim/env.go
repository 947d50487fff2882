// Package sim implements PIER's Simulation Environment (paper §3.1.4,
// Figure 4): a discrete-event simulator capable of running thousands of
// virtual nodes on one physical machine, each with its own logical clock
// and network interface, while executing the same program code as the
// Physical Runtime Environment.
//
// One Main Scheduler serves all nodes; events are annotated with the
// virtual node that must handle them and demultiplexed on dispatch. The
// scheduler advances in conservative time windows bounded by the
// topology's minimum latency, over per-shard event heaps (see
// sharded.go). By default one shard dispatches inline on the calling
// goroutine; SetWorkers spreads the node population across worker
// goroutines for large deployments. Runs are deterministic for a given
// seed and identical for any worker count.
//
// The network is simulated at message-level granularity (one simulated
// packet per application message). A message arrives after the
// topology's pairwise latency plus any driver-installed link override;
// the Topology is the one network extension point. Matching the paper,
// the simulator does not drop messages by default (loss can be enabled)
// but does simulate complete node failures. Virtual time starts at the
// Unix epoch. Inside the package it is int64 nanoseconds from that
// epoch; a time.Time is built only where time crosses the package edge:
// Env.Now, Node.Now, and the arguments of SetNow and RunUntil.
package sim

import (
	"fmt"
	"math"
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

// event is the body of one scheduled occurrence. Its dispatch key (at,
// src, seq) is not here: it lives in the queue slot that carries the
// event (see heap.go), which is all the ordering code ever reads, and
// travels with it through outboxes and SetWorkers migrations.
//
// Events are pooled (see pool.go): after dispatch or discard the popping
// context recycles the struct, so no reference to an *event may be
// retained past dispatch except through a timerHandle, which carries the
// generation it was issued for and goes inert once the event recycles.
type event struct {
	node      *Node // nil for environment-level events
	kind      eventKind
	cancelled bool
	ackOK     bool // evAck: the outcome to report

	// gen counts recycles. A timerHandle snapshots it at Schedule time
	// and cancels only while it still matches, so a handle kept past the
	// event's dispatch cannot cancel an unrelated reincarnation. See
	// timerHandle.Cancel for the ownership contract that makes the
	// check-then-act safe and for why the counter is atomic.
	gen atomic.Uint32

	port    vri.Port // evDeliver: destination port
	next    *event   // pool free-list link
	fn      func()   // evFunc: the closure to run
	from    *Node    // evDeliver: the sender
	payload []byte   // evDeliver: pooled message bytes, recycled with the event
	ack     vri.AckFunc
}

// Options configure an Env: the seed, the topology, uniform loss and the
// ack timeout. The zero value of each field selects its default.
type Options struct {
	// Seed drives all randomness in the environment, making runs
	// reproducible. Node random streams derive from it.
	Seed int64
	// Topology supplies pairwise latency. Defaults to a Star topology
	// with 20–60 ms access latency.
	Topology Topology
	// LossRate drops each message independently with this probability.
	// The paper's simulator delivers all messages; this defaults to 0.
	// The loss decision always draws from the sender's random stream —
	// never the environment's — so a lossy run is bit-identical at any
	// worker count (the scheduler's core determinism contract; see
	// Env.deliver).
	LossRate float64
	// AckTimeout is how long the transport waits before reporting a
	// failed delivery (dead destination or lost message) to the sender.
	// Default 2s; it may not be below the topology's MinLatency.
	AckTimeout time.Duration
}

// vtime converts virtual nanoseconds to the instant the package hands
// out.
func vtime(ns int64) time.Time { return time.Unix(0, ns).UTC() }

func (o *Options) fill() {
	if o.Topology == nil {
		o.Topology = NewStar(StarConfig{MinAccess: 20 * time.Millisecond, MaxAccess: 60 * time.Millisecond, Seed: o.Seed})
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 2 * time.Second
	}
}

// Env is the Simulation Environment: virtual clock, Main Scheduler, node
// demultiplexer, and network model.
type Env struct {
	opts Options
	// now is the environment clock in virtual ns. It advances only at
	// window barriers, so only driver code may read it; a node's handler
	// reads its own clock (Node.Now).
	now    int64
	seq    uint64    // environment-source event counter
	queue  eventHeap // environment-level events; node events live in shards
	nodes  map[vri.Addr]*Node
	nextID uint64
	rng    *rand.Rand

	// par is the Main Scheduler's windowed engine (sharded.go); SetWorkers
	// replaces it.
	par *parEngine

	// net holds driver-installed network condition overrides (partitions,
	// per-link loss/latency) layered on the topology; nil until the first
	// override is installed, so the delivery hot path pays one nil check.
	// Mutated only at driver barriers, read by shard workers during
	// windows (the barrier handoff orders the accesses). See overrides.go.
	net *netOverrides
}

// NodeTraffic is one node's cumulative message accounting.
type NodeTraffic struct {
	MsgsIn, MsgsOut   uint64
	BytesIn, BytesOut uint64
}

// NewEnv creates a simulation environment with one scheduler shard. It
// panics if the topology's MinLatency is not positive (the lookahead
// window would be empty) or AckTimeout is below it.
func NewEnv(opts Options) *Env {
	opts.fill()
	la := opts.Topology.MinLatency()
	if la <= 0 {
		panic(fmt.Sprintf("sim: NewEnv needs a topology with positive MinLatency, got %v", la))
	}
	if opts.AckTimeout < la {
		// Every cross-shard event must land >= one lookahead ahead of the
		// window that creates it. Message arrivals satisfy this through
		// the topology (latency >= MinLatency); failure nacks for
		// in-flight deliveries (nackDroppedDeliver) land AckTimeout
		// ahead, so an ack timeout below the minimum latency would let a
		// nack land inside an already-dispatched window.
		panic(fmt.Sprintf("sim: NewEnv needs AckTimeout >= the topology's MinLatency lookahead (%v), got %v",
			la, opts.AckTimeout))
	}
	return &Env{
		opts:  opts,
		nodes: make(map[vri.Addr]*Node),
		rng:   rand.New(rand.NewSource(opts.Seed)),
		par:   newParEngine(1, int64(la)),
	}
}

// Now returns the environment clock: the virtual time of the last window
// barrier, exact for driver code between runs and inside
// environment-level events. Inside a node's event handler use the
// node's Now instead: the environment clock only advances at barriers.
func (e *Env) Now() time.Time { return vtime(e.now) }

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
// rewritten. t must lie within the int64-nanosecond range of the clock,
// about 292 years either side of the Unix epoch.
func (e *Env) SetNow(t time.Time) {
	if t.Before(vtime(math.MinInt64)) || t.After(vtime(math.MaxInt64)) {
		panic(fmt.Sprintf("sim: SetNow(%v) outside the virtual clock's range [%v, %v]",
			t, vtime(math.MinInt64), vtime(math.MaxInt64)))
	}
	if !e.AtBarrier() {
		panic("sim: SetNow called from inside a window")
	}
	if len(e.nodes) != 0 {
		panic("sim: SetNow after Spawn; rebase the clock before populating the environment")
	}
	if len(e.queue) != 0 {
		panic("sim: SetNow with pending events")
	}
	for _, sh := range e.par.shards {
		if len(sh.heap) != 0 {
			panic("sim: SetNow with pending events")
		}
	}
	e.now = t.UnixNano()
}

// AtBarrier reports whether the environment is at a driver barrier: no
// window executing, every shard parked. Driver-only operations —
// checkpointing node state, Spawn, Fail, Env.Schedule — require it.
func (e *Env) AtBarrier() bool { return !e.par.inWindow }

// Stats reports cumulative counters: events dispatched, messages sent,
// payload bytes sent.
func (e *Env) Stats() (events, msgs, bytes uint64) {
	for _, sh := range e.par.shards {
		events += sh.events
		msgs += sh.msgs
		bytes += sh.bytes
	}
	return events, msgs, bytes
}

// Traffic returns the cumulative traffic counters of the node at addr,
// failed or alive (zero-valued if no such node was spawned).
func (e *Env) Traffic(addr vri.Addr) NodeTraffic {
	if n := e.nodes[addr]; n != nil {
		return *n.traf
	}
	return NodeTraffic{}
}

// newEvent draws an event from the source's shard pool (shard 0's for
// the environment) and stamps the deterministic dispatch key (at, src,
// seq) on behalf of source src (nil = environment) targeting target
// (nil = environment) into the slot it returns. The caller fills the
// kind-specific body of s.ev and hands the slot to enqueue.
func (e *Env) newEvent(src *Node, at int64, target *Node) slot {
	var s slot
	base, sh := e.now, e.par.shards[0]
	if src != nil {
		sh = e.par.shards[src.shard]
		if e.par.inWindow {
			// Worker context: the source's clock, owned by the calling
			// worker like its shard's pool.
			base = src.now
		}
		src.srcSeq++
		s.src, s.seq = src.id, src.srcSeq
	} else {
		e.seq++
		s.seq = e.seq
	}
	s.at = max(at, base)
	s.ev = sh.pool.getEvent()
	s.ev.node = target
	return s
}

// enqueue routes a stamped slot into the right queue: the environment
// heap, the owning shard's heap, or — during a window — the sender
// shard's outbox lane for cross-shard and environment targets. src must
// be the same source the slot was stamped with.
func (e *Env) enqueue(src *Node, s slot) {
	p := e.par
	target := s.ev.node
	if p.inWindow && src != nil {
		sh := p.shards[src.shard]
		switch {
		case target == nil:
			sh.outEnv = append(sh.outEnv, s)
		case target.shard == sh.id:
			sh.heap.push(s)
		default:
			sh.out[target.shard] = append(sh.out[target.shard], s)
		}
		return
	}
	// Coordinator context: workers are parked, every heap is safe.
	if target != nil {
		p.shards[target.shard].heap.push(s)
	} else {
		e.queue.push(s)
	}
}

// scheduleFrom enqueues fn to run at time at on behalf of target,
// attributed to scheduling source src. It is the closure-bodied (evFunc)
// event constructor; the delivery hot path builds typed events directly.
func (e *Env) scheduleFrom(src *Node, at int64, target *Node, fn func()) *event {
	s := e.newEvent(src, at, target)
	s.ev.kind = evFunc
	s.ev.fn = fn
	e.enqueue(src, s)
	return s.ev
}

// scheduleAfter is scheduleFrom with a delay relative to the source's
// current clock (the node's own event time inside a window, the
// environment clock otherwise).
func (e *Env) scheduleAfter(src *Node, delay time.Duration, target *Node, fn func()) *event {
	base := e.now
	if src != nil {
		base = src.timeNow()
	}
	return e.scheduleFrom(src, base+int64(delay), target, fn)
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
		ae := e.newEvent(dst, dst.timeNow()+int64(back), ev.from)
		ae.ev.kind = evAck
		ae.ev.ack = ev.ack
		ae.ev.ackOK = true
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
// context owns that node's srcSeq counter and pool (the sender's stream
// may be racing on another shard), and the dead node's events pop in
// the same (at, src, seq) total order at any worker count, so the stamp
// — and therefore the whole simulation — stays bit-identical. Callers invoke this on every discarded
// dead-destination slot before recycling its event; non-delivery kinds
// and ackless sends are no-ops.
func (e *Env) nackDroppedDeliver(s slot) {
	ev := s.ev
	if ev.kind != evDeliver || ev.ack == nil {
		return
	}
	dst := ev.node
	ae := e.newEvent(dst, s.at+int64(e.opts.AckTimeout), ev.from)
	ae.ev.kind = evAck
	ae.ev.ack = ev.ack
	ae.ev.ackOK = false
	e.enqueue(dst, ae)
}

// Schedule enqueues an environment-level event after delay. It is used by
// drivers (workload generators, churn scripts) that are not themselves
// virtual nodes. Such events run alone at window barriers and may
// therefore touch cross-node driver state; they must not be scheduled
// from inside node event handlers (use the node's Schedule for that).
func (e *Env) Schedule(delay time.Duration, fn func()) vri.Timer {
	if e.par.inWindow {
		panic("sim: Env.Schedule called from a node event; use Node.Schedule")
	}
	ev := e.scheduleFrom(nil, e.now+int64(delay), nil, fn)
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

// Run dispatches events until the queue is empty or virtual time would
// exceed the given duration from the current time.
func (e *Env) Run(d time.Duration) {
	e.RunUntil(vtime(e.now + int64(d)))
}

// RunUntil dispatches events until the queue is empty or the next event
// is after deadline; virtual time ends at deadline.
func (e *Env) RunUntil(t time.Time) { e.par.run(e, t.UnixNano(), false) }

// Drain dispatches every remaining event regardless of time. Useful in
// tests that want quiescence.
func (e *Env) Drain() { e.par.run(e, 0, true) }

// Spawn creates a live virtual node with the given name and returns its
// runtime. Names must be unique among live and failed nodes. Spawn may
// only be called from driver code (between runs or inside
// environment-level events), never from node handlers.
func (e *Env) Spawn(name string) *Node {
	if e.par.inWindow {
		panic("sim: Spawn called from a node event")
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
	n.shard = e.par.shardOf(n.id)
	e.nodes[addr] = n
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
// exactly as a send to an already-dead node nacks at send time. Fail may
// only be called from driver code.
func (e *Env) Fail(addr vri.Addr) {
	if e.par.inWindow {
		panic("sim: Fail called from a node event")
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

// deliver routes a datagram through the network model. The arrival time
// is the send time plus the topology's latency plus any link override's
// extra latency; deliver schedules a typed receive event on the
// destination (or a typed failure-ack on the source). It always executes
// in src's context: on src's shard worker during a window, or in driver
// context otherwise. The caller's payload slice is consumed
// synchronously — the bytes are copied into a pooled buffer before
// deliver returns — so senders may immediately reuse their encode
// buffers.
func (e *Env) deliver(src *Node, dst vri.Addr, dstPort vri.Port, payload []byte, ack vri.AckFunc) {
	now := src.timeNow()
	sh := e.par.shards[src.shard]
	sh.msgs++
	sh.bytes += uint64(len(payload))
	src.traf.MsgsOut++
	src.traf.BytesOut += uint64(len(payload))
	arrival := now + int64(e.opts.Topology.Latency(src.addr, dst))

	var lost bool
	if e.opts.LossRate > 0 {
		// Always the sender's stream: the environment stream is unsafe
		// under workers, and its draw order would depend on how shards
		// interleave. The per-sender stream is consumed in the sender's
		// own deterministic event order at any worker count.
		lost = src.rng.Float64() < e.opts.LossRate
	}
	blocked := false
	if nv := e.net; nv != nil {
		ov, cut := nv.link(src.addr, dst)
		blocked = cut
		arrival += int64(ov.extraLatency)
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
			s := e.newEvent(src, now+int64(e.opts.AckTimeout), src)
			s.ev.kind = evAck
			s.ev.ack = ack
			s.ev.ackOK = false
			e.enqueue(src, s)
		}
		return
	}
	s := e.newEvent(src, arrival, dstNode)
	ev := s.ev
	ev.kind = evDeliver
	ev.from = src
	ev.port = dstPort
	ev.ack = ack
	buf := sh.pool.getBuf(len(payload))
	copy(buf, payload)
	ev.payload = buf
	e.enqueue(src, s)
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
