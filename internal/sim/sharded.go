package sim

import (
	"fmt"
	"math"
)

// This file implements the sharded Main Scheduler (opt-in via
// Env.SetWorkers). The design is a conservative parallel discrete-event
// simulation:
//
//   - Virtual nodes are partitioned across K shards, each with its own
//     event heap, executed by one worker goroutine per shard.
//   - Execution proceeds in time windows [T, T+L), where the lookahead L
//     is the topology's minimum inter-node latency. Within a window every
//     shard dispatches its own events independently: any event one node
//     schedules on another travels through the simulated network, so it
//     lands at least L in the future — past the window edge — and cannot
//     affect another shard's current window.
//   - Events created for another shard (or for the environment) are
//     buffered in per-destination outboxes and merged at the window
//     barrier. Environment-level events (drivers: workload generators,
//     churn scripts) run alone at barriers, so they may safely touch
//     cross-node driver state.
//
// Determinism: dispatch order is the strict total order (at, src, seq)
// where src is the scheduling node's id and seq a per-source counter.
// Both are assigned by the single worker that owns the source, so the
// key of every event — and therefore the dispatch order observed by any
// single node — is independent of the worker count and of how barrier
// merges interleave. The same seed yields the same results at K=1 and
// K=8; TestShardedDeterminismAcrossWorkerCounts locks this in.
type parEngine struct {
	k         int
	lookahead int64 // virtual ns
	shards    []*shard

	// inWindow is true while shard workers are dispatching a window. It
	// is written by the coordinator strictly before releasing workers
	// and after they all park, so reads from workers are race-free.
	inWindow bool
}

// shard is one partition of the node population: an event heap owned by
// a single worker goroutine, per-destination-shard outboxes for events
// created during a window, and shard-local counters folded into Env
// statistics on demand.
type shard struct {
	id   int
	heap eventHeap
	// out[d] buffers slots targeting shard d; outEnv buffers
	// environment-level ones. Merged at window barriers.
	out    [][]slot
	outEnv []slot

	// pool recycles events and payload buffers. Touched only by this
	// shard's worker while a window executes (allocation for events this
	// shard's nodes schedule, recycling for events this shard
	// dispatches), so it is lock-free by ownership.
	pool pool

	events, msgs, bytes uint64
	lastAt              int64 // virtual ns of the last dispatch
}

// SetWorkers selects the scheduler. k <= 0 restores the default
// sequential Main Scheduler. k >= 1 enables the sharded scheduler with k
// worker shards; k == 1 runs the same windowed algorithm inline, so a
// single-worker run is bit-identical to any other worker count. Pending
// events and nodes are migrated, so SetWorkers may be called before or
// after Spawn, but not from inside a run.
//
// The sharded scheduler requires a topology whose MinLatency is
// positive: the lookahead window would otherwise be empty and no
// parallel progress possible.
func (e *Env) SetWorkers(k int) {
	if e.par != nil && e.par.inWindow {
		panic("sim: SetWorkers called during a run")
	}
	// Collect every pending slot from the current structures.
	var pending []slot
	pending = append(pending, e.queue...)
	e.queue = nil
	if e.par != nil {
		for _, sh := range e.par.shards {
			pending = append(pending, sh.heap...)
			e.events += sh.events
			e.msgs += sh.msgs
			e.bytes += sh.bytes
		}
		e.par = nil
	}
	if k <= 0 {
		e.queue = pending
		e.queue.reinit()
		return
	}
	la := e.opts.Topology.MinLatency()
	if la <= 0 {
		panic(fmt.Sprintf("sim: SetWorkers(%d) needs a topology with positive MinLatency, got %v", k, la))
	}
	if e.opts.AckTimeout < la {
		// Every cross-shard event must land >= one lookahead ahead of the
		// window that creates it. Message arrivals satisfy this through
		// the topology (latency >= MinLatency); failure nacks for
		// in-flight deliveries (nackDroppedDeliver) land AckTimeout
		// ahead, so an ack timeout below the minimum latency would let a
		// nack land inside an already-dispatched window.
		panic(fmt.Sprintf("sim: SetWorkers(%d) needs AckTimeout >= the topology's MinLatency lookahead (%v), got %v",
			k, la, e.opts.AckTimeout))
	}
	p := &parEngine{k: k, lookahead: int64(la), shards: make([]*shard, k)}
	for i := range p.shards {
		p.shards[i] = &shard{id: i, out: make([][]slot, k), lastAt: math.MinInt64}
	}
	for _, n := range e.nodes {
		n.shard = int((n.id - 1) % uint64(k))
	}
	e.par = p
	for _, s := range pending {
		if n := s.ev.node; n != nil {
			p.shards[n.shard].heap.push(s)
		} else {
			e.queue.push(s)
		}
	}
}

// Workers reports the configured worker count (0 = sequential default).
func (e *Env) Workers() int {
	if e.par == nil {
		return 0
	}
	return e.par.k
}

// Event routing in sharded mode lives in Env.newEvent/Env.enqueue
// (env.go): during a window a worker stamps events from its own nodes
// (clock base src.now, the shard's pool) and routes cross-shard targets
// through outbox lanes; in coordinator context workers are parked and
// every heap is safe to push directly.

// dispatchWindow pops and runs this shard's events with at < end,
// recycling each into the shard's pool after dispatch or discard.
func (sh *shard) dispatchWindow(e *Env, end int64) {
	for len(sh.heap) > 0 && sh.heap[0].at < end {
		s := sh.heap.pop()
		top := s.ev
		if top.cancelled {
			sh.pool.putEvent(top)
			continue
		}
		n := top.node
		if !n.alive {
			// Discarded in-flight deliveries still owe the sender a
			// failure ack. The nack lands >= AckTimeout ahead, and
			// SetWorkers requires AckTimeout >= the lookahead, so a
			// cross-shard nack never lands inside the current window.
			e.nackDroppedDeliver(s)
			sh.pool.putEvent(top)
			continue
		}
		n.now = s.at
		sh.lastAt = s.at
		sh.events++
		e.dispatch(top)
		sh.pool.putEvent(top)
	}
}

// mergeInbound moves events addressed to this shard out of every shard's
// outboxes into this shard's heap. Each worker merges only its own
// inbound lane, so the merge parallelizes; heap order is a strict total
// order on (at, src, seq), so the result is independent of lane order.
func (sh *shard) mergeInbound(shards []*shard) {
	for _, from := range shards {
		lane := from.out[sh.id]
		for _, s := range lane {
			sh.heap.push(s)
		}
		from.out[sh.id] = lane[:0]
	}
}

// peekMin returns the earliest pending event time across shard heaps.
func (p *parEngine) peekMin() (int64, bool) {
	best, ok := int64(0), false
	for _, sh := range p.shards {
		if len(sh.heap) == 0 {
			continue
		}
		if at := sh.heap[0].at; !ok || at < best {
			best, ok = at, true
		}
	}
	return best, ok
}

// mergePhase is the barrier value that tells shard workers to merge
// their inbound lanes instead of dispatching a window. No window ends
// there: every window ends after the pending instant it starts from.
const mergePhase = math.MinInt64

// run is the sharded counterpart of RunUntil (drain == false) and Drain
// (drain == true). The coordinator alternates between running due
// environment-level events (alone, at barriers) and releasing the shard
// workers for one conservative window.
func (p *parEngine) run(e *Env, deadline int64, drain bool) {
	var starts []chan int64
	var done chan struct{}
	if p.k > 1 {
		starts = make([]chan int64, p.k)
		done = make(chan struct{}, p.k)
		for i := 0; i < p.k; i++ {
			starts[i] = make(chan int64)
			go func(sh *shard, start <-chan int64) {
				for end := range start {
					if end == mergePhase {
						sh.mergeInbound(p.shards)
					} else {
						sh.dispatchWindow(e, end)
					}
					done <- struct{}{}
				}
			}(p.shards[i], starts[i])
		}
		defer func() {
			for _, c := range starts {
				close(c)
			}
		}()
	}
	barrier := func(end int64) {
		if p.k == 1 {
			if end == mergePhase {
				p.shards[0].mergeInbound(p.shards)
			} else {
				p.shards[0].dispatchWindow(e, end)
			}
			return
		}
		for _, c := range starts {
			c <- end
		}
		for i := 0; i < p.k; i++ {
			<-done
		}
	}

	windows := uint64(0)
	for {
		nmin, okN := p.peekMin()
		var gmin int64
		okG := len(e.queue) > 0
		if okG {
			gmin = e.queue[0].at
		}
		if !okN && !okG {
			break
		}
		// Periodic congestion GC, from coordinator context. The sweep
		// threshold is the minimum pending event time: every future
		// Departure call inside this run carries a `now` at or after it,
		// so entries that drained before it can never matter again.
		windows++
		if windows%512 == 0 {
			min := nmin
			if !okN || (okG && gmin < min) {
				min = gmin
			}
			e.pruneCongestion(min)
		}
		// Environment-level events run first on ties: their source id 0
		// sorts below every node id, matching the sequential order.
		if okG && (!okN || nmin >= gmin) {
			if !drain && gmin > deadline {
				break
			}
			s := e.queue.pop()
			ev := s.ev
			if ev.cancelled {
				e.pool.putEvent(ev)
				continue
			}
			e.now = max(e.now, s.at)
			if ev.node != nil {
				if !ev.node.alive {
					e.nackDroppedDeliver(s)
					e.pool.putEvent(ev)
					continue
				}
				ev.node.now = s.at
			}
			e.events++
			e.dispatch(ev)
			e.pool.putEvent(ev)
			continue
		}
		if !drain && nmin > deadline {
			break
		}
		end := nmin + p.lookahead
		if okG && gmin < end {
			end = gmin
		}
		if !drain && deadline < end-1 {
			end = deadline + 1 // the deadline instant is inside the run
		}
		p.inWindow = true
		barrier(end)
		p.inWindow = false
		barrier(mergePhase) // merge inbound lanes in parallel
		// Environment-level events created inside the window, and the
		// clock: both are coordinator work.
		for _, sh := range p.shards {
			for _, s := range sh.outEnv {
				e.queue.push(s)
			}
			sh.outEnv = sh.outEnv[:0]
			e.now = max(e.now, sh.lastAt)
		}
	}
	if !drain {
		e.now = max(e.now, deadline)
	}
	// Exit sweep at e.now, exactly like the sequential scheduler: the
	// minimum PENDING time is strictly later here (the loop exits when
	// the next event is past the deadline), but between runs the driver
	// can initiate sends whose Departure carries now = e.now — backlog
	// with a busy horizon in (e.now, minPending] is still live, and
	// pruning it would diverge from the sequential scheduler.
	e.pruneCongestion(e.now)
}
