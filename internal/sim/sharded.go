package sim

import "math"

// This file implements the Main Scheduler, a conservative parallel
// discrete-event simulation:
//
//   - Virtual nodes are partitioned across K shards, each with its own
//     event heap. With K == 1 (the default) the one shard dispatches
//     inline on the calling goroutine; with K > 1 one worker goroutine
//     per shard executes its windows.
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
// created during a window, and shard-local counters that Env.Stats sums.
// Between windows, with every worker parked, the coordinator may touch
// any shard: it pushes driver events into their target's heap, and
// shard 0's pool and counters also serve environment-level events.
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

	// events, msgs and bytes count dispatches, sends and payload bytes
	// by this shard's nodes; shard 0's also count environment-level
	// dispatches and the totals of the engine a SetWorkers replaced.
	events, msgs, bytes uint64
	lastAt              int64 // virtual ns of the last dispatch

	// dead counts the cancelled events still in heap, never more than
	// half of it (compactIfMostlyDead).
	dead int
}

// newParEngine builds an engine of k empty shards.
func newParEngine(k int, lookahead int64) *parEngine {
	p := &parEngine{k: k, lookahead: lookahead, shards: make([]*shard, k)}
	for i := range p.shards {
		p.shards[i] = &shard{id: i, out: make([][]slot, k), lastAt: math.MinInt64}
	}
	return p
}

// shardOf maps a node id to the shard that owns it.
func (p *parEngine) shardOf(id uint64) int { return int((id - 1) % uint64(p.k)) }

// SetWorkers sets how many worker shards run the Main Scheduler. k <= 1
// selects the default single shard, dispatched inline on the calling
// goroutine; k > 1 runs k shards on k worker goroutines. The dispatch
// loop is the same at every k, so results are bit-identical for any
// worker count. Pending events and nodes are migrated, so SetWorkers may
// be called before or after Spawn, but not from inside a run.
func (e *Env) SetWorkers(k int) {
	if e.par.inWindow {
		panic("sim: SetWorkers called during a run")
	}
	k = max(k, 1)
	old := e.par
	p := newParEngine(k, old.lookahead)
	p.shards[0].events, p.shards[0].msgs, p.shards[0].bytes = e.Stats()
	// Cancelled events are left behind with the old pools, so every new
	// shard starts with no dead slot.
	for _, sh := range old.shards {
		for _, s := range sh.heap {
			if !s.ev.cancelled {
				dst := p.shards[p.shardOf(s.ev.node.id)]
				dst.heap = append(dst.heap, s)
			}
		}
	}
	for _, sh := range p.shards {
		sh.heap.reinit()
	}
	for _, n := range e.nodes {
		n.shard = p.shardOf(n.id)
	}
	e.par = p
}

// Event routing lives in Env.newEvent/Env.enqueue (env.go): during a
// window a worker stamps events from its own nodes (clock base src.now,
// the shard's pool) and routes cross-shard targets through outbox lanes;
// in coordinator context workers are parked and every heap is safe to
// push directly.

// dispatchWindow pops and runs this shard's events with at < end,
// recycling each into the shard's pool after dispatch or discard.
func (sh *shard) dispatchWindow(e *Env, end int64) {
	for len(sh.heap) > 0 && sh.heap[0].at < end {
		s := sh.heap.pop()
		top := s.ev
		if top.cancelled {
			sh.dead--
			sh.pool.putEvent(top)
			continue
		}
		sh.compactIfMostlyDead() // one live slot fewer
		n := top.node
		if !n.alive {
			// Discarded in-flight deliveries still owe the sender a
			// failure ack. The nack lands >= AckTimeout ahead, and
			// NewEnv requires AckTimeout >= the lookahead, so a
			// cross-shard nack never lands inside the current window.
			e.nackDroppedDeliver(s)
			sh.pool.putEvent(top)
			continue
		}
		n.now = s.at
		sh.lastAt = s.at
		sh.events++
		top.cancelled = true // no longer queued: a Cancel from its own callback counts nothing
		e.dispatch(top)
		sh.pool.putEvent(top)
	}
}

// cancel records that one more event in this shard's heap was cancelled.
// It runs in the context that scheduled the timer: the shard's worker, or
// the coordinator with every worker parked.
func (sh *shard) cancel() {
	sh.dead++
	sh.compactIfMostlyDead()
}

// compactIfMostlyDead keeps the heap at most half cancelled: checked
// whenever a cancel adds a dead slot or a dispatch removes a live one,
// it removes every cancelled slot at once when they are more than half.
// Each compaction costs O(heap) and removes more than half of it, one
// cancel each, so a cancel costs O(1) amortised. A cancelled event never
// dispatches and counts nowhere, and the heap's order is a strict total
// order on its keys, so dropping one early changes neither the pop
// sequence nor any counter.
func (sh *shard) compactIfMostlyDead() {
	if 2*sh.dead > len(sh.heap) {
		sh.compact()
	}
}

// compact removes every cancelled slot from the heap, recycles its event
// (whose generation bump makes the timer handle inert) and re-heapifies
// the rest.
func (sh *shard) compact() {
	q := sh.heap
	live := q[:0]
	for _, s := range q {
		if s.ev.cancelled {
			sh.pool.putEvent(s.ev)
		} else {
			live = append(live, s)
		}
	}
	clear(q[len(live):])
	live.reinit()
	sh.heap, sh.dead = live, 0
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

// run implements RunUntil (drain == false) and Drain (drain == true).
// The coordinator alternates between running due environment-level
// events (alone, at barriers) and releasing the shard workers for one
// conservative window.
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
		// Environment-level events run first on ties: their source id 0
		// sorts below every node id, as in the (at, src, seq) order.
		if okG && (!okN || nmin >= gmin) {
			if !drain && gmin > deadline {
				break
			}
			// Only environment-targeted events live in e.queue: enqueue
			// routes every node target to its shard. They count and
			// recycle in shard 0, whose worker is parked.
			s := e.queue.pop()
			if !s.ev.cancelled {
				e.now = max(e.now, s.at)
				p.shards[0].events++
				e.dispatch(s.ev)
			}
			p.shards[0].pool.putEvent(s.ev)
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
}
