package sim

// pool recycles event structs and message payload buffers for one
// scheduler shard. Ownership is single-writer by construction, so no
// locking is needed anywhere: each shard's pool is touched only by its
// worker goroutine while a window executes, and by the coordinator
// between windows, with every worker parked.
//
// Allocation happens in the *scheduling* context (the source node's
// shard; shard 0 for environment-sourced events), recycling in the
// *dispatching* context (the target's shard; shard 0 for
// environment-level events). At one shard every event therefore returns
// to the pool it came from. With more, events migrate between pools — a
// cross-shard message is allocated from the sender's free list and
// recycled into the receiver's — which is fine: a pool is a cache, not
// an accounting domain, and the population of each free list converges
// to that shard's steady-state event backlog.
type pool struct {
	// freeEv is an intrusive LIFO free list threaded through event.next.
	freeEv *event
	// bufs is a LIFO stack of recycled payload buffers. One unsorted
	// stack suffices because a workload's message sizes are narrowly
	// distributed: undersized buffers are dropped on reuse, so the stack
	// converges to buffers of the workload's maximum payload size.
	bufs [][]byte
}

// getEvent returns a recycled event, or a fresh one if the free list is
// empty. Every field but gen is zero; the caller stamps the target and
// kind-specific body (the dispatch key goes in the queue slot).
func (p *pool) getEvent() *event {
	ev := p.freeEv
	if ev == nil {
		return &event{}
	}
	p.freeEv = ev.next
	ev.next = nil
	return ev
}

// putEvent recycles ev after it was dispatched or discarded. The
// generation bump invalidates any timer handle still pointing at ev, the
// payload buffer (if any) returns to the buffer pool, and every
// reference is cleared so recycled events retain neither closures nor
// node state. Only the dispatching context may call this, and only once
// per pop: after putEvent the event may be handed out again immediately.
func (p *pool) putEvent(ev *event) {
	ev.gen.Add(1)
	if ev.payload != nil {
		p.putBuf(ev.payload)
		ev.payload = nil
	}
	ev.fn = nil
	ev.from = nil
	ev.ack = nil
	ev.node = nil
	ev.cancelled = false
	ev.ackOK = false
	ev.next = p.freeEv
	p.freeEv = ev
}

// getBuf returns a buffer of length n for a message payload. The caller
// owns it until it is recycled with the event that carries it.
func (p *pool) getBuf(n int) []byte {
	if k := len(p.bufs); k > 0 {
		b := p.bufs[k-1]
		p.bufs[k-1] = nil
		p.bufs = p.bufs[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
		// Undersized: drop it and allocate at the new high-water mark.
	}
	return make([]byte, n)
}

// putBuf recycles a payload buffer.
func (p *pool) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	p.bufs = append(p.bufs, b)
}
