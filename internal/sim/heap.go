package sim

// slot is one pending entry of a scheduler queue: the dispatch key and
// the event it orders. The key lives only here, inline in the heap array,
// so ordering a queue never dereferences an event: at is virtual
// nanoseconds on the env's clock, src the scheduling source's node id (0
// for environment-level sources) and seq a per-source counter. The order
// (at, src, seq) is strict and total, deterministic, and independent of
// how many workers raced to enqueue.
type slot struct {
	at       int64
	src, seq uint64
	ev       *event
}

func (s *slot) before(o *slot) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	if s.src != o.src {
		return s.src < o.src
	}
	return s.seq < o.seq
}

// eventHeap is a 4-ary min-heap of slots ordered by slot.before. The
// concrete element type keeps container/heap's `any` boxing and interface
// calls off the scheduler hot path, and the d=4 layout halves tree depth
// versus a binary heap. Sifts move a hole rather than swapping, which
// leaves every slot exactly where the swapping version would. Because the
// key is a strict total order, the pop sequence is exactly the one
// container/heap would produce (locked in by
// TestEventHeapMatchesReference and FuzzEventHeapMatchesReference).
type eventHeap []slot

// push inserts s, restoring the heap property by sifting up.
func (h *eventHeap) push(s slot) {
	q := append(*h, s)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = s
	*h = q
}

// pop removes and returns the minimum slot. The caller must ensure the
// heap is non-empty.
func (h *eventHeap) pop() slot {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = slot{} // release the reference for the pool/GC
	q = q[:n]
	*h = q
	if n > 0 {
		q.siftDown(0, last)
	}
	return top
}

// siftDown places s at index i, moving it below any smaller child.
func (q eventHeap) siftDown(i int, s slot) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c // index of the smallest child
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&s) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = s
}

// reinit heapifies q in place, used when a batch of pending slots is
// adopted wholesale (SetWorkers migrating pending events between
// shards) and when a compaction has removed the cancelled ones.
func (q eventHeap) reinit() {
	if len(q) < 2 {
		return
	}
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		q.siftDown(i, q[i])
	}
}
