package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refHeap is the reference implementation the concrete 4-ary heap must
// match: the previous container/heap-backed queue, ordered by the same
// slot.before total order. Because (at, src, seq) is a strict total
// order, any correct min-heap pops the unique minimum at every step, so
// the two implementations must produce identical pop sequences.
type refHeap []slot

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(&h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(slot)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = slot{}
	*h = old[:n-1]
	return s
}

// genEvent builds a slot with a unique (src, seq) key and its own event.
// Times are drawn from a small set so same-instant ties are common and
// the srcID/srcSeq tie-break actually decides order; a slice of the
// events is flagged cancelled, which must not affect heap order (skipping
// cancelled events is scheduler logic, above the heap).
func genEvent(rng *rand.Rand, seqs map[uint64]uint64) slot {
	src := uint64(rng.Intn(5)) // few sources → frequent src ties too
	seqs[src]++
	return slot{
		at:  int64(rng.Intn(8)) * int64(time.Millisecond),
		src: src,
		seq: seqs[src],
		ev:  &event{cancelled: rng.Intn(4) == 0},
	}
}

// TestEventHeapMatchesReference drives random interleavings of pushes
// and pops through both heaps and requires identical pop sequences (key
// and event pointer), across many seeds.
func TestEventHeapMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seqs := make(map[uint64]uint64)
		var got eventHeap
		var want refHeap
		for op := 0; op < 2000; op++ {
			if len(want) == 0 || rng.Intn(3) != 0 {
				ev := genEvent(rng, seqs)
				got.push(ev)
				heap.Push(&want, ev)
			} else {
				g := got.pop()
				w := heap.Pop(&want).(slot)
				if g != w {
					t.Fatalf("seed %d op %d: pop mismatch: got (at=%v src=%d seq=%d), want (at=%v src=%d seq=%d)",
						seed, op, g.at, g.src, g.seq, w.at, w.src, w.seq)
				}
			}
		}
		// Drain: the full remaining order must match too.
		for len(want) > 0 {
			g := got.pop()
			w := heap.Pop(&want).(slot)
			if g != w {
				t.Fatalf("seed %d drain: pop mismatch: got seq %d, want seq %d", seed, g.seq, w.seq)
			}
		}
		if len(got) != 0 {
			t.Fatalf("seed %d: %d events left in 4-ary heap after reference drained", seed, len(got))
		}
	}
}

// TestEventHeapReinit checks the batch heapify used when SetWorkers
// migrates pending events between scheduler modes.
func TestEventHeapReinit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seqs := make(map[uint64]uint64)
	var batch []slot
	for i := 0; i < 500; i++ {
		batch = append(batch, genEvent(rng, seqs))
	}
	got := append(eventHeap(nil), batch...)
	got.reinit()
	var want refHeap
	for _, ev := range batch {
		heap.Push(&want, ev)
	}
	for len(want) > 0 {
		g := got.pop()
		w := heap.Pop(&want).(slot)
		if g != w {
			t.Fatalf("pop mismatch after reinit: got seq %d, want seq %d", g.seq, w.seq)
		}
	}
}

// FuzzEventHeapMatchesReference explores push/pop interleavings chosen
// by the fuzzer. Each input byte drives one operation: low two bits
// select pop-vs-push, the rest select the event time (small range, so
// ties are dense).
func FuzzEventHeapMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 13, 0, 0, 7})
	f.Add([]byte("pushpoppushpushpop"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		seqs := make(map[uint64]uint64)
		var got eventHeap
		var want refHeap
		for _, b := range ops {
			if b&3 == 0 && len(want) > 0 {
				g := got.pop()
				w := heap.Pop(&want).(slot)
				if g != w {
					t.Fatalf("pop mismatch: got (at=%v src=%d seq=%d), want (at=%v src=%d seq=%d)",
						g.at, g.src, g.seq, w.at, w.src, w.seq)
				}
				continue
			}
			src := uint64(b >> 6)
			seqs[src]++
			s := slot{
				at:  int64(b>>2&15) * int64(time.Millisecond),
				src: src,
				seq: seqs[src],
				ev:  &event{},
			}
			got.push(s)
			heap.Push(&want, s)
		}
		for len(want) > 0 {
			if got.pop() != heap.Pop(&want).(slot) {
				t.Fatal("drain mismatch")
			}
		}
	})
}
