package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"pier/internal/vri"
)

// A shard drops its cancelled events in bulk once they are more than half
// of its heap (shard.compactIfMostlyDead). The tests here pin that nothing
// observable moves: every node dispatches exactly its never-cancelled
// timers in key order, the dead count is exact at every barrier, and a
// heap full of abandoned request timeouts stays at most twice its live
// size.

// timerRec is one timer of the workload, as the reference sees it.
type timerRec struct {
	h         vri.Timer
	at        int64
	seq       uint64 // the node's srcSeq: the workload schedules nothing else
	mode      byte
	fired     bool
	cancelled bool // cancelled before it fired
}

// Timer callback modes.
const (
	modePlain      = iota
	modeSelfCancel // cancels itself inside its own callback, as failPending does
	modeChild      // schedules another timer on its node
	modeCancelPeer // cancels its node's oldest pending timer
	numModes
)

// cancelWorkload drives seeded timer traffic on a few nodes: timers armed
// from the driver and from callbacks, cancelled from the driver and from
// callbacks, cancels of timers that already fired or were already
// cancelled (both inert), self-cancels, and worker-count switches. Each
// node's state is touched only by its own callbacks or by the driver at
// a barrier.
type cancelWorkload struct {
	t      testing.TB
	env    *Env
	nodes  []*Node
	timers [][]*timerRec // per node, in scheduling order
	logs   [][]*timerRec // per node, in dispatch order
	global []*timerRec   // dispatch order over every node; kept at one shard only
	budget []int         // per node: callback-scheduled timers left
	oneW   bool          // every worker count so far was one shard
	// compacted counts barriers at which some cancelled timer not yet due
	// was no longer in any heap: a compaction had removed it.
	compacted int
}

func newCancelWorkload(t testing.TB, seed int64, nodes, workers int) *cancelWorkload {
	w := &cancelWorkload{t: t, env: NewEnv(Options{Seed: seed}), oneW: workers <= 1}
	w.env.SetWorkers(workers)
	w.nodes = w.env.SpawnN("n", nodes)
	w.timers = make([][]*timerRec, nodes)
	w.logs = make([][]*timerRec, nodes)
	w.budget = make([]int, nodes)
	for i := range w.budget {
		w.budget[i] = 64
	}
	return w
}

// schedule arms a timer on node i, in the node's own context or the
// driver's; the key it will dispatch at is recorded from the same clock
// the scheduler reads. Delays are positive multiples of 5 ms: same-instant
// ties are common, and no timer is keyed before one already dispatched,
// so the whole dispatch order is the sorted order of the keys.
func (w *cancelWorkload) schedule(i int, delay time.Duration, mode byte) {
	n := w.nodes[i]
	rec := &timerRec{at: n.timeNow() + int64(delay), seq: n.srcSeq + 1, mode: mode}
	w.timers[i] = append(w.timers[i], rec)
	rec.h = n.Schedule(delay, func() { w.fire(i, rec) })
	if n.srcSeq != rec.seq {
		w.t.Errorf("node %d: srcSeq %d after scheduling, the workload counted %d", i, n.srcSeq, rec.seq)
	}
}

func (w *cancelWorkload) fire(i int, rec *timerRec) {
	if rec.fired || rec.cancelled {
		w.t.Errorf("node %d: timer seq %d dispatched (fired %v, cancelled %v)", i, rec.seq, rec.fired, rec.cancelled)
	}
	rec.fired = true
	w.logs[i] = append(w.logs[i], rec)
	if w.oneW {
		w.global = append(w.global, rec)
	}
	switch rec.mode {
	case modeSelfCancel:
		rec.h.Cancel()
	case modeChild:
		if w.budget[i] > 0 {
			w.budget[i]--
			w.schedule(i, time.Duration(rec.seq%7+1)*5*time.Millisecond, byte(rec.seq%numModes))
		}
	case modeCancelPeer:
		for _, o := range w.timers[i] {
			if !o.fired && !o.cancelled {
				w.cancel(o)
				break
			}
		}
	}
}

// cancel cancels rec's timer; the reference drops it only if it is still
// pending. A second cancel, or one after the timer fired, must be inert.
func (w *cancelWorkload) cancel(rec *timerRec) {
	if !rec.fired {
		rec.cancelled = true
	}
	rec.h.Cancel()
}

// checkBarrier: every shard's dead count is the number of cancelled slots
// its heap really holds, and never more than half of the heap.
func (w *cancelWorkload) checkBarrier(what string) {
	w.t.Helper()
	notDue := 0
	for _, ts := range w.timers {
		for _, r := range ts {
			if r.cancelled && r.at > w.env.now {
				notDue++
			}
		}
	}
	dead := 0
	for _, sh := range w.env.par.shards {
		dead += sh.dead
		queued := 0
		for _, s := range sh.heap {
			if s.ev.cancelled {
				queued++
			}
		}
		if sh.dead != queued || 2*sh.dead > len(sh.heap) {
			w.t.Fatalf("%s: shard %d counts %d dead slots; its heap of %d holds %d cancelled", what, sh.id, sh.dead, len(sh.heap), queued)
		}
	}
	if notDue > dead {
		w.compacted++
	}
}

// run applies ops, two bytes each: the first picks the operation and its
// node, the second its argument.
func (w *cancelWorkload) run(ops []byte, switches bool) {
	for k := 0; k+1 < len(ops); k += 2 {
		b, arg := ops[k], ops[k+1]
		i := int(b>>3) % len(w.nodes)
		switch b & 7 {
		case 0, 1, 2:
			w.schedule(i, time.Duration(arg%16+1)*5*time.Millisecond, arg>>4%numModes)
		case 3, 4: // pending, fired or already cancelled alike
			if ts := w.timers[i]; len(ts) > 0 {
				w.cancel(ts[int(arg)%len(ts)])
			}
		case 5, 6:
			w.env.Run(time.Duration(arg%32) * time.Millisecond)
			w.checkBarrier(fmt.Sprintf("op %d", k/2))
		case 7:
			if switches {
				k := []int{0, 2, 8}[int(arg)%3]
				w.oneW = w.oneW && k <= 1
				w.env.SetWorkers(k)
				w.checkBarrier(fmt.Sprintf("op %d, after SetWorkers(%d)", k/2, k))
			}
		}
	}
	w.env.Drain()
	w.checkBarrier("drained")
	w.checkAgainstReference()
}

// checkAgainstReference: each node dispatched exactly its timers that were
// not cancelled before firing, sorted by (at, seq); at one shard the whole
// run dispatched them sorted by (at, node, seq).
func (w *cancelWorkload) checkAgainstReference() {
	w.t.Helper()
	byKey := func(a, b *timerRec) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	}
	var all []*timerRec
	for i, ts := range w.timers {
		var want []*timerRec
		for _, r := range ts {
			if !r.cancelled {
				want = append(want, r)
			}
		}
		slices.SortStableFunc(want, byKey)
		if !reflect.DeepEqual(w.logs[i], want) {
			w.t.Fatalf("node %d dispatched %d timers, the sorted live keys are %d:\ngot  %v\nwant %v", i, len(w.logs[i]), len(want), keys(w.logs[i]), keys(want))
		}
		all = append(all, want...)
	}
	if !w.oneW {
		return
	}
	node := make(map[*timerRec]int)
	for i, ts := range w.timers {
		for _, r := range ts {
			node[r] = i
		}
	}
	slices.SortStableFunc(all, func(a, b *timerRec) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		if node[a] != node[b] {
			return node[a] - node[b]
		}
		return int(a.seq) - int(b.seq)
	})
	for k := range all {
		if w.global[k] != all[k] {
			g, a := w.global[k], all[k]
			w.t.Fatalf("the one shard dispatched its %d timers out of key order: #%d is %d/node %d/%d, want %d/node %d/%d", len(all), k, g.at, node[g], g.seq, a.at, node[a], a.seq)
		}
	}
}

func keys(rs []*timerRec) []string {
	var out []string
	for _, r := range rs {
		out = append(out, fmt.Sprintf("%d/%d", r.at, r.seq))
	}
	return out
}

// TestCompactionChangesNothingObservable runs seeded workloads at workers
// 0, 2 and 8, and with worker-count switches mid-run (a migration leaves
// every cancelled slot behind).
func TestCompactionChangesNothingObservable(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4000)
		rng.Read(ops)
		for _, workers := range []int{0, 2, 8, -1} {
			w := newCancelWorkload(t, seed, 6, max(workers, 0))
			w.run(ops, workers == -1)
			compactions += w.compacted
		}
	}
	if compactions == 0 {
		t.Fatal("no workload compacted a heap")
	}
}

// FuzzCancelCompactionMatchesReference runs the same workload on op
// streams the fuzzer chooses, worker-count switches included.
func FuzzCancelCompactionMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0x11, 3, 0, 5, 31, 8, 0x25, 11, 1, 6, 20})
	f.Add([]byte{0, 0x35, 0, 0x05, 1, 0x16, 4, 0, 7, 1, 3, 1, 5, 9, 7, 2, 5, 31})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		newCancelWorkload(t, 1, 4, 0).run(ops, true)
	})
}

// TestAbandonedTimeoutsLeaveTheHeap: 100 000 request timeouts armed 10 s
// out and cancelled about 100 ms later — the overlay's per-request timer —
// never leave a heap more than twice its live size, while a heap that only
// discarded them at their instant would hold 10 s of them.
func TestAbandonedTimeoutsLeaveTheHeap(t *testing.T) {
	for _, workers := range []int{0, 2} {
		env := NewEnv(Options{Seed: 1})
		env.SetWorkers(workers)
		const perNode = 25000
		nodes := env.SpawnN("n", 4)
		for _, n := range nodes {
			n := n
			var armed []vri.Timer
			var tick func()
			tick = func() {
				armed = append(armed, n.Schedule(10*time.Second, func() { t.Error("an abandoned timeout fired") }))
				if len(armed) > 100 {
					armed[len(armed)-101].Cancel()
				}
				if len(armed) < perNode {
					n.Schedule(time.Millisecond, tick)
				} else {
					for _, h := range armed[len(armed)-100:] {
						h.Cancel()
					}
				}
			}
			n.Schedule(time.Millisecond, tick)
		}
		most := 0
		for step := 0; step < 600; step++ {
			env.Run(50 * time.Millisecond)
			for _, sh := range env.par.shards {
				live := len(sh.heap) - sh.dead
				if len(sh.heap) > 2*live {
					t.Fatalf("workers %d, %v: a heap of %d slots holds %d live", workers, env.Now().Sub(time.Unix(0, 0)), len(sh.heap), live)
				}
				most = max(most, len(sh.heap))
			}
		}
		env.Drain()
		if ev, _, _ := env.Stats(); ev != 4*perNode {
			t.Errorf("workers %d: %d events dispatched, want the %d ticks", workers, ev, 4*perNode)
		}
		// Each node has about 101 timers live; 10 s of abandoned timeouts
		// would be 10 000 more.
		if limit := 2 * 4 * 102; most > limit {
			t.Errorf("workers %d: a heap grew to %d slots, want at most %d", workers, most, limit)
		}
	}
}
