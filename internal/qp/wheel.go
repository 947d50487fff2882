package qp

import (
	"time"

	"pier/internal/complist"
	"pier/internal/vri"
)

// flushWheel coalesces the periodic flush timers of continuous queries:
// ONE repeating timer per distinct flushevery period per node, whatever
// the number of chains. Every chain with that period registers on the
// period's slot, and a single tick flushes them all in registration order
// (deterministic under the sharded scheduler, since registration follows
// the node's event order) — nodes timer events per period, not
// chains·nodes. A shared chain holds one entry for all the queries
// attached to it.
//
// Slots are soft state like everything else here: when the last chain of
// a period closes, the slot cancels its timer and disappears
// (complist.List retirement) — opening and closing 10k queries leaves no
// armed timers behind.
type flushWheel struct {
	n     *Node
	slots map[time.Duration]*wheelSlot

	fires   uint64 // slot timer events dispatched (the coalesced cost)
	flushes uint64 // registrant flushes those events drove (the work delivered)
}

type wheelSlot struct {
	w       *flushWheel
	period  time.Duration
	entries complist.List[*wheelEntry]
	timer   vri.Timer
	tickFn  func() // pre-bound so rearming allocates nothing (PR 4 idiom)
}

type wheelEntry struct {
	slot    *wheelSlot
	target  *chain
	removed bool
}

// Dead reports whether the entry's chain detached (complist.Entry).
func (e *wheelEntry) Dead() bool { return e.removed }

func newFlushWheel(n *Node) *flushWheel {
	return &flushWheel{n: n, slots: make(map[time.Duration]*wheelSlot)}
}

// add registers a chain for periodic flushing. The first registration of
// a period arms the slot's timer; later ones ride it (a chain joining an
// existing slot sees its first flush at the slot's next tick, which may
// be sooner than one full period after open — flushes are best-effort
// emission points, not exact windows).
func (w *flushWheel) add(period time.Duration, c *chain) *wheelEntry {
	sl := w.slots[period]
	if sl == nil {
		sl = &wheelSlot{w: w, period: period}
		sl.tickFn = sl.tick
		// Retire the emptied slot: cancel the armed timer so nothing
		// fires into the void.
		sl.entries.OnEmpty(func() {
			if sl.timer != nil {
				sl.timer.Cancel()
			}
			delete(w.slots, sl.period)
		})
		w.slots[period] = sl
		sl.timer = w.n.rt.Schedule(period, sl.tickFn)
	}
	e := &wheelEntry{slot: sl, target: c}
	sl.entries.Add(e)
	return e
}

// tick flushes the slot's live registrants, then rearms — unless the
// slot emptied (everything closed, possibly during this very tick). A
// chain closed by an earlier registrant's flush is skipped: chain.close
// removes its entry, and Each never hands over a dead one.
func (sl *wheelSlot) tick() {
	sl.w.fires++
	sl.entries.Each(func(e *wheelEntry) {
		sl.w.flushes++
		e.target.flush()
	})
	if !sl.entries.Retired() {
		sl.timer = sl.w.n.rt.Schedule(sl.period, sl.tickFn)
	}
}

// remove detaches a closing chain; O(1) and idempotent.
func (e *wheelEntry) remove() {
	if e.removed {
		return
	}
	e.removed = true
	e.slot.entries.NoteDead()
}
