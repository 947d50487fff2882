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
// chains·nodes. A signature-cached chain holds one entry for all the
// queries attached to it.
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
	shed    uint64 // flushes deferred by the per-tick budget (load shedding)
}

type wheelSlot struct {
	w       *flushWheel
	period  time.Duration
	entries complist.List[*wheelEntry]
	timer   vri.Timer
	tickFn  func() // pre-bound so rearming allocates nothing (PR 4 idiom)
	// next is the round-robin resume ordinal for budgeted ticks: when the
	// per-tick flush budget sheds registrants, the next tick starts where
	// this one stopped so every registrant still flushes eventually.
	next int
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
// slot emptied (everything closed, possibly during this very tick).
//
// When MaxFlushesPerTick is set and the slot holds more live registrants
// than the budget, the tick flushes only a budget's worth and DEFERS the
// rest to later ticks, resuming round-robin where it stopped — the
// load-shedding analog of a wall-clock wheel overrun, made deterministic:
// under extreme concurrency each registrant flushes every
// ceil(live/budget) periods instead of the node stalling inside one tick.
// Shed flushes are counted (Stats.FlushesShed) so degradation is visible,
// never silent.
func (sl *wheelSlot) tick() {
	sl.w.fires++
	budget := sl.w.n.cfg.MaxFlushesPerTick
	live := sl.entries.Live()
	if budget <= 0 || live <= budget {
		sl.next = 0
		sl.entries.Each(func(e *wheelEntry) {
			if e.target.closed {
				return
			}
			sl.w.flushes++
			e.target.flush()
		})
	} else {
		start := sl.next % live
		pos := 0
		sl.entries.Each(func(e *wheelEntry) {
			if e.target.closed {
				return
			}
			if (pos-start+live)%live < budget {
				sl.w.flushes++
				e.target.flush()
			} else {
				sl.w.shed++
			}
			pos++
		})
		sl.next = (start + budget) % live
	}
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
