package overlay

import (
	"fmt"
	"math"
	"sort"

	"pier/internal/vri"
)

// RingCheck is what CheckRing finds in the routing state of a set of live
// nodes. On one ordered ring Cycles is 1 and every other count is 0.
type RingCheck struct {
	Nodes int
	// Cycles counts the disjoint successor cycles among live nodes: a
	// ring split in two is two cycles. A node whose successor chain
	// reaches a dead node is on no cycle.
	Cycles int
	// Misordered counts nodes whose successor is not the next live node
	// clockwise.
	Misordered int
	// DeadEntries counts successor-list entries naming no live node, and
	// OutOfOrder the entries not strictly further clockwise from their
	// node than the entry before them.
	DeadEntries, OutOfOrder int
	// Keys is the number of sampled keys; Unowned and MultiOwned count
	// those that no live node, or more than one, claims by its own
	// isOwner.
	Keys, Unowned, MultiOwned int
}

// String renders the check as one report line's fields.
func (c RingCheck) String() string {
	return fmt.Sprintf("nodes=%d cycles=%d misordered=%d dead-entries=%d out-of-order=%d keys=%d unowned=%d multi-owned=%d",
		c.Nodes, c.Cycles, c.Misordered, c.DeadEntries, c.OutOfOrder, c.Keys, c.Unowned, c.MultiOwned)
}

// ringKeys is how many evenly spaced keys CheckRing samples.
const ringKeys = 256

// CheckRing reports how far the live nodes' routing state is from one
// ordered ring (Chord's invariants, as Zave states them): successor
// cycles, successors that skip a live node, successor lists holding dead
// or misordered entries, and sampled keys without exactly one owner. It
// only reads state, so it may run whenever no node is executing.
func CheckRing(live []*DHT) RingCheck {
	c := RingCheck{Nodes: len(live), Keys: ringKeys}
	byAddr := make(map[vri.Addr]*router, len(live))
	sorted := make([]*router, len(live))
	for i, d := range live {
		byAddr[d.Addr()] = d.router
		sorted[i] = d.router
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].self.id < sorted[j].self.id })
	for i, r := range sorted {
		if r.successor().addr != sorted[(i+1)%len(sorted)].self.addr {
			c.Misordered++
		}
		last := uint64(0)
		for _, s := range r.succs {
			if byAddr[s.addr] == nil {
				c.DeadEntries++
			}
			d := uint64(s.id - r.self.id)
			if s.addr == r.self.addr {
				d = math.MaxUint64 // the full circle: a singleton's own entry
			}
			if d <= last {
				c.OutOfOrder++
			}
			last = d
		}
	}
	// Successor pointers form a functional graph on the live nodes: walk
	// each unvisited node's chain, and a chain that closes on a node of
	// the same walk closes a new cycle.
	walk := make(map[vri.Addr]int, len(live))
	for i, r := range sorted {
		for at := r; at != nil && walk[at.self.addr] == 0; at = byAddr[at.successor().addr] {
			walk[at.self.addr] = i + 1
			if next := byAddr[at.successor().addr]; next != nil && walk[next.self.addr] == i+1 {
				c.Cycles++
			}
		}
	}
	for k := 0; k < ringKeys; k++ {
		id := ID(uint64(k)*(math.MaxUint64/ringKeys) + 0x9e3779b97f4a7c15)
		owners := 0
		for _, r := range sorted {
			if r.isOwner(id) {
				owners++
			}
		}
		switch {
		case owners == 0:
			c.Unowned++
		case owners > 1:
			c.MultiOwned++
		}
	}
	return c
}
