package overlay

import (
	"sort"
	"testing"

	"pier/internal/sim"
)

// orderedRing builds n unstarted nodes sorted by identifier and wires
// each into one ordered ring by hand: its predecessor and a successor
// list of the next three nodes.
func orderedRing(t *testing.T, n int) []*DHT {
	t.Helper()
	env := sim.NewEnv(sim.Options{Seed: 5})
	ds := make([]*DHT, n)
	for i, nd := range env.SpawnN("ring", n) {
		ds[i] = New(nd, Config{})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].NodeID() < ds[j].NodeID() })
	for i := range ds {
		wireSuccs(ds, i, n, 3)
	}
	return ds
}

// wireSuccs points ds[i] at its neighbours within the first n nodes of
// ds, as a ring of those n alone, with k successors.
func wireSuccs(ds []*DHT, i, n, k int) {
	r := ds[i].router
	r.pred = ds[(i+n-1)%n].router.self
	r.succs = r.succs[:0]
	for j := 1; j <= k && j < n; j++ {
		r.succs = append(r.succs, ds[(i+j)%n].router.self)
	}
}

func TestCheckRingHealthy(t *testing.T) {
	want := RingCheck{Nodes: 8, Cycles: 1, Keys: ringKeys}
	if got := CheckRing(orderedRing(t, 8)); got != want {
		t.Errorf("hand-built ring: %v, want %v", got, want)
	}
	env := sim.NewEnv(sim.Options{Seed: 7})
	want.Nodes = 6
	if got := CheckRing(ring(t, env, 6)); got != want {
		t.Errorf("converged ring: %v, want %v", got, want)
	}
	one := orderedRing(t, 1)
	one[0].router.succs = []nodeRef{one[0].router.self}
	if got := CheckRing(one); got != (RingCheck{Nodes: 1, Cycles: 1, Keys: ringKeys}) {
		t.Errorf("singleton: %v", got)
	}
}

func TestCheckRingBroken(t *testing.T) {
	// Two rings of four: two cycles, each closing past the other half's
	// first node, and each half owning the whole circle.
	ds := orderedRing(t, 8)
	for i := 0; i < 4; i++ {
		wireSuccs(ds, i, 4, 3)
		wireSuccs(ds[4:], i, 4, 3)
	}
	want := RingCheck{Nodes: 8, Cycles: 2, Misordered: 2, Keys: ringKeys, MultiOwned: ringKeys}
	if got := CheckRing(ds); got != want {
		t.Errorf("split ring: %v, want %v", got, want)
	}

	// A successor that skips a live node: still one cycle, which the
	// skipped node hangs off.
	ds = orderedRing(t, 8)
	ds[2].router.succs[0] = ds[4].router.self
	ds[2].router.succs = ds[2].router.succs[:1]
	want = RingCheck{Nodes: 8, Cycles: 1, Misordered: 1, Keys: ringKeys}
	if got := CheckRing(ds); got != want {
		t.Errorf("skipped node: %v, want %v", got, want)
	}

	// A dead successor-list entry, placed in order, and a list out of
	// order.
	ds = orderedRing(t, 8)
	ghost := nodeRef{addr: "ghost", id: ds[6].NodeID() + (ds[7].NodeID()-ds[6].NodeID())/2}
	ds[5].router.succs = []nodeRef{ds[6].router.self, ghost, ds[7].router.self}
	s := ds[1].router.succs
	s[1], s[2] = s[2], s[1]
	want = RingCheck{Nodes: 8, Cycles: 1, DeadEntries: 1, OutOfOrder: 1, Keys: ringKeys}
	if got := CheckRing(ds); got != want {
		t.Errorf("bad successor lists: %v, want %v", got, want)
	}

	// A predecessor pointer that skips a node: the skipped node's arc
	// has two owners, and the other arcs one.
	ds = orderedRing(t, 8)
	ds[4].router.pred = ds[2].router.self
	got := CheckRing(ds)
	if got.MultiOwned == 0 || got.Unowned != 0 || got.Cycles != 1 || got.Misordered != 0 {
		t.Errorf("two owners: %v, want multi-owned keys and one clean cycle", got)
	}
	// A dead node nobody has noticed: its arc has no owner, the chain
	// through it is open, and three lists still name it.
	ds = orderedRing(t, 8)
	got = CheckRing(append(ds[:3:3], ds[4:]...))
	if got.Unowned == 0 || got.MultiOwned != 0 || got.Cycles != 0 || got.Misordered != 1 || got.DeadEntries != 3 {
		t.Errorf("dead node: %v, want unowned keys, no cycle, one misordered node and three dead entries", got)
	}
}
