package overlay

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/vri"
	"pier/internal/wire"
)

// A join converges in round trips (router.onNotify, router.onSuccHint): the
// tests here hold every maintenance ticker an hour away, so whatever ring
// forms was built by the join's own messages.

// noTicks is a router configuration whose tickers never fire within a test.
var noTicks = Config{Router: RouterConfig{StabilizeInterval: time.Hour, FixFingerInterval: time.Hour, CheckPredInterval: time.Hour}}

// ringPointers checks that the nodes' successors form one cycle in
// identifier order and that each node's predecessor is the node whose
// successor it is. It returns "" for such a ring and a description of the
// first departure otherwise; read states the successor and predecessor of
// the i-th node.
func ringPointers(addrs []vri.Addr, read func(i int) (succ, pred vri.Addr)) string {
	idx := make([]int, len(addrs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return HashNodeAddr(addrs[idx[a]]) < HashNodeAddr(addrs[idx[b]]) })
	for k, i := range idx {
		next, prev := addrs[idx[(k+1)%len(idx)]], addrs[idx[(k+len(idx)-1)%len(idx)]]
		if succ, pred := read(i); succ != next || pred != prev {
			return fmt.Sprintf("%s has successor %q and predecessor %q, want %q and %q", addrs[i], succ, pred, next, prev)
		}
	}
	return ""
}

// TestJoinConvergesWithoutStabilize: nodes join one at a time through node
// 0, each given its join callback and one virtual second, and no
// maintenance tick fires. The ring is then one ordered cycle, every key has
// exactly one owner and every node has its predecessor. Before the hint a
// joiner's predecessor, and its predecessor's successor, waited for the
// next stabilise round.
func TestJoinConvergesWithoutStabilize(t *testing.T) {
	for _, n := range []int{3, 8, 32} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			env := sim.NewEnv(sim.Options{Seed: int64(n)})
			start := env.Now()
			var dhts []*DHT
			var addrs []vri.Addr
			for _, nd := range env.SpawnN("node", n) {
				d := New(nd, noTicks)
				if err := d.Start(); err != nil {
					t.Fatal(err)
				}
				dhts, addrs = append(dhts, d), append(addrs, d.Addr())
			}
			for i := 1; i < n; i++ {
				joined := false
				dhts[i].Join(dhts[0].Addr(), func(err error) {
					if err != nil {
						t.Errorf("join %d: %v", i, err)
					}
					joined = true
				})
				runUntil(t, env, 10*time.Second, fmt.Sprintf("node %d's join callback", i), func() bool { return joined })
				env.Run(time.Second)
			}
			if env.Now().Sub(start) >= time.Hour {
				t.Fatalf("the joins took %v, so a maintenance tick may have fired", env.Now().Sub(start))
			}
			c := CheckRing(dhts)
			if c.Cycles != 1 || c.Misordered != 0 || c.Unowned != 0 || c.MultiOwned != 0 {
				t.Errorf("after %d joins with no maintenance tick: %v", n-1, c)
			}
			if msg := ringPointers(addrs, func(i int) (vri.Addr, vri.Addr) { return dhts[i].Successor(), dhts[i].Predecessor() }); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// routerState renders the router state a hint could touch: its ring
// pointers, finger table and counts, retained answer and requests.
func routerState(r *router) string {
	return fmt.Sprintf("pred=%v succs=%v fingers=%v open=%d gen=%d next=%d stab=%s/%x pending=%d seq=%d",
		r.pred, r.succs, r.fingers, r.open, r.fingerGen, r.nextFix, r.stabFrom, r.stab.hash, len(r.pending), r.reqSeq)
}

// TestSuccHintGuard: a hint moves the receiver's successor only when it
// comes from that successor and names a node strictly between the two.
// Each hint below fails one of those tests and leaves the router state as
// it was, and sends nothing; the last one passes both, is applied, and
// notifies the node it names.
func TestSuccHintGuard(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 49})
	dhts, probes := probedRing(t, env, 8)
	verifyRing(t, dhts)
	d, p := dhts[0], probes[0]
	succ := dhts[at(t, dhts, d.Successor())]
	closer := nameBetween(t, d.NodeID(), succ.NodeID())
	hint := func(x vri.Addr) []byte { return encodeAddr(wire.NewWriter(32), mkSuccHint, x) }

	for _, c := range []struct {
		name string
		src  vri.Addr
		x    vri.Addr
	}{
		{"from a node that is not the successor", d.Predecessor(), closer},
		{"from a stranger", "stranger", closer},
		{"naming a node outside (self, successor)", succ.Addr(), succ.Successor()},
		{"naming the successor itself", succ.Addr(), succ.Addr()},
		{"naming the receiver itself", succ.Addr(), d.Addr()},
	} {
		before := routerState(d.router)
		p.reset()
		if !d.dispatch(c.src, hint(c.x)) {
			t.Fatalf("%s: the hint did not decode", c.name)
		}
		if after := routerState(d.router); after != before {
			t.Errorf("%s: the hint changed the router\nbefore %s\nafter  %s", c.name, before, after)
		}
		if msgs, _ := sentByKind([]*probe{p}); msgs != [numKinds]int{} {
			t.Errorf("%s: the hint sent %v", c.name, msgs)
		}
	}

	p.reset()
	d.dispatch(succ.Addr(), hint(closer))
	if got := succAddrs(d); got[0] != closer || got[1] != succ.Addr() {
		t.Errorf("a hint from the successor naming a closer node left the list %v, want %s then %s", got, closer, succ.Addr())
	}
	if p.msgs[mkNotify] != 1 || p.msgs[mkSuccHint] != 0 {
		t.Errorf("applying the hint sent %d mkNotify and %d mkSuccHint, want one notify to %s", p.msgs[mkNotify], p.msgs[mkSuccHint], closer)
	}
}
