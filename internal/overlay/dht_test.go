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

// ring spins up n DHT nodes in a simulation, joins them through node 0,
// and runs stabilization until the ring converges.
func ring(t *testing.T, env *sim.Env, n int) []*DHT {
	t.Helper()
	return ringOn(t, env, n, func(nd *sim.Node) vri.Runtime { return nd })
}

// ringOn is ring with every node's runtime passed through wrap first, so
// a test can observe what the overlay sends, receives and schedules.
func ringOn(t *testing.T, env *sim.Env, n int, wrap func(*sim.Node) vri.Runtime) []*DHT {
	t.Helper()
	nodes := env.SpawnN("node", n)
	dhts := make([]*DHT, n)
	for i, nd := range nodes {
		dhts[i] = New(wrap(nd), Config{})
		if err := dhts[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		joined := false
		dhts[i].Join(dhts[0].Addr(), func(err error) {
			if err != nil {
				t.Errorf("join %d: %v", i, err)
			}
			joined = true
		})
		env.Run(2 * time.Second)
		if !joined {
			t.Fatalf("node %d did not join", i)
		}
	}
	// Let stabilization and finger repair converge.
	env.Run(time.Duration(n) * 2 * time.Second)
	return dhts
}

// verifyRing checks that following successor pointers from node 0 visits
// every node exactly once, in identifier order.
func verifyRing(t *testing.T, dhts []*DHT) {
	t.Helper()
	byAddr := make(map[vri.Addr]*DHT, len(dhts))
	for _, d := range dhts {
		byAddr[d.Addr()] = d
	}
	seen := make(map[vri.Addr]bool)
	cur := dhts[0]
	for i := 0; i < len(dhts)+1; i++ {
		if seen[cur.Addr()] {
			break
		}
		seen[cur.Addr()] = true
		next := byAddr[cur.Successor()]
		if next == nil {
			t.Fatalf("%s has dangling successor %s", cur.Addr(), cur.Successor())
		}
		cur = next
	}
	if len(seen) != len(dhts) {
		t.Fatalf("successor cycle covers %d of %d nodes", len(seen), len(dhts))
	}
	// Identifier order: sort by id; each node's successor must be the
	// next id clockwise.
	sorted := append([]*DHT(nil), dhts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NodeID() < sorted[j].NodeID() })
	for i, d := range sorted {
		want := sorted[(i+1)%len(sorted)].Addr()
		if d.Successor() != want {
			t.Errorf("%s (id %s) successor = %s, want %s", d.Addr(), d.NodeID(), d.Successor(), want)
		}
	}
}

func TestSingletonRingOwnsEverything(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 1})
	d := New(env.Spawn("solo"), Config{})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	env.Run(3 * time.Second)
	for _, id := range []ID{0, 1 << 20, ^ID(0)} {
		if !d.Owns(id) {
			t.Errorf("singleton should own %s", id)
		}
	}
	if d.Successor() != d.Addr() {
		t.Errorf("singleton successor = %s, want self", d.Successor())
	}
}

func TestTwoNodeRingForms(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 2})
	dhts := ring(t, env, 2)
	verifyRing(t, dhts)
	if dhts[0].Predecessor() == "" || dhts[1].Predecessor() == "" {
		t.Error("predecessors not learned")
	}
}

func TestRingConvergesAt16Nodes(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 3})
	dhts := ring(t, env, 16)
	verifyRing(t, dhts)
}

func TestPutGetAcrossRing(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 4})
	dhts := ring(t, env, 8)
	var acked bool
	dhts[1].Put("files", "song.mp3", "s1", []byte("tuple-data"), time.Minute, func(ok bool) { acked = ok })
	env.Run(3 * time.Second)
	if !acked {
		t.Fatal("put not acked")
	}
	var got []Object
	var gerr error
	dhts[5].Get("files", "song.mp3", func(objs []Object, err error) { got, gerr = objs, err })
	env.Run(3 * time.Second)
	if gerr != nil {
		t.Fatal(gerr)
	}
	if len(got) != 1 || string(got[0].Data) != "tuple-data" {
		t.Fatalf("got %v", got)
	}
}

func TestMultipleSuffixesShareKey(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 5})
	dhts := ring(t, env, 4)
	for i := 0; i < 3; i++ {
		dhts[i].Put("t", "k", fmt.Sprintf("suffix-%d", i), []byte{byte(i)}, time.Minute, nil)
	}
	env.Run(3 * time.Second)
	var got []Object
	dhts[3].Get("t", "k", func(objs []Object, _ error) { got = objs })
	env.Run(3 * time.Second)
	if len(got) != 3 {
		t.Fatalf("got %d objects, want 3 (one per suffix)", len(got))
	}
}

func TestGetUnknownKeyReturnsEmpty(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 6})
	dhts := ring(t, env, 4)
	called := false
	dhts[0].Get("t", "nope", func(objs []Object, err error) {
		called = true
		if err != nil {
			t.Errorf("err = %v", err)
		}
		if len(objs) != 0 {
			t.Errorf("objs = %v", objs)
		}
	})
	env.Run(3 * time.Second)
	if !called {
		t.Fatal("callback not invoked")
	}
}

func TestSoftStateExpires(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 7})
	dhts := ring(t, env, 4)
	dhts[0].Put("t", "k", "s", []byte("x"), 5*time.Second, nil)
	env.Run(2 * time.Second)
	count := func() int {
		n := 0
		for _, d := range dhts {
			n += d.LocalCount("t")
		}
		return n
	}
	if count() != 1 {
		t.Fatalf("before expiry: %d objects, want 1", count())
	}
	env.Run(10 * time.Second)
	if count() != 0 {
		t.Fatalf("after expiry: %d objects, want 0", count())
	}
}

func TestRenewExtendsLifetime(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 8})
	dhts := ring(t, env, 4)
	dhts[0].Put("t", "k", "s", []byte("x"), 5*time.Second, nil)
	env.Run(3 * time.Second)
	renewed := false
	dhts[0].Renew("t", "k", "s", 30*time.Second, func(ok bool) { renewed = ok })
	env.Run(2 * time.Second)
	if !renewed {
		t.Fatal("renew failed for live object")
	}
	// Original lifetime would have expired by now; renewed object lives.
	env.Run(10 * time.Second)
	total := 0
	for _, d := range dhts {
		total += d.LocalCount("t")
	}
	if total != 1 {
		t.Fatalf("renewed object missing: count = %d", total)
	}
}

func TestRenewFailsForMissingObject(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 9})
	dhts := ring(t, env, 4)
	result := true
	called := false
	dhts[0].Renew("t", "never-stored", "s", time.Minute, func(ok bool) { result, called = ok, true })
	env.Run(3 * time.Second)
	if !called {
		t.Fatal("renew callback not invoked")
	}
	if result {
		t.Fatal("renew of absent object must fail, prompting a re-put (§3.2.3)")
	}
}

func TestMaxLifetimeClamped(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 10})
	node := env.Spawn("solo")
	d := New(node, Config{MaxLifetime: 10 * time.Second})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	d.Put("t", "k", "s", []byte("x"), 24*time.Hour, nil) // asks far beyond max
	env.Run(5 * time.Second)
	if d.LocalCount("t") != 1 {
		t.Fatal("object missing before clamped expiry")
	}
	env.Run(10 * time.Second)
	if d.LocalCount("t") != 0 {
		t.Fatal("system must enforce maximum lifetime (§3.2.3)")
	}
}

func TestNewDataCallbackFires(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 11})
	dhts := ring(t, env, 4)
	var arrivals []string
	for _, d := range dhts {
		d.OnNewData("t", func(o Object) { arrivals = append(arrivals, o.Suffix) })
	}
	dhts[2].Put("t", "k", "s9", []byte("x"), time.Minute, nil)
	env.Run(3 * time.Second)
	if len(arrivals) != 1 || arrivals[0] != "s9" {
		t.Fatalf("arrivals = %v", arrivals)
	}
}

func TestSendDeliversToOwnerWithUpcalls(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 12})
	dhts := ring(t, env, 8)
	upcallNodes := make(map[vri.Addr]int)
	for _, d := range dhts {
		d := d
		d.OnUpcall("agg", func(o Object) bool {
			upcallNodes[d.Addr()]++
			return true
		})
	}
	delivered := false
	for _, d := range dhts {
		d.OnNewData("agg", func(o Object) { delivered = true })
	}
	dhts[3].Send("agg", "root", "s", []byte("partial"), time.Minute)
	env.Run(3 * time.Second)
	if !delivered {
		t.Fatal("send did not deliver to owner")
	}
	// The origin never upcalls itself; intermediate hops (if any) and the
	// owner do.
	if upcallNodes[dhts[3].Addr()] != 0 {
		t.Error("origin node received upcall for its own send")
	}
}

func TestUpcallCanConsumeMessage(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 13})
	dhts := ring(t, env, 8)
	for _, d := range dhts {
		d.OnUpcall("agg", func(Object) bool { return false }) // swallow everything
	}
	delivered := false
	for _, d := range dhts {
		d.OnNewData("agg", func(Object) { delivered = true })
	}
	// Send from a node that is NOT the owner, so at least one upcall
	// happens.
	owner := ownerOf(dhts, "agg", "root")
	var sender *DHT
	for _, d := range dhts {
		if d != owner {
			sender = d
			break
		}
	}
	sender.Send("agg", "root", "s", []byte("x"), time.Minute)
	env.Run(3 * time.Second)
	if delivered {
		t.Fatal("message delivered despite consuming upcall")
	}
}

// ownerOf finds which test node owns (ns, key) by identifier arithmetic.
func ownerOf(dhts []*DHT, ns, key string) *DHT {
	id := HashName(ns, key)
	best := dhts[0]
	bestDist := Distance(id, best.NodeID())
	for _, d := range dhts[1:] {
		if dd := Distance(id, d.NodeID()); dd < bestDist {
			best, bestDist = d, dd
		}
	}
	return best
}

func TestLocalScanSeesOnlyLocalObjects(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 14})
	dhts := ring(t, env, 8)
	for i := 0; i < 20; i++ {
		dhts[0].Put("t", fmt.Sprintf("key-%d", i), "s", []byte{byte(i)}, time.Minute, nil)
	}
	env.Run(5 * time.Second)
	total := 0
	for _, d := range dhts {
		d.LocalScan("t", func(Object) bool { total++; return true })
	}
	if total != 20 {
		t.Fatalf("scan total = %d, want 20", total)
	}
	// Keys should be spread: no single node should hold all 20 in an
	// 8-node ring (overwhelmingly unlikely with SHA-1 placement).
	maxLocal := 0
	for _, d := range dhts {
		if c := d.LocalCount("t"); c > maxLocal {
			maxLocal = c
		}
	}
	if maxLocal == 20 {
		t.Error("all keys landed on one node; partitioning broken")
	}
}

func TestRingHealsAfterNodeFailure(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 15})
	dhts := ring(t, env, 8)
	verifyRing(t, dhts)
	// Kill two nodes.
	env.Fail(dhts[2].Addr())
	env.Fail(dhts[5].Addr())
	env.Run(30 * time.Second) // let stabilization heal
	survivors := []*DHT{dhts[0], dhts[1], dhts[3], dhts[4], dhts[6], dhts[7]}
	verifyRing(t, survivors)
	// The healed ring still serves puts and gets.
	var got []Object
	survivors[0].Put("t", "post-failure", "s", []byte("alive"), time.Minute, nil)
	env.Run(3 * time.Second)
	survivors[3].Get("t", "post-failure", func(objs []Object, _ error) { got = objs })
	env.Run(3 * time.Second)
	if len(got) != 1 || string(got[0].Data) != "alive" {
		t.Fatalf("post-failure get = %v", got)
	}
}

func TestPublisherRecoversAfterOwnerFailure(t *testing.T) {
	// The soft-state contract (§3.2.3): if the owner dies, a renew fails,
	// and the publisher re-puts, restoring availability.
	env := sim.NewEnv(sim.Options{Seed: 16})
	dhts := ring(t, env, 8)
	dhts[0].Put("t", "precious", "s", []byte("v1"), time.Minute, nil)
	env.Run(3 * time.Second)
	owner := ownerOf(dhts, "t", "precious")
	if owner == dhts[0] {
		t.Skip("publisher is owner under this seed; scenario needs remote owner")
	}
	env.Fail(owner.Addr())
	env.Run(30 * time.Second)
	renewOK := true
	dhts[0].Renew("t", "precious", "s", time.Minute, func(ok bool) { renewOK = ok })
	env.Run(5 * time.Second)
	if renewOK {
		t.Fatal("renew should fail after owner death")
	}
	// Publisher re-puts; data is available again.
	dhts[0].Put("t", "precious", "s", []byte("v2"), time.Minute, nil)
	env.Run(3 * time.Second)
	var got []Object
	dhts[1].Get("t", "precious", func(objs []Object, _ error) { got = objs })
	env.Run(3 * time.Second)
	if len(got) != 1 || string(got[0].Data) != "v2" {
		t.Fatalf("after re-put: %v", got)
	}
}

func TestLookupConsistentAcrossNodes(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 17})
	dhts := ring(t, env, 12)
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		owners := make(map[vri.Addr]bool)
		for _, d := range dhts {
			d.Lookup("ns", key, func(owner vri.Addr, err error) {
				if err != nil {
					t.Errorf("lookup %s: %v", key, err)
					return
				}
				owners[owner] = true
			})
		}
		env.Run(3 * time.Second)
		if len(owners) != 1 {
			t.Errorf("key %q resolved to %d distinct owners, want 1", key, len(owners))
		}
	}
}

func TestStartTwiceFails(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 18})
	d := New(env.Spawn("solo"), Config{})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Fatal("second Start should fail")
	}
}

func TestStopReleasesPort(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 19})
	node := env.Spawn("solo")
	d := New(node, Config{})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	d.Stop()
	// Port free again: a fresh DHT can start on the same node.
	d2 := New(node, Config{})
	if err := d2.Start(); err != nil {
		t.Fatalf("restart after Stop: %v", err)
	}
}

// TestLocalGetVisitsWhatLocalScanVisitsUnderTheKey: LocalGet(ns, k) is
// LocalScan(ns) restricted to o.Key == k — same objects, same order, same
// strict expiry rule — which is what lets a keyed read stand in for a
// filtered scan.
func TestLocalGetVisitsWhatLocalScanVisitsUnderTheKey(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 21})
	// No sweep inside the test: expired objects stay in the store, so it
	// is the reads' own expiry rule that hides them.
	d := New(env.Spawn("solo"), Config{SweepInterval: time.Hour})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	const check = 5 * time.Second
	lifetimes := []time.Duration{check - time.Second, check, check + time.Nanosecond, time.Hour}
	keys := []string{"a", "b", "", "a\x1fb"}
	for ki, k := range keys {
		for i, life := range lifetimes {
			// Suffixes stored out of order, lifetimes rotated per key.
			d.PutLocal("t", k, fmt.Sprintf("s%d", (i+ki)%len(lifetimes)), []byte{byte(ki), byte(i)}, life)
		}
		d.PutLocal("other", k, "s", []byte("x"), time.Hour)
	}
	env.Run(check) // an object that lives exactly `check` is dead now

	name := func(o Object) string {
		return fmt.Sprintf("%s/%q/%s=%v", o.Namespace, o.Key, o.Suffix, o.Data)
	}
	for _, k := range append(keys, "absent") {
		var got, want []string
		d.LocalGet("t", k, func(o Object) bool { got = append(got, name(o)); return true })
		d.LocalScan("t", func(o Object) bool {
			if o.Key == k {
				want = append(want, name(o))
			}
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("key %q: LocalGet visited %v, LocalScan %v", k, got, want)
		}
		if wantLive := 2; k != "absent" && len(got) != wantLive {
			t.Errorf("key %q: %d live objects at the expiry instant, want %d (lifetimes > %v)", k, len(got), wantLive, check)
		}
	}
	visits := 0
	d.LocalGet("t", "a", func(Object) bool { visits++; return false })
	if visits != 1 {
		t.Errorf("LocalGet visited %d objects after fn returned false, want 1", visits)
	}
}

// TestMisplacedStoresCountsPutsAtNonOwners: an mkPut that arrives at a node
// which does not own its key by its own view is stored and counted; one at
// the owner is only stored, and puts routed over a converged ring land at
// their owners.
func TestMisplacedStoresCountsPutsAtNonOwners(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 27})
	dhts := ring(t, env, 6)
	for i := 0; i < 20; i++ {
		dhts[i%6].Put("t", fmt.Sprintf("key-%d", i), "s", []byte{byte(i)}, time.Minute, nil)
	}
	env.Run(5 * time.Second)
	for _, d := range dhts {
		if d.MisplacedStores() != 0 {
			t.Fatalf("%s counts %d misplaced stores on a converged ring", d.Addr(), d.MisplacedStores())
		}
	}
	owner := ownerOf(dhts, "t", "stray")
	other := dhts[0]
	if other == owner {
		other = dhts[1]
	}
	put := encodePut(wire.NewWriter(64), Object{Namespace: "t", Key: "stray", Suffix: "s", Data: []byte("x"), Lifetime: time.Minute})
	owner.dispatch(other.Addr(), put)
	other.dispatch(owner.Addr(), put)
	if owner.MisplacedStores() != 0 || other.MisplacedStores() != 1 {
		t.Errorf("misplaced stores: owner %d, non-owner %d; want 0 and 1", owner.MisplacedStores(), other.MisplacedStores())
	}
	if other.LocalCount("t") == 0 {
		t.Error("a misplaced put was not stored")
	}
}

// TestTransitDropsCountsAbandonedMessages: a node whose next three
// successors die at once routes a send toward the first of them; per-hop
// failover tries each in turn, runs out of candidates, and abandons the
// message. The origin's ack reports the loss, and the node counts one
// transit drop.
func TestTransitDropsCountsAbandonedMessages(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 28})
	dhts := ring(t, env, 8)
	sorted := append([]*DHT(nil), dhts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NodeID() < sorted[j].NodeID() })
	a, b := sorted[0], sorted[1]
	key := 0
	for !Between(HashName("t", fmt.Sprint(key)), a.NodeID(), b.NodeID()) {
		key++
	}
	for _, d := range sorted[1:4] {
		env.Fail(d.Addr())
	}
	acked, ok := false, true
	a.SendTracked("t", fmt.Sprint(key), "s", []byte("x"), time.Minute, func(delivered bool) { acked, ok = true, delivered }, nil)
	env.Run(20 * time.Second)
	if !acked || ok {
		t.Fatalf("the send was acked=%v delivered=%v, want an ack reporting the loss", acked, ok)
	}
	total := uint64(0)
	for _, d := range dhts {
		total += d.TransitDrops()
	}
	if a.TransitDrops() != 1 || total != 1 {
		t.Errorf("transit drops: origin %d, ring %d; want 1 and 1", a.TransitDrops(), total)
	}
}
