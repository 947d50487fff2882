package overlay

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/vri"
	"pier/internal/wire"
)

// A maintenance tick costs what changed (package doc): the tests here pin
// that each of the three skips — the sweep before its watermark, learnPeer
// with no open slot, an unchanged answer re-applied from its decoded copy —
// leaves the node exactly where the work it skips would have.

// openSlots recounts the finger slots learnPeer could fill.
func openSlots(r *router) int {
	n := 0
	for _, f := range r.fingers {
		if !f.valid() || f.addr == r.self.addr {
			n++
		}
	}
	return n
}

// learnAlways is learnPeer as it was before the open-slot count: it hashes
// every address it hears and fills the slot if that slot is open.
func learnAlways(self nodeRef, fingers *[64]nodeRef, addr vri.Addr) {
	if addr == "" || addr == self.addr {
		return
	}
	n := ref(addr)
	d := Distance(self.id, n.id)
	if d == 0 {
		return
	}
	i := 63
	for ; i > 0; i-- {
		if d&(1<<uint(i)) != 0 {
			break
		}
	}
	if !fingers[i].valid() || fingers[i].addr == self.addr {
		fingers[i] = n
	}
}

// TestStoreReadsIndependentOfSweep: what the store returns never depends on
// when its sweep walks. A store that walks only past its watermark and a
// reference that walks on every tick take the same seeded stream of puts,
// renews and restores at random virtual instants, with lifetimes shorter
// and longer than the sweep period, and answer every get, scan and
// snapshot alike. A skipped walk is one that would have discarded nothing,
// so between ticks the two also hold exactly the same entries.
func TestStoreReadsIndependentOfSweep(t *testing.T) {
	lifetimes := []time.Duration{300 * time.Millisecond, 900 * time.Millisecond, 2500 * time.Millisecond,
		7 * time.Second, 40 * time.Second, 30 * time.Minute}
	for seed := int64(1); seed <= 5; seed++ {
		env := sim.NewEnv(sim.Options{Seed: seed})
		got := newObjectManager(env.Spawn("watermark"), 0, 0)
		got.start()
		refNode := env.Spawn("reference")
		want := newObjectManager(refNode, 0, 0)
		var tick func()
		tick = func() {
			want.nextExpiry = refNode.Now() // walk whatever the watermark says
			want.sweep(refNode.Now())
			refNode.Schedule(want.sweepEvery, tick)
		}
		refNode.Schedule(want.sweepEvery, tick)

		rng := rand.New(rand.NewSource(seed))
		name := func() (ns, key, suffix string) {
			return fmt.Sprint("ns", rng.Intn(2)), fmt.Sprint("k", rng.Intn(4)), fmt.Sprint("s", rng.Intn(4))
		}
		var blob []byte // a checkpoint of the store, restored later over what it holds then
		for step := 0; step < 800; step++ {
			env.Run(time.Duration(rng.Int63n(int64(700 * time.Millisecond))))
			if !reflect.DeepEqual(got.tables, want.tables) {
				t.Fatalf("seed %d step %d: the store holds other entries than the reference that walks every tick", seed, step)
			}
			now := env.Now()
			ns, key, suffix := name()
			switch op := rng.Intn(10); {
			case op < 4:
				o := Object{Namespace: ns, Key: key, Suffix: suffix, Data: []byte(fmt.Sprint(step)),
					Lifetime: lifetimes[rng.Intn(len(lifetimes))]}
				got.put(o)
				want.put(o)
			case op < 6:
				life := lifetimes[rng.Intn(len(lifetimes))]
				if g, w := got.renew(ns, key, suffix, life), want.renew(ns, key, suffix, life); g != w {
					t.Fatalf("seed %d step %d: renew(%s/%s/%s) = %v, reference %v", seed, step, ns, key, suffix, g, w)
				}
			case op < 7:
				wg, ww := wire.NewWriter(256), wire.NewWriter(256)
				got.snapshot(wg, now)
				want.snapshot(ww, now)
				if !bytes.Equal(wg.Bytes(), ww.Bytes()) {
					t.Fatalf("seed %d step %d: checkpoint bytes differ from the reference's", seed, step)
				}
				blob = append([]byte(nil), wg.Bytes()...)
			case op < 8 && blob != nil:
				if err := got.restore(wire.NewReader(blob), now); err != nil {
					t.Fatal(err)
				}
				if err := want.restore(wire.NewReader(blob), now); err != nil {
					t.Fatal(err)
				}
			default:
				if g, w := got.get(ns, key), want.get(ns, key); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d: get(%s/%s) = %v, reference %v", seed, step, ns, key, g, w)
				}
				var g, w []Object
				got.scan(ns, func(o Object) bool { g = append(g, o); return true })
				want.scan(ns, func(o Object) bool { w = append(w, o); return true })
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d: scan(%s) = %v, reference %v", seed, step, ns, g, w)
				}
			}
		}
		if got.walks == 0 || got.walks >= want.walks {
			t.Errorf("seed %d: the store walked %d times, the reference %d: the watermark skipped nothing, or nothing ever expired",
				seed, got.walks, want.walks)
		}
	}
}

// TestSweepWalksOnlyPastWatermark: objects that outlive the run cost their
// store no walk at all; one that expires costs exactly one, which removes
// it and the index levels it leaves empty.
func TestSweepWalksOnlyPastWatermark(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 1})
	m := newObjectManager(env.Spawn("a"), 0, 0)
	m.start()
	for i := 0; i < 500; i++ {
		m.put(Object{Namespace: "long", Key: fmt.Sprint("k", i%50), Suffix: fmt.Sprint(i), Lifetime: 30 * time.Minute})
	}
	env.Run(60 * time.Second)
	if m.walks != 0 {
		t.Fatalf("500 objects with 30-minute lifetimes made the store walk %d times in 60 s, want 0", m.walks)
	}
	m.put(Object{Namespace: "short", Key: "k", Suffix: "s", Lifetime: 5 * time.Second})
	env.Run(4900 * time.Millisecond)
	if m.walks != 0 || m.count("short") != 1 {
		t.Fatalf("before the 5 s object expired: %d walks, %d live, want 0 and 1", m.walks, m.count("short"))
	}
	env.Run(60 * time.Second)
	if m.walks != 1 {
		t.Errorf("one expiry made the store walk %d times, want 1", m.walks)
	}
	if _, ok := m.tables["short"]; ok {
		t.Error("the walk left the expired object's namespace behind")
	}
	if n := m.count("long"); n != 500 {
		t.Errorf("%d long-lived objects left, want 500", n)
	}
}

// TestOpenFingerSlotsCount: the open-slot count equals a recount of the 64
// slots at every driver barrier — while a 32-node ring forms, after two of
// its nodes are killed and dropped by their peers, and in a node restored
// from a checkpoint.
func TestOpenFingerSlotsCount(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 28})
	var dhts []*DHT
	check := func(what string) {
		t.Helper()
		for _, d := range dhts {
			if got, want := d.router.open, openSlots(d.router); got != want {
				t.Fatalf("%s: %s counts %d open finger slots, a recount says %d", what, d.Addr(), got, want)
			}
		}
	}
	steps := func(what string, d time.Duration) {
		t.Helper()
		for end := env.Now().Add(d); env.Now().Before(end); {
			env.Run(100 * time.Millisecond)
			check(what)
		}
	}
	drops := 0
	for i, nd := range env.SpawnN("node", 32) {
		d := New(nd, Config{})
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		d.OnPeerDropped(func(vri.Addr) { drops++ })
		dhts = append(dhts, d)
		if i > 0 {
			d.Join(dhts[0].Addr(), nil)
		}
		steps("ring forming", 2*time.Second)
	}
	steps("converging", 30*time.Second)
	verifyRing(t, dhts)

	env.Fail(dhts[5].Addr())
	env.Fail(dhts[17].Addr())
	steps("after two kills", 30*time.Second)
	if drops == 0 {
		t.Fatal("no peer dropped a killed node")
	}

	src := dhts[9]
	_, restored := restoreDHT(t, src.Addr(), env.Now(), checkpointDHT(t, src))
	dhts = []*DHT{restored}
	check("restored from a checkpoint")
	if restored.router.open == len(restored.router.fingers) {
		t.Error("the restored node has no fingers")
	}
}

// TestLearnPeerSkipIsExact: a router that stops hashing once no finger slot
// is open ends every step of a seeded stream — heard addresses, finger
// repairs (some to self), dropped peers — with the finger table of a
// reference that hashes every address it hears.
func TestLearnPeerSkipIsExact(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		env := sim.NewEnv(sim.Options{Seed: seed})
		r := newRouter(env.Spawn("self"), RouterConfig{})
		want := r.fingers
		rng := rand.New(rand.NewSource(seed))
		peer := func() vri.Addr { return vri.Addr(fmt.Sprint("peer-", rng.Intn(300))) }
		skipped, learned := 0, 0
		for step := 0; step < 20000; step++ {
			// Repairs far outpace drops, so the table is often full and
			// learnPeer often has nothing it could change.
			switch op := rng.Intn(1000); {
			case op < 100: // a finger repair, as fixNextFinger writes it
				i, n := rng.Intn(len(r.fingers)), ref(peer())
				if op == 0 {
					n = r.self
				}
				r.setFinger(i, n)
				want[i] = n
			case op < 105:
				a := peer()
				r.dropPeer(a)
				for i := range want {
					if want[i].addr == a {
						want[i] = nodeRef{}
					}
				}
			default:
				a := peer()
				switch op {
				case 105:
					a = ""
				case 106:
					a = r.self.addr
				}
				if r.open == 0 {
					skipped++
				}
				before := r.fingers
				r.learnPeer(a)
				learnAlways(r.self, &want, a)
				if r.fingers != before {
					learned++
				}
			}
			if r.fingers != want {
				t.Fatalf("seed %d step %d: fingers diverge from the always-hashing reference:\ngot  %v\nwant %v", seed, step, r.fingers, want)
			}
			if r.open != openSlots(r) {
				t.Fatalf("seed %d step %d: open = %d, recount %d", seed, step, r.open, openSlots(r))
			}
		}
		if skipped == 0 || learned == 0 {
			t.Errorf("seed %d: %d learnPeer calls skipped with no slot open, %d filled one; the stream must do both", seed, skipped, learned)
		}
	}
}

// TestSameAnswerRefillsDroppedFinger: after dropPeer empties a finger slot,
// one "same" round refills it from the decoded answer exactly as re-parsing
// the retained body and hashing every address in it would have.
func TestSameAnswerRefillsDroppedFinger(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 29})
	dhts := ring(t, env, 16)
	verifyRing(t, dhts)
	for _, x := range dhts {
		r := x.router
		s := dhts[at(t, dhts, x.Successor())].router
		// The successor's body as it stands is the one x retained.
		body := encodeStabilizeResp(wire.NewWriter(256), 0, s.pred.addr, s.succs, s.fingerSample(16))[stabBodyOff:]
		if r.stabFrom != s.self.addr || bodyHash(body) != r.stab.hash {
			t.Fatalf("%s does not hold its successor's current answer", x.Addr())
		}
		// A gossiped peer, not in x's list, filling the slot its own distance picks.
		var g nodeRef
		for _, f := range r.stab.fingers {
			inList := false
			for _, l := range r.succs {
				inList = inList || l.addr == f.addr
			}
			if !inList && r.fingers[bits.Len64(Distance(r.self.id, f.id))-1] == f {
				g = f
				break
			}
		}
		if !g.valid() {
			continue
		}
		r.dropPeer(g.addr)
		want := r.fingers
		learnAlways(r.self, &want, s.self.addr) // handleMessage hears the answer's source first
		rd := wire.NewReader(body)
		_ = rd.String() // the predecessor
		for n := rd.U16(); n > 0; n-- {
			_ = rd.String() // the successor list
		}
		for n := rd.U16(); n > 0; n-- {
			learnAlways(r.self, &want, vri.Addr(rd.String()))
		}
		if rd.Err() != nil {
			t.Fatal(rd.Err())
		}

		r.stabilize()
		x.handleMessage(s.self.addr, encodeReqID(wire.NewWriter(16), mkStabilizeSame, r.reqSeq))
		if r.fingers != want {
			t.Fatalf("after one \"same\" round the fingers of %s differ from re-parsing the body:\ngot  %v\nwant %v", x.Addr(), r.fingers, want)
		}
		if i := bits.Len64(Distance(r.self.id, g.id)) - 1; r.fingers[i] != g {
			t.Errorf("slot %d of %s holds %v after the round, want the dropped %s back", i, x.Addr(), r.fingers[i].addr, g.addr)
		}
		if r.open != openSlots(r) {
			t.Errorf("open = %d, recount %d", r.open, openSlots(r))
		}
		return
	}
	t.Fatal("no node's successor gossips a peer that fills its own distance slot")
}
