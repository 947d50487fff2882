package overlay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/vri"
	"pier/internal/wire"
)

// Ring maintenance sends only what carries information (messages.go): the
// tests here pin what a quiet ring sends, that a change still travels in
// full, and the two failure-detection paths the cut leans on.

const numKinds = mkSuccHint + 1

var kindNames = [numKinds]string{
	mkRouted: "mkRouted", mkLookupResp: "mkLookupResp", mkGetReq: "mkGetReq", mkGetResp: "mkGetResp",
	mkPut: "mkPut", mkRenewReq: "mkRenewReq", mkRenewResp: "mkRenewResp",
	mkStabilizeReq: "mkStabilizeReq", mkStabilizeResp: "mkStabilizeResp", mkNotify: "mkNotify",
	mkPing: "mkPing", mkPong: "mkPong", mkStabilizeSame: "mkStabilizeSame", mkSuccHint: "mkSuccHint",
}

// probe decorates one node's runtime and records what the overlay does
// through it: datagrams sent by kind, kinds received in arrival order, and
// timer callbacks run. Every call is forwarded one to one.
type probe struct {
	vri.Runtime
	msgs, bytes [numKinds]int
	recv        []uint8
	fired       int
	// stabDst is where the latest stabilise request went and stabHave the
	// hash it named; a notify sent to that same node says nothing the
	// request did not.
	stabDst           vri.Addr
	stabHave          uint64
	redundantNotifies int
}

func (p *probe) Send(dst vri.Addr, port vri.Port, payload []byte, ack vri.AckFunc) {
	if port == vri.PortOverlay {
		p.msgs[payload[0]]++
		p.bytes[payload[0]] += len(payload)
		switch {
		case payload[0] == mkStabilizeReq:
			p.stabDst, p.stabHave = dst, binary.BigEndian.Uint64(payload[stabBodyOff:])
		case payload[0] == mkNotify && dst == p.stabDst:
			p.redundantNotifies++
		}
	}
	p.Runtime.Send(dst, port, payload, ack)
}

func (p *probe) Listen(port vri.Port, h vri.MessageHandler) error {
	return p.Runtime.Listen(port, func(src vri.Addr, payload []byte) {
		if port == vri.PortOverlay && len(payload) > 0 {
			p.recv = append(p.recv, payload[0])
		}
		h(src, payload)
	})
}

func (p *probe) Schedule(d time.Duration, fn func()) vri.Timer {
	return p.Runtime.Schedule(d, func() { p.fired++; fn() })
}

func (p *probe) reset() { *p = probe{Runtime: p.Runtime} }

// stabAnswers filters the stabilise answers out of what p received.
func (p *probe) stabAnswers() []uint8 {
	var out []uint8
	for _, k := range p.recv {
		if k == mkStabilizeResp || k == mkStabilizeSame {
			out = append(out, k)
		}
	}
	return out
}

// probedRing is ring with a probe under every node.
func probedRing(t *testing.T, env *sim.Env, n int) ([]*DHT, []*probe) {
	t.Helper()
	var probes []*probe
	dhts := ringOn(t, env, n, func(nd *sim.Node) vri.Runtime {
		p := &probe{Runtime: nd}
		probes = append(probes, p)
		return p
	})
	return dhts, probes
}

// sentByKind sums what the probes saw sent.
func sentByKind(probes []*probe) (msgs, bytes [numKinds]int) {
	for _, p := range probes {
		for k := range msgs {
			msgs[k] += p.msgs[k]
			bytes[k] += p.bytes[k]
		}
	}
	return msgs, bytes
}

// at returns the index of the node with the given address.
func at(t *testing.T, dhts []*DHT, addr vri.Addr) int {
	t.Helper()
	for i, d := range dhts {
		if d.Addr() == addr {
			return i
		}
	}
	t.Fatalf("no node %s", addr)
	return -1
}

// runUntil steps the simulation until cond holds, failing the test if it
// still does not after limit.
func runUntil(t *testing.T, env *sim.Env, limit time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := env.Now().Add(limit); !cond(); env.Run(10 * time.Millisecond) {
		if env.Now().After(deadline) {
			t.Fatalf("%s: still not so after %v", what, limit)
		}
	}
}

// succAddrs lists a node's successor list.
func succAddrs(d *DHT) []vri.Addr {
	var out []vri.Addr
	for _, s := range d.router.succs {
		out = append(out, s.addr)
	}
	return out
}

// nameBetween returns a node name whose identifier falls strictly between
// a and b.
func nameBetween(t *testing.T, a, b ID) vri.Addr {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		if name := vri.Addr(fmt.Sprintf("joiner-%d", i)); BetweenOpen(HashNodeAddr(name), a, b) {
			return name
		}
	}
	t.Fatalf("no name hashes into (%s, %s)", a, b)
	return ""
}

// joinBetween spawns a probed node whose identifier falls strictly between
// a and b, starts it and joins it through via.
func joinBetween(t *testing.T, env *sim.Env, a, b ID, via vri.Addr) (*DHT, *probe) {
	t.Helper()
	name := nameBetween(t, a, b)
	p := &probe{Runtime: env.Spawn(string(name))}
	d := New(p, Config{})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	d.Join(via, func(err error) {
		if err != nil {
			t.Errorf("join %s: %v", name, err)
		}
	})
	return d, p
}

// TestSteadyStateMaintenanceTraffic: a converged, churn-free ring tells
// itself nothing it already knows. Per stabilise round a node sends a
// 17-byte request and gets a 9-byte "same"; no notify, no hint, no ping,
// no pong, no full answer; the only lookups are for finger starts that lie
// beyond the successor.
func TestSteadyStateMaintenanceTraffic(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 3})
	dhts, probes := probedRing(t, env, 16)
	verifyRing(t, dhts)
	for _, p := range probes {
		p.reset()
	}
	env.Run(60 * time.Second)
	msgs, size := sentByKind(probes)

	for k := 1; k < numKinds; k++ {
		switch k {
		case mkStabilizeReq, mkStabilizeSame, mkRouted, mkLookupResp:
		default:
			if msgs[k] != 0 {
				t.Errorf("a quiet ring sent %d %s (%d bytes), want none", msgs[k], kindNames[k], size[k])
			}
		}
	}
	if size[mkStabilizeReq] != 17*msgs[mkStabilizeReq] || size[mkStabilizeSame] != 9*msgs[mkStabilizeSame] {
		t.Errorf("stabilise exchange is not 17 + 9 bytes: %d requests in %d bytes, %d answers in %d bytes",
			msgs[mkStabilizeReq], size[mkStabilizeReq], msgs[mkStabilizeSame], size[mkStabilizeSame])
	}
	// Every lookup is a far finger's: a slot comes round at most four times
	// in 60 s (64 slots, ≥ 250 ms a tick), and only the slots whose start
	// lies beyond the successor ask.
	far := 0
	for _, d := range dhts {
		r := d.router
		for i := range r.fingers {
			if !Between(ID(uint64(r.self.id)+1<<uint(i)), r.self.id, r.successor().id) {
				far++
			}
		}
	}
	if msgs[mkLookupResp] == 0 || msgs[mkLookupResp] > 4*far {
		t.Errorf("%d lookups answered; the ring has %d far finger slots, so at most %d ticks had to ask", msgs[mkLookupResp], far, 4*far)
	}

	// Golden totals for this run (seed 3, 16 nodes, 60 virtual seconds).
	// The same test body at the parent commit 60c41f2 counted
	//
	//	mkRouted 3656/111067 B  mkLookupResp 3414/93415 B
	//	mkStabilizeReq 1703/15327 B  mkStabilizeResp 1705/182637 B
	//	mkNotify 1705/19395 B  mkPing 852/7668 B  mkPong 851/7659 B
	//	total 13886 messages / 437168 bytes
	//
	// and this commit counts mkRouted 435/13242 B, mkLookupResp 192/5217 B,
	// mkStabilizeReq 1703/28951 B, mkStabilizeSame 1705/15345 B.
	total, totalBytes := 0, 0
	for k := range msgs {
		total += msgs[k]
		totalBytes += size[k]
	}
	if total != 4035 || totalBytes != 62755 {
		t.Errorf("60 s of a quiet 16-node ring sent %d messages / %d bytes, golden 4035 / 62755; by kind %v / %v",
			total, totalBytes, msgs, size)
	}
}

// TestStabilizeChangeTravelsInFull: the conditional answer never hides a
// change. After a join between X and its successor, after the successor's
// own successor dies, and after a fresh node takes over the successor's
// address, the next answer X gets is a full one, X's list is its
// successor's shifted by one, and the exchange then settles back to "same".
func TestStabilizeChangeTravelsInFull(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 21})
	dhts, probes := probedRing(t, env, 8)
	verifyRing(t, dhts)

	// shifted checks x's list against its successor's: successor first,
	// then the successor's list without x, trimmed to the same length.
	shifted := func(x *DHT, succ *DHT) {
		t.Helper()
		want := []vri.Addr{succ.Addr()}
		for _, a := range succAddrs(succ) {
			if a != x.Addr() && len(want) < successorListLen {
				want = append(want, a)
			}
		}
		if got := succAddrs(x); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s list = %v, want successor %s's shifted by one: %v", x.Addr(), got, succ.Addr(), want)
		}
	}
	// settles runs until x has been answered `same` on five consecutive
	// rounds and returns the answers it got on the way, first one first.
	settles := func(x *probe) []uint8 {
		t.Helper()
		x.reset()
		for i := 0; i < 400; i++ {
			env.Run(100 * time.Millisecond)
			a := x.stabAnswers()
			if n := len(a); n >= 6 && bytes.Count(a[n-5:], []byte{mkStabilizeSame}) == 5 {
				return a
			}
		}
		t.Fatalf("%s never settled back to mkStabilizeSame: %v", x.Addr(), x.stabAnswers())
		return nil
	}
	// inFull checks the answers x got once its successor's body had
	// changed: the full one comes first, after at most the one `same` that
	// was already on its way.
	inFull := func(what string, a []uint8) {
		t.Helper()
		if a[0] != mkStabilizeResp && a[1] != mkStabilizeResp {
			t.Errorf("%s: the change did not travel as a full mkStabilizeResp at once; answers %v", what, a)
		}
	}

	x, xp := dhts[0], probes[0]
	if a := settles(xp); a[0] != mkStabilizeSame {
		t.Fatalf("a converged ring answers in full: %v", a)
	}

	// A join between X and S: S's predecessor changes, so S's body does.
	s := dhts[at(t, dhts, x.Successor())]
	j, _ := joinBetween(t, env, x.NodeID(), s.NodeID(), dhts[3].Addr())
	runUntil(t, env, 10*time.Second, "the joiner's notify reaches S", func() bool { return s.Predecessor() == j.Addr() })
	inFull("join behind the successor", settles(xp))
	if x.Successor() != j.Addr() {
		t.Fatalf("%s successor = %s, want the joiner %s", x.Addr(), x.Successor(), j.Addr())
	}
	shifted(x, j)

	// The successor's successor dies: J's list changes, so J's body does.
	env.Fail(s.Addr())
	runUntil(t, env, 10*time.Second, "J's own stabilise notices", func() bool { return j.Successor() != s.Addr() })
	inFull("successor's successor died", settles(xp))
	shifted(x, j)

	// A fresh DHT at J's address: X still holds the old J's body and names
	// it in `have`, but the newcomer's content hashes differently, so X is
	// answered in full and its list is the newcomer's — itself alone —
	// never the retained one.
	if len(x.router.succs) < 2 || x.router.stabFrom != j.Addr() {
		t.Fatalf("precondition: %s should hold a multi-entry list and a retained body from %s; list %v, from %q",
			x.Addr(), j.Addr(), succAddrs(x), x.router.stabFrom)
	}
	j.Stop()
	fresh := New(j.rt, Config{})
	if err := fresh.Start(); err != nil {
		t.Fatal(err)
	}
	env.Run(150 * time.Millisecond) // the old incarnation's last answer, if one is in flight, lands
	xp.reset()
	runUntil(t, env, 10*time.Second, "the newcomer answers X", func() bool { return len(xp.stabAnswers()) > 0 })
	if a := xp.stabAnswers(); a[0] != mkStabilizeResp {
		t.Errorf("answer from a fresh node at the successor's old address = %s, want the full mkStabilizeResp", kindNames[a[0]])
	}
	if got := succAddrs(x); len(got) != 1 || got[0] != fresh.Addr() {
		t.Errorf("%s list = %v after the newcomer's answer, want just %s: the retained body of the old incarnation was applied", x.Addr(), got, fresh.Addr())
	}
}

// TestRetainedBodyIsPerSuccessorAddress: `have` names only a body received
// from the node being asked, and a "same" is honoured only while the body
// it stands for is still the one retained.
func TestRetainedBodyIsPerSuccessorAddress(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 27})
	dhts, probes := probedRing(t, env, 4)
	x, xp, r := dhts[0], probes[0], dhts[0].router
	s, other := r.succs[0], r.succs[1]
	if r.stabFrom != s.addr || xp.stabDst != s.addr || xp.stabHave == 0 || xp.stabHave != r.stab.hash {
		t.Fatalf("a converged node names its successor's body: retained from %q, asked %q with have %x, body hashes to %x",
			r.stabFrom, xp.stabDst, xp.stabHave, r.stab.hash)
	}

	// Asked of another node, the retained body is not named.
	r.succs[0], r.succs[1] = other, s
	r.stabilize()
	r.takePending(r.reqSeq) // the answer is not wanted
	r.succs[0], r.succs[1] = s, other
	if xp.stabDst != other.addr || xp.stabHave != 0 {
		t.Errorf("request to %s carried have = %x, want 0: the retained body came from %s", xp.stabDst, xp.stabHave, s.addr)
	}

	// A "same" from S arriving after the retained body was replaced — a
	// late full answer from a former successor does that — applies nothing.
	r.stabilize()
	ghosts, _ := decodeStabilize(encodeStabilizeBody(wire.NewWriter(64), "", []nodeRef{ref("ghost-1"), ref("ghost-2")}, nil))
	r.stabFrom, r.stab = "ghost-0", ghosts
	before := succAddrs(x)
	x.handleMessage(s.addr, encodeReqID(wire.NewWriter(16), mkStabilizeSame, r.reqSeq))
	if got := succAddrs(x); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Errorf("a \"same\" from %s applied the body retained from %s: list %v → %v", s.addr, r.stabFrom, before, got)
	}
	if _, waiting := r.pending[r.reqSeq]; waiting {
		t.Error("the answer did not settle its request")
	}
}

// TestExplicitNotifyOnlyOnSuccessorChange: the stabilise request is the
// per-round notify, so mkNotify is sent only to a successor just adopted —
// by a joiner, and by the node whose successor's hint (or stabilise answer)
// put the joiner in front of it — and never to the node the request itself
// went to.
func TestExplicitNotifyOnlyOnSuccessorChange(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 22})
	dhts, probes := probedRing(t, env, 8)
	verifyRing(t, dhts)
	for _, p := range probes {
		p.reset()
	}
	env.Run(30 * time.Second)
	if msgs, _ := sentByKind(probes); msgs[mkNotify] != 0 {
		t.Fatalf("a quiet ring sent %d mkNotify, want none", msgs[mkNotify])
	}

	x := dhts[0]
	s := dhts[at(t, dhts, x.Successor())]
	j, jp := joinBetween(t, env, x.NodeID(), s.NodeID(), dhts[3].Addr())
	env.Run(10 * time.Second)
	if x.Successor() != j.Addr() || j.Predecessor() != x.Addr() || s.Predecessor() != j.Addr() {
		t.Fatalf("join did not settle: %s→%s, %s←%s, %s←%s", x.Addr(), x.Successor(), j.Addr(), j.Predecessor(), s.Addr(), s.Predecessor())
	}
	for i, p := range probes {
		want := 0
		if i == 0 {
			want = 1 // X adopted J as successor
		}
		if p.msgs[mkNotify] != want {
			t.Errorf("%s sent %d mkNotify, want %d", p.Addr(), p.msgs[mkNotify], want)
		}
	}
	if jp.msgs[mkNotify] != 1 {
		t.Errorf("the joiner sent %d mkNotify, want 1 (to the successor it joined at)", jp.msgs[mkNotify])
	}

	// A successor lost to a nack is replaced from the list, and the next
	// request to the replacement is all the notify it needs. (Until S has
	// cleared its dead predecessor its answers still name J, X re-adopts J
	// and notifies it: a successor change each time, so not redundant.)
	env.Fail(j.Addr())
	env.Run(15 * time.Second)
	if x.Successor() != s.Addr() || s.Predecessor() != x.Addr() {
		t.Fatalf("ring did not heal: %s→%s, %s←%s", x.Addr(), x.Successor(), s.Addr(), s.Predecessor())
	}
	for _, p := range append(probes, jp) {
		if p.redundantNotifies != 0 {
			t.Errorf("%s sent %d mkNotify to the node its stabilise request had just gone to", p.Addr(), p.redundantNotifies)
		}
	}
}

// TestSilentPredecessorIsProbed: a predecessor's own stabilise requests are
// its heartbeat, so a live one is never pinged; a dead one is pinged at the
// first check after CheckPredInterval of silence and cleared when the ping
// nacks — within 2.25 × CheckPredInterval + the ack timeout — and the next
// live node is adopted from its stabilise request a round later.
func TestSilentPredecessorIsProbed(t *testing.T) {
	const ackTimeout = 2 * time.Second
	env := sim.NewEnv(sim.Options{Seed: 23, AckTimeout: ackTimeout})
	dhts, probes := probedRing(t, env, 8)
	verifyRing(t, dhts)
	for _, p := range probes {
		p.reset()
	}
	env.Run(30 * time.Second)
	if msgs, _ := sentByKind(probes); msgs[mkPing] != 0 || msgs[mkPong] != 0 {
		t.Fatalf("a ring of live predecessors sent %d mkPing / %d mkPong, want none", msgs[mkPing], msgs[mkPong])
	}

	n := dhts[0]
	cfg := n.router.cfg
	pred := dhts[at(t, dhts, n.Predecessor())]
	predPred := dhts[at(t, dhts, pred.Predecessor())]
	env.Fail(pred.Addr())
	died := env.Now()

	clearBy := died.Add(cfg.CheckPredInterval*9/4 + ackTimeout)
	for n.Predecessor() == pred.Addr() {
		if env.Now().After(clearBy) {
			t.Fatalf("dead predecessor still held %v after it died; bound %v", env.Now().Sub(died), clearBy.Sub(died))
		}
		env.Run(10 * time.Millisecond)
	}
	if probes[0].msgs[mkPing] == 0 {
		t.Error("predecessor cleared without a probe")
	}
	// By now the dead node's own predecessor has had its stabilise request
	// nacked (1.25 × StabilizeInterval + ack timeout) and moved on to n; its
	// next request arrives within one more round.
	adoptBy := env.Now().Add(cfg.StabilizeInterval*5/4 + 500*time.Millisecond)
	for n.Predecessor() != predPred.Addr() {
		if env.Now().After(adoptBy) {
			t.Fatalf("predecessor = %q %v after the dead one was cleared, want %s", n.Predecessor(), env.Now().Sub(adoptBy), predPred.Addr())
		}
		env.Run(10 * time.Millisecond)
	}
}

// TestLocalFingerEqualsRoutedAnswer: a finger whose start lies in (self,
// successor] is set to the successor at the tick without a lookup; that is
// exactly the owner a routed lookup of the start returns.
func TestLocalFingerEqualsRoutedAnswer(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 24})
	dhts := ring(t, env, 32)
	verifyRing(t, dhts)
	local, answered := 0, 0
	for _, d := range dhts {
		r := d.router
		succ := r.successor()
		for i := range r.fingers {
			start := ID(uint64(r.self.id) + 1<<uint(i))
			if !Between(start, r.self.id, succ.id) {
				continue
			}
			local++
			if r.fingers[i] != succ {
				t.Errorf("%s finger %d = %s, want the successor %s", d.Addr(), i, r.fingers[i].addr, succ.addr)
			}
			r.lookup(start, func(owner nodeRef, err error) {
				answered++
				if err != nil || owner != succ {
					t.Errorf("%s lookup(start %d) = %s, %v; the local rule says %s", d.Addr(), i, owner.addr, err, succ.addr)
				}
			})
		}
	}
	env.Run(5 * time.Second)
	if local < 32*50 || answered != local {
		t.Errorf("%d local finger slots, %d lookups answered", local, answered)
	}
}

// TestMaintenanceTimersBounded: each router holds one handle per ticker
// however long it runs (it used to append one per tick, ≈6 per node per
// second for the life of the node), and Stop cancels all three.
func TestMaintenanceTimersBounded(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 25})
	dhts, probes := probedRing(t, env, 4)
	env.Run(10 * time.Minute)
	for _, d := range dhts {
		if n := len(d.router.timers); n != 3 {
			t.Errorf("%s holds %d maintenance timer handles after 10 minutes, want 3", d.Addr(), n)
		}
	}
	// Stop at an instant with no request outstanding, so the only timers
	// the nodes still have pending are the tickers'.
	runUntil(t, env, 10*time.Second, "no request outstanding", func() bool {
		for _, d := range dhts {
			if len(d.router.pending) != 0 {
				return false
			}
		}
		return true
	})
	for i, d := range dhts {
		d.Stop()
		probes[i].reset()
	}
	env.Run(time.Minute)
	for _, p := range probes {
		if p.fired != 0 {
			t.Errorf("%s ran %d timer callbacks after Stop, want none", p.Addr(), p.fired)
		}
	}
}

// rawFrame hand-builds a datagram: kind, request id, then whatever bytes.
func rawFrame(kind uint8, reqID uint64, tail ...byte) []byte {
	w := wire.NewWriter(16)
	w.U8(kind)
	w.U64(reqID)
	return append(w.Bytes(), tail...)
}

// TestHostileCounts: an element count is not a licence to reserve memory.
// A 13-byte mkGetResp claiming 2^24 or 2^32-1 objects (the latter used to
// ask for ≈320 GB) and a stabilise answer claiming 65535 successors or
// fingers are refused before anything is allocated, and counted; so is a
// truncated hint.
func TestHostileCounts(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 26})
	dhts := ring(t, env, 2)
	d, peer := dhts[0], dhts[1].Addr()
	// An outstanding request for each answer to land on.
	getReq := func() uint64 {
		return d.router.newPending(&pendingReq{onGet: func(objs []Object, err error) {
			if err == nil {
				t.Errorf("hostile mkGetResp delivered %d objects", len(objs))
			}
		}})
	}
	stabReq := func() uint64 { d.router.stabilize(); return d.router.reqSeq }
	before := succAddrs(d)

	for _, c := range []struct {
		name string
		msg  []byte
	}{
		{"mkGetResp n=1<<24", rawFrame(mkGetResp, getReq(), 0x01, 0, 0, 0)},
		{"mkGetResp n=0xFFFFFFFF", rawFrame(mkGetResp, getReq(), 0xff, 0xff, 0xff, 0xff)},
		{"mkStabilizeResp 65535 successors", rawFrame(mkStabilizeResp, stabReq(), 0, 0, 0, 0, 0xff, 0xff)},
		{"mkStabilizeResp 65535 fingers", rawFrame(mkStabilizeResp, stabReq(), 0, 0, 0, 0, 0, 0, 0xff, 0xff)},
		{"mkSuccHint truncated", encodeAddr(wire.NewWriter(16), mkSuccHint, peer)[:8]},
		{"unknown kind", []byte{200}},
		{"empty", nil},
	} {
		was := d.MalformedMessages()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d.handleMessage(peer, c.msg)
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: a %d-byte datagram made the node allocate %d bytes", c.name, len(c.msg), got)
		}
		if got := d.MalformedMessages() - was; got != 1 {
			t.Errorf("%s: MalformedMessages rose by %d, want 1", c.name, got)
		}
	}
	if got := succAddrs(d); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Errorf("a malformed stabilise answer changed the successor list: %v → %v", before, got)
	}
	// Well-formed traffic is not counted.
	was := d.MalformedMessages()
	env.Run(5 * time.Second)
	if got := d.MalformedMessages(); got != was {
		t.Errorf("MalformedMessages rose by %d on well-formed traffic", got-was)
	}
}
