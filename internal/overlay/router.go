package overlay

import (
	"math/bits"
	"time"

	"pier/internal/vri"
	"pier/internal/wire"
)

// nodeRef names a peer: its address and derived identifier. The zero
// value means "unknown".
type nodeRef struct {
	addr vri.Addr
	id   ID
}

func (n nodeRef) valid() bool { return n.addr != "" }

func ref(addr vri.Addr) nodeRef { return nodeRef{addr: addr, id: HashNodeAddr(addr)} }

// RouterConfig tunes the ring-maintenance protocol. Zero values select
// defaults suitable for both simulation and small real deployments.
type RouterConfig struct {
	// StabilizeInterval is the period of the successor-consistency
	// exchange. Default 500ms.
	StabilizeInterval time.Duration
	// FixFingerInterval is the period at which one finger entry is
	// refreshed. Default 250ms.
	FixFingerInterval time.Duration
	// CheckPredInterval is the period of the predecessor liveness check,
	// and the silence after which the check sends a probe. Default 1s.
	CheckPredInterval time.Duration
}

const (
	// successorListLen is the resilience depth of the successor list.
	successorListLen = 4
	// requestTimeout bounds lookups, pings and stabilize exchanges.
	requestTimeout = 10 * time.Second
	// maxHops bounds multi-hop routing to break cycles under churn. It is
	// the hop budget's wire byte, so it cannot exceed 255.
	maxHops uint8 = 200
)

func (c *RouterConfig) fill() {
	if c.StabilizeInterval <= 0 {
		c.StabilizeInterval = 500 * time.Millisecond
	}
	if c.FixFingerInterval <= 0 {
		c.FixFingerInterval = 250 * time.Millisecond
	}
	if c.CheckPredInterval <= 0 {
		c.CheckPredInterval = time.Second
	}
}

// router is the peer-to-peer overlay routing module of Figure 5. All of
// its state is touched only from the node's event loop (§3.1.2), so it
// needs no locking.
type router struct {
	rt   vri.Runtime
	cfg  RouterConfig
	self nodeRef

	pred    nodeRef
	succs   []nodeRef // succs[0] is the immediate successor; never empty once started
	fingers [64]nodeRef
	open    int       // slots learnPeer could fill, kept by setFinger
	sample  []nodeRef // fingerSample's result, reused
	nextFix int
	// predHeard is when the current predecessor was last heard from.
	predHeard time.Time
	// stab is the last full stabilise answer, decoded, and stabFrom the
	// address it came from: what an mkStabilizeSame from that address
	// re-applies. Not checkpointed — a restored node sends have = 0.
	stab     stabAnswer
	stabFrom vri.Addr

	// deliver is invoked when this node is the owner of a routed
	// message's target.
	deliver func(*routedMsg)
	// upcall is invoked on every riSend message that transits this node
	// (including at the owner, §3.2.2); returning false drops the
	// message.
	upcall func(*routedMsg) bool
	// onDrop, if set, is invoked after dropPeer evicts a peer this node
	// decided is dead (transport nack or probe timeout).
	onDrop func(vri.Addr)

	reqSeq  uint64
	pending map[uint64]*pendingReq

	// scratch is the node's reusable encode buffer: every outbound
	// overlay message is encoded into it and consumed synchronously by
	// Send (see the handoff contract in messages.go), so steady-state
	// ring maintenance allocates no payload bytes on the sender side.
	scratch *wire.Writer

	timers  [3]vri.Timer // the pending tick of each maintenance ticker
	stopped bool

	// hopCount accumulates routing hops for observability.
	hopCount  uint64
	routed    uint64
	malformed uint64 // datagrams dropped because they did not decode
}

type pendingReq struct {
	onLookup func(owner nodeRef, err error)
	// onStab takes an answer's body, nil for mkStabilizeSame; false: malformed.
	onStab  func(full []byte, err error) (ok bool)
	onPong  func(err error)
	onRenew func(ok bool, err error)
	onGet   func(objs []Object, err error)
	timer   vri.Timer
}

func newRouter(rt vri.Runtime, cfg RouterConfig) *router {
	cfg.fill()
	r := &router{
		rt:      rt,
		cfg:     cfg,
		self:    ref(rt.Addr()),
		pending: make(map[uint64]*pendingReq),
		scratch: wire.NewWriter(256),
	}
	r.succs = []nodeRef{r.self} // alone in the ring: own successor
	r.open = len(r.fingers)
	return r
}

// start begins periodic ring maintenance: three tickers, each re-armed by
// its own pre-bound closure after a jittered period.
func (r *router) start() {
	tick := func(slot int, every time.Duration, work func()) {
		var arm, fire func()
		arm = func() {
			r.timers[slot] = r.rt.Schedule(every+time.Duration(r.rt.Rand().Int63n(int64(every/4+1))), fire)
		}
		fire = func() {
			if !r.stopped {
				work()
				arm()
			}
		}
		arm()
	}
	tick(0, r.cfg.StabilizeInterval, r.stabilize)
	tick(1, r.cfg.FixFingerInterval, r.fixNextFinger)
	tick(2, r.cfg.CheckPredInterval, r.checkPredecessor)
}

func (r *router) stop() {
	r.stopped = true
	for _, t := range r.timers {
		t.Cancel()
	}
}

// join bootstraps into an existing ring via any live member: look up our
// own identifier; the owner is our successor.
func (r *router) join(bootstrap vri.Addr, done func(error)) {
	m := &routedMsg{
		target: r.self.id,
		origin: r.self.addr,
		hops:   maxHops,
		inner:  riLookup,
	}
	m.reqID = r.newPending(&pendingReq{onLookup: func(owner nodeRef, err error) {
		if err != nil {
			done(err)
			return
		}
		if owner.addr == r.self.addr {
			// The ring resolved our own id back to us. For a member
			// that is legitimate (a node owns its own identifier); for
			// a singleton it means stale pointers elsewhere routed the
			// lookup into us — the join did NOT take, and the caller
			// must retry after stabilization clears the staleness.
			if r.successor().addr == r.self.addr {
				done(errSelfJoin)
			} else {
				done(nil)
			}
			return
		}
		r.succs = append([]nodeRef{owner}, r.succs...)
		r.trimSuccs()
		r.sendTo(owner.addr, encodeNotify(r.scratch, r.self.addr), nil)
		done(nil)
	}})
	r.sendTo(bootstrap, encodeRouted(r.scratch, m), func(ok bool) {
		if !ok {
			r.failPending(m.reqID)
		}
	})
}

// isOwner reports whether this node is responsible for id: the arc
// (predecessor, self]. A node that has a successor but no predecessor
// yet (mid-join, or freshly notified into a large ring) must NOT claim
// ownership — it would wrongly answer lookups for the whole ring while
// stabilization catches up; routing forwards instead and the true owner
// answers. Only a genuine singleton (its own successor) owns everything.
func (r *router) isOwner(id ID) bool {
	if !r.pred.valid() {
		return r.successor().addr == r.self.addr
	}
	return Between(id, r.pred.id, r.self.id)
}

// successor returns the current immediate successor.
func (r *router) successor() nodeRef { return r.succs[0] }

// closestPreceding picks the best next hop for target: the known node
// whose identifier most closely precedes target, guaranteeing forward
// progress (§3.2.2).
func (r *router) closestPreceding(target ID) nodeRef {
	best := nodeRef{}
	consider := func(n nodeRef) {
		if !n.valid() || n.addr == r.self.addr {
			return
		}
		if !BetweenOpen(n.id, r.self.id, target) {
			return
		}
		// n wins if it lies beyond the current best, i.e. strictly
		// between best and the target on the clockwise arc.
		if !best.valid() || BetweenOpen(n.id, best.id, target) {
			best = n
		}
	}
	for i := len(r.fingers) - 1; i >= 0; i-- {
		consider(r.fingers[i])
	}
	for _, s := range r.succs {
		consider(s)
	}
	return best
}

// route makes one routing decision for m at this node: deliver locally if
// we own the target, otherwise forward with per-hop failover. For riSend
// messages the upcall intercepts the message first (§3.2.2) — unless this
// node originated it.
func (r *router) route(m *routedMsg) {
	r.routed++
	// Every transiting message teaches this node about its origin — a
	// uniformly random point on the ring — which is how far fingers
	// actually get populated: gossip and direct traffic only carry
	// nearby addresses, while far-finger repair lookups are the slow
	// ones that time out precisely when fingers are missing.
	r.learnPeer(m.origin)
	if m.inner == riSend && m.origin != r.self.addr && r.upcall != nil {
		if !r.upcall(m) {
			return // intercepted and dropped
		}
	}
	succ := r.successor()
	// Deliver if the previous hop already determined us the owner, if
	// our own predecessor arc covers the target, or if we are alone.
	if m.final || r.isOwner(m.target) || succ.addr == r.self.addr {
		m.settle(true)
		r.deliver(m)
		return
	}
	if m.hops == 0 {
		m.settle(false)
		return // routing loop or pathological churn; drop
	}
	m.hops--
	var next nodeRef
	if Between(m.target, r.self.id, succ.id) {
		// Our successor owns the target (Chord: ownership is decided by
		// the predecessor); it must deliver even if its own predecessor
		// pointer is stale.
		next = succ
		m.final = true
	} else {
		next = r.closestPreceding(m.target)
		if !next.valid() {
			next = succ
		}
	}
	r.forward(m, next, 0)
}

// forward transmits m to next, failing over through the successor list if
// the transport reports the hop dead.
func (r *router) forward(m *routedMsg, next nodeRef, attempt int) {
	if next.addr == r.self.addr {
		m.settle(true)
		r.deliver(m)
		return
	}
	r.hopCount++
	r.sendTo(next.addr, encodeRouted(r.scratch, m), func(ok bool) {
		if ok {
			if m.hop != nil {
				m.hop(next.addr)
			}
			m.settle(true)
			return
		}
		r.dropPeer(next.addr)
		if attempt+1 >= len(r.succs)+1 {
			m.settle(false)
			return // out of candidates; message lost (soft state recovers)
		}
		alt := r.closestPreceding(m.target)
		if !alt.valid() || alt.addr == next.addr {
			alt = r.successor()
		}
		if alt.addr == next.addr {
			m.settle(false)
			return
		}
		r.forward(m, alt, attempt+1)
	})
}

// lookup resolves the owner of id, calling done on this node's event
// loop.
func (r *router) lookup(id ID, done func(owner nodeRef, err error)) {
	m := &routedMsg{
		target: id,
		origin: r.self.addr,
		hops:   maxHops,
		inner:  riLookup,
	}
	m.reqID = r.newPending(&pendingReq{onLookup: done})
	r.route(m)
}

// newPending registers a request awaiting a response, with timeout.
func (r *router) newPending(p *pendingReq) uint64 {
	r.reqSeq++
	id := r.reqSeq
	r.pending[id] = p
	p.timer = r.rt.Schedule(requestTimeout, func() { r.failPending(id) })
	return id
}

func (r *router) takePending(id uint64) *pendingReq {
	p, ok := r.pending[id]
	if !ok {
		return nil
	}
	delete(r.pending, id)
	if p.timer != nil {
		p.timer.Cancel()
	}
	return p
}

func (r *router) failPending(id uint64) {
	p := r.takePending(id)
	if p == nil {
		return
	}
	err := errTimeout
	switch {
	case p.onLookup != nil:
		p.onLookup(nodeRef{}, err)
	case p.onStab != nil:
		p.onStab(nil, err)
	case p.onPong != nil:
		p.onPong(err)
	case p.onRenew != nil:
		p.onRenew(false, err)
	case p.onGet != nil:
		p.onGet(nil, err)
	}
}

// stabilize runs one round of Chord's successor-consistency protocol. The
// request is also this node's notify and heartbeat to its successor, and
// names the answer it holds so an unchanged one comes back as nine bytes.
func (r *router) stabilize() {
	succ := r.successor()
	if succ.addr == r.self.addr {
		// Alone, or converged singleton; adopt predecessor as successor
		// if one appeared (two-node ring formation).
		if r.pred.valid() && r.pred.addr != r.self.addr {
			r.succs = []nodeRef{r.pred}
		}
		return
	}
	var have uint64
	if r.stabFrom == succ.addr {
		have = r.stab.hash
	}
	reqID := r.newPending(&pendingReq{onStab: func(full []byte, err error) bool {
		switch {
		case err != nil:
			r.dropPeer(succ.addr)
		case full != nil:
			a, ok := decodeStabilize(full)
			if !ok {
				return false
			}
			r.applyStabilize(&a)
			r.stabFrom, r.stab = succ.addr, a
		case r.stabFrom == succ.addr: // else "same" as a body since replaced: the next round asks afresh
			r.applyStabilize(&r.stab)
		}
		return true
	}})
	r.sendTo(succ.addr, encodeStabilizeReq(r.scratch, reqID, have), func(ok bool) {
		if !ok {
			r.failPending(reqID)
		}
	})
}

// applyStabilize performs the state transition of one decoded stabilise
// answer — just off the wire, or the retained one an mkStabilizeSame stands
// for (re-applying matters: dropPeer may have emptied a finger slot since).
func (r *router) applyStabilize(a *stabAnswer) {
	was := r.successor().addr
	// Finger gossip: the successor's long-range pointers seed ours,
	// so routing-table knowledge spreads exponentially instead of
	// waiting on lookups that are slow precisely when fingers are
	// missing.
	for _, f := range a.fingers {
		r.learnRef(f)
	}
	if a.pred.valid() && BetweenOpen(a.pred.id, r.self.id, r.successor().id) {
		r.succs = append([]nodeRef{a.pred}, r.succs...)
	}
	// Adopt the successor's list, shifted by one, in r.succs's own array
	// (nothing else holds it, and a.succs never shares it).
	list := r.succs[:1]
	for _, s := range a.succs {
		if s.addr != r.self.addr {
			list = append(list, s)
		}
	}
	r.succs = list
	r.trimSuccs()
	// A new successor would wait a round for the request that notifies it.
	if now := r.successor().addr; now != was {
		r.sendTo(now, encodeNotify(r.scratch, r.self.addr), nil)
	}
}

// learnPeer opportunistically places a node heard from into the finger
// slot covering its identifier distance, if that slot is empty. Without
// this, a node whose early lookups time out can livelock: empty fingers
// force long successor walks, which exceed the request timeout, so the
// finger-repair lookups themselves keep failing. Learning from ambient
// traffic (as Bamboo does) breaks the cycle. With no slot open nothing can
// change, so the address is not hashed.
func (r *router) learnPeer(addr vri.Addr) {
	if r.open > 0 && addr != "" && addr != r.self.addr {
		r.learnRef(ref(addr))
	}
}

// learnRef is learnPeer for a peer whose identifier is already derived.
func (r *router) learnRef(n nodeRef) {
	d := Distance(r.self.id, n.id)
	if r.open == 0 || !n.valid() || n.addr == r.self.addr || d == 0 {
		return
	}
	if i := bits.Len64(d) - 1; r.slotOpen(r.fingers[i]) {
		r.setFinger(i, n)
	}
}

// slotOpen reports whether a finger slot holding f is one learnPeer fills:
// empty, or holding this node itself.
func (r *router) slotOpen(f nodeRef) bool {
	return !f.valid() || f.id == r.self.id && f.addr == r.self.addr
}

// setFinger is the only writer of r.fingers; it keeps r.open counting the
// open slots.
func (r *router) setFinger(i int, n nodeRef) {
	if r.slotOpen(r.fingers[i]) {
		r.open--
	}
	if r.slotOpen(n) {
		r.open++
	}
	r.fingers[i] = n
}

// fixNextFinger refreshes one finger-table entry per invocation.
func (r *router) fixNextFinger() {
	i := r.nextFix
	r.nextFix = (r.nextFix + 1) % len(r.fingers)
	target := ID(uint64(r.self.id) + 1<<uint(i))
	// Chord's finger[i] = successor short-cut: the successor owns a start in
	// (self, successor], which is what route's `final` rule would have a
	// lookup fetch. A dead successor is still found by stabilise's nack.
	if succ := r.successor(); succ.addr != r.self.addr && Between(target, r.self.id, succ.id) {
		r.setFinger(i, succ)
		return
	}
	r.lookup(target, func(owner nodeRef, err error) {
		// A singleton resolves every lookup to itself; storing self
		// would permanently occupy the slot and blind future routing
		// (learnPeer only fills empty slots). Only real peers qualify.
		if err == nil && owner.valid() && owner.addr != r.self.addr {
			r.setFinger(i, owner)
		}
	})
}

// checkPredecessor probes a predecessor silent for a whole check interval
// (a live one's stabilise requests are its heartbeat) and forgets it on
// timeout, so a new one can be adopted via notify.
func (r *router) checkPredecessor() {
	if !r.pred.valid() || r.rt.Now().Sub(r.predHeard) < r.cfg.CheckPredInterval {
		return
	}
	pred := r.pred
	reqID := r.newPending(&pendingReq{onPong: func(err error) {
		if err != nil && r.pred.addr == pred.addr {
			r.pred = nodeRef{}
		}
	}})
	r.sendTo(pred.addr, encodeReqID(r.scratch, mkPing, reqID), func(ok bool) {
		if !ok {
			r.failPending(reqID)
		}
	})
}

// onNotify handles a peer's claim to be our predecessor: an mkNotify, or
// the stabilise request it sends us every round.
func (r *router) onNotify(addr vri.Addr) {
	if addr == r.self.addr {
		return
	}
	n := r.pred // a live predecessor's every request names it again
	if !n.valid() || n.addr != addr {
		n = ref(addr)
	}
	if !r.pred.valid() || BetweenOpen(n.id, r.pred.id, r.self.id) {
		r.pred = n
	}
	// A second node learning of the ring: adopt as successor too.
	if r.successor().addr == r.self.addr {
		r.succs = []nodeRef{n}
	}
}

// fingerSample returns the valid fingers (deduplicated) for stabilization
// gossip, capped to keep maintenance messages small. The slice is the
// router's own, overwritten by the next call.
func (r *router) fingerSample(max int) []nodeRef {
	out := r.sample[:0]
	for _, f := range r.fingers {
		if r.slotOpen(f) || holds(out, f) {
			continue
		}
		out = append(out, f)
		if len(out) >= max {
			break
		}
	}
	r.sample = out
	return out
}

// holds reports whether refs contains n. A table holds a few distinct peers
// many times over, so a linear scan comparing identifiers first beats a set.
func holds(refs []nodeRef, n nodeRef) bool {
	for _, x := range refs {
		if x.id == n.id && x.addr == n.addr {
			return true
		}
	}
	return false
}

// dropPeer removes a dead node from all routing state.
func (r *router) dropPeer(addr vri.Addr) {
	if addr == "" || addr == r.self.addr {
		return
	}
	if r.pred.addr == addr {
		r.pred = nodeRef{}
	}
	keep := r.succs[:0]
	for _, s := range r.succs {
		if s.addr != addr {
			keep = append(keep, s)
		}
	}
	r.succs = keep
	if len(r.succs) == 0 {
		r.succs = []nodeRef{r.self}
	}
	for i, f := range r.fingers {
		if f.addr == addr {
			r.setFinger(i, nodeRef{})
		}
	}
	// Tell the layer above: a peer believed dead is exactly the signal
	// a dissemination-tree child needs to re-join promptly instead of
	// waiting out its refresh period.
	if r.onDrop != nil {
		r.onDrop(addr)
	}
}

func (r *router) trimSuccs() {
	// Dedup while preserving order, then cap the list length.
	seen := make(map[vri.Addr]bool, len(r.succs))
	out := r.succs[:0]
	for _, s := range r.succs {
		if s.valid() && !seen[s.addr] {
			seen[s.addr] = true
			out = append(out, s)
		}
	}
	r.succs = out
	if len(r.succs) > successorListLen {
		r.succs = r.succs[:successorListLen]
	}
	if len(r.succs) == 0 {
		r.succs = []nodeRef{r.self}
	}
}

// snapshot serializes the ring position — predecessor, successor list,
// finger table, and the finger-refresh cursor — for a checkpoint.
// Addresses alone are written: identifiers are derived by hashing, so
// restore recomputes them. Pending requests and their timers are
// deliberately excluded; like in-flight messages, they are dropped at a
// checkpoint and soft state re-issues them.
func (r *router) snapshot(w *wire.Writer) {
	w.String(string(r.pred.addr))
	w.U16(uint16(len(r.succs)))
	for _, s := range r.succs {
		w.String(string(s.addr))
	}
	valid := 0
	for _, f := range r.fingers {
		if f.valid() {
			valid++
		}
	}
	w.U8(uint8(valid))
	for i, f := range r.fingers {
		if f.valid() {
			w.U8(uint8(i))
			w.String(string(f.addr))
		}
	}
	w.U8(uint8(r.nextFix))
}

// restore installs a snapshot taken by snapshot. The router must be
// freshly started: maintenance timers keep running and will stabilize
// from the restored pointers instead of from a singleton ring.
func (r *router) restore(rd *wire.Reader) error {
	pred := vri.Addr(rd.String())
	ns := rd.U16()
	succs := make([]nodeRef, 0, ns)
	for i := 0; i < int(ns) && rd.Err() == nil; i++ {
		if a := vri.Addr(rd.String()); a != "" {
			succs = append(succs, ref(a))
		}
	}
	nf := rd.U8()
	var fingers [64]nodeRef
	for i := 0; i < int(nf) && rd.Err() == nil; i++ {
		slot := rd.U8()
		a := vri.Addr(rd.String())
		if int(slot) < len(fingers) && a != "" {
			fingers[slot] = ref(a)
		}
	}
	next := rd.U8()
	if err := rd.Err(); err != nil {
		return err
	}
	if pred != "" && pred != r.self.addr {
		r.pred = ref(pred)
	}
	if len(succs) > 0 {
		r.succs = succs
		r.trimSuccs()
	}
	for i, f := range fingers {
		r.setFinger(i, f)
	}
	r.nextFix = int(next) % len(r.fingers)
	return nil
}

func (r *router) sendTo(dst vri.Addr, payload []byte, ack vri.AckFunc) {
	r.rt.Send(dst, vri.PortOverlay, payload, ack)
}

// Stats reports cumulative routing counters: messages routed through this
// node and hops forwarded.
func (r *router) stats() (routed, hops uint64) { return r.routed, r.hopCount }
