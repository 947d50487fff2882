package overlay

import (
	"errors"
	"fmt"
	"time"

	"pier/internal/vri"
	"pier/internal/wire"
)

// errTimeout is reported when a pending overlay request gets no response.
var errTimeout = errors.New("overlay: request timed out")

// errSelfJoin is reported when a join lookup resolves back to the joiner
// itself while it is still a singleton — stale pointers in the ring
// swallowed the join; retry after stabilization.
var errSelfJoin = errors.New("overlay: join resolved to self; retry")

// ErrTimeout reports whether err is an overlay request timeout.
func ErrTimeout(err error) bool { return errors.Is(err, errTimeout) }

// Config parameterizes a DHT node.
type Config struct {
	Router RouterConfig
	// MaxLifetime caps object soft-state lifetimes (§3.2.3). Default 30m.
	MaxLifetime time.Duration
	// SweepInterval is the expiry GC period. Default 1s.
	SweepInterval time.Duration
}

// UpcallFunc intercepts a routed send at an intermediate (or final) node
// (Table 2: handleUpcall). Returning false consumes the message: it is
// neither forwarded nor delivered.
type UpcallFunc func(obj Object) (continueRouting bool)

// DHT is the overlay wrapper of Figure 5: the only interface the query
// processor sees. It choreographs the router and the object manager to
// implement the inter-node operations (get, put, send, renew) and
// intra-node operations (localScan, newData, upcall) of Table 2.
type DHT struct {
	rt     vri.Runtime
	router *router
	store  *objectManager

	subs    *subRegistry
	upcalls map[string]UpcallFunc

	started bool
}

// New creates a DHT node bound to rt. Call Start (and optionally Join)
// before issuing operations.
func New(rt vri.Runtime, cfg Config) *DHT {
	d := &DHT{
		rt:      rt,
		router:  newRouter(rt, cfg.Router),
		store:   newObjectManager(rt, cfg.MaxLifetime, cfg.SweepInterval),
		subs:    newSubRegistry(),
		upcalls: make(map[string]UpcallFunc),
	}
	d.router.deliver = d.deliverRouted
	d.router.upcall = d.routeUpcall
	return d
}

// Start binds the overlay port and begins ring maintenance, with this
// node forming a singleton ring.
func (d *DHT) Start() error {
	if d.started {
		return fmt.Errorf("overlay: already started")
	}
	if err := d.rt.Listen(vri.PortOverlay, d.handleMessage); err != nil {
		return err
	}
	d.router.start()
	d.store.start()
	d.started = true
	return nil
}

// Join bootstraps into an existing ring through any live member. done is
// invoked on the node's event loop.
func (d *DHT) Join(bootstrap vri.Addr, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	d.router.join(bootstrap, done)
}

// Stop halts maintenance and releases the overlay port. Stored objects
// are dropped — exactly what a node failure would do; publishers recover
// via soft state.
func (d *DHT) Stop() {
	if !d.started {
		return
	}
	d.router.stop()
	d.store.stop()
	d.rt.Release(vri.PortOverlay)
	d.started = false
}

// Addr returns this node's network address.
func (d *DHT) Addr() vri.Addr { return d.rt.Addr() }

// NodeID returns this node's position on the identifier ring.
func (d *DHT) NodeID() ID { return d.router.self.id }

// Successor returns the immediate successor's address (self if alone).
func (d *DHT) Successor() vri.Addr { return d.router.successor().addr }

// Predecessor returns the predecessor's address, or "" if unknown.
func (d *DHT) Predecessor() vri.Addr { return d.router.pred.addr }

// Owns reports whether this node is currently responsible for id.
func (d *DHT) Owns(id ID) bool { return d.router.isOwner(id) }

// RouterStats reports messages routed through this node and hops
// forwarded, for instrumentation.
func (d *DHT) RouterStats() (routed, hops uint64) { return d.router.stats() }

// MalformedMessages reports how many datagrams failed to decode and were dropped.
func (d *DHT) MalformedMessages() uint64 { return d.router.malformed }

// MisplacedStores reports how many put objects this node stored although,
// by its own view of the ring, it does not own their key: the lookup that
// chose it as owner ran on a view the ring has since corrected, or on a
// stale one. The object stays where it landed; a reader routed to the true
// owner does not see it.
func (d *DHT) MisplacedStores() uint64 { return d.router.misplaced }

// TransitDrops reports how many routed messages this node abandoned after
// its per-hop failover ran out of live candidates — at the origin or in
// transit. Only an origin learns of the loss (SendTracked's ack).
func (d *DHT) TransitDrops() uint64 { return d.router.transitDrops }

// FingerCount reports how many distinct long-range routing entries this
// node currently holds — a convergence diagnostic for deployment
// harnesses.
func (d *DHT) FingerCount() int {
	r, n := d.router, 0
	for i, f := range r.fingers {
		if !r.slotOpen(f) && !holds(r.fingers[:i], f) {
			n++
		}
	}
	return n
}

// Checkpoint serializes this node's overlay state — ring position
// (predecessor, successor list, fingers) and the soft-state object store
// with expiries rebased to remaining durations — into w. It must run at
// a quiescent driver barrier: state is read directly, so no event of
// this node may be executing. In-flight messages and pending
// request/response exchanges are NOT captured; they are lost at a
// checkpoint exactly as they would be at a network partition, and soft
// state recovers them after restore.
func (d *DHT) Checkpoint(w *wire.Writer) error {
	if !d.started {
		return fmt.Errorf("overlay: checkpoint requires a started node")
	}
	d.router.snapshot(w)
	d.store.snapshot(w, d.rt.Now())
	return nil
}

// Restore installs a checkpoint taken by Checkpoint on another (or a
// prior) incarnation of this node. The DHT must be freshly started and
// the runtime clock already rebased (sim.Env.SetNow): stored expiries
// re-anchor at Now, and the already-armed maintenance timers stabilize
// from the restored ring pointers instead of bootstrapping a singleton.
func (d *DHT) Restore(r *wire.Reader) error {
	if !d.started {
		return fmt.Errorf("overlay: restore requires a started node")
	}
	if err := d.router.restore(r); err != nil {
		return fmt.Errorf("overlay: restore router: %w", err)
	}
	if err := d.store.restore(r, d.rt.Now()); err != nil {
		return fmt.Errorf("overlay: restore store: %w", err)
	}
	return nil
}

// Lookup resolves the owner of the identifier for (namespace, key).
func (d *DHT) Lookup(namespace, key string, done func(owner vri.Addr, err error)) {
	d.router.lookup(HashName(namespace, key), func(n nodeRef, err error) {
		done(n.addr, err)
	})
}

// Put stores an object in the DHT (Table 2: put): a lookup resolves the
// owner, then the object travels point-to-point (Figure 6). ack, if
// non-nil, reports whether the owner accepted the object.
func (d *DHT) Put(namespace, key, suffix string, data []byte, lifetime time.Duration, ack vri.AckFunc) {
	obj := Object{Namespace: namespace, Key: key, Suffix: suffix, Data: data, Lifetime: lifetime}
	d.router.lookup(HashName(namespace, key), func(owner nodeRef, err error) {
		if err != nil {
			if ack != nil {
				ack(false)
			}
			return
		}
		if owner.addr == d.rt.Addr() {
			d.storeLocal(obj)
			if ack != nil {
				ack(true)
			}
			return
		}
		d.rt.Send(owner.addr, vri.PortOverlay, encodePut(d.router.scratch, obj), ack)
	})
}

// PutLocal stores an object at this node directly, bypassing routing.
// PIER's decoupled-storage design queries data in situ (§2.1.2): an
// endpoint-monitoring node publishes its packet traces and firewall logs
// into its own local store, where true-predicate scans find them, without
// shipping them to the key's owner.
func (d *DHT) PutLocal(namespace, key, suffix string, data []byte, lifetime time.Duration) {
	d.storeLocal(Object{Namespace: namespace, Key: key, Suffix: suffix, Data: data, Lifetime: lifetime})
}

// Send routes an object toward the owner of (namespace, key) in a single
// multi-hop call, giving every node on the path an upcall (Table 2: send;
// Figure 6). Compared to put it uses fewer messages, but each message
// carries the object.
func (d *DHT) Send(namespace, key, suffix string, data []byte, lifetime time.Duration) {
	d.SendTracked(namespace, key, suffix, data, lifetime, nil, nil)
}

// SendTracked is Send with origin-side delivery tracking. ack, if
// non-nil, reports whether the message was delivered locally or
// confirmed onto its first hop: a false means this node abandoned it
// (hop budget exhausted, or every forwarding candidate nacked) and the
// payload was lost — the caller's cue to retry. hop, if non-nil,
// receives the confirmed first hop's address; for namespaces routed as
// dissemination trees that hop is the sender's tree parent. Both run on
// this node's event loop, and both fire at most once.
func (d *DHT) SendTracked(namespace, key, suffix string, data []byte, lifetime time.Duration, ack vri.AckFunc, hop func(vri.Addr)) {
	m := &routedMsg{
		target: HashName(namespace, key),
		origin: d.rt.Addr(),
		hops:   maxHops,
		inner:  riSend,
		obj:    Object{Namespace: namespace, Key: key, Suffix: suffix, Data: data, Lifetime: lifetime},
		done:   ack,
		hop:    hop,
	}
	d.router.route(m)
}

// OnPeerDropped registers fn to run whenever the router evicts a peer it
// believes dead (transport nack or probe timeout). The query plane uses
// this to re-join distribution trees without waiting for a refresh tick.
func (d *DHT) OnPeerDropped(fn func(vri.Addr)) {
	d.router.onDrop = fn
}

// Get fetches all objects stored under (namespace, key) (Table 2: get):
// a lookup followed by a request/response exchange with the owner
// (Figure 6). done receives the objects on this node's event loop.
func (d *DHT) Get(namespace, key string, done func(objs []Object, err error)) {
	d.router.lookup(HashName(namespace, key), func(owner nodeRef, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		if owner.addr == d.rt.Addr() {
			done(d.store.get(namespace, key), nil)
			return
		}
		reqID := d.router.newPending(&pendingReq{onGet: done})
		d.rt.Send(owner.addr, vri.PortOverlay, encodeGetReq(d.router.scratch, reqID, namespace, key), func(ok bool) {
			if !ok {
				d.router.failPending(reqID)
			}
		})
	})
}

// Renew extends the soft-state lifetime of an object already stored at
// its owner (Table 2: renew). It is a lightweight variant of put: only
// the name travels. If the item is not at the destination — it expired,
// or responsibility moved to a different node — the renew fails and the
// publisher must put again (§3.2.4).
func (d *DHT) Renew(namespace, key, suffix string, lifetime time.Duration, done func(ok bool)) {
	if done == nil {
		done = func(bool) {}
	}
	d.router.lookup(HashName(namespace, key), func(owner nodeRef, err error) {
		if err != nil {
			done(false)
			return
		}
		if owner.addr == d.rt.Addr() {
			done(d.store.renew(namespace, key, suffix, lifetime))
			return
		}
		reqID := d.router.newPending(&pendingReq{onRenew: func(ok bool, err error) {
			done(err == nil && ok)
		}})
		d.rt.Send(owner.addr, vri.PortOverlay, encodeRenewReq(d.router.scratch, reqID, namespace, key, suffix, lifetime), func(ok bool) {
			if !ok {
				d.router.failPending(reqID)
			}
		})
	})
}

// LocalScan invokes fn for every object of the namespace stored at this
// node, until fn returns false (Table 2: localScan/handleLScan).
func (d *DHT) LocalScan(namespace string, fn func(Object) bool) {
	d.store.scan(namespace, fn)
}

// LocalGet invokes fn for every live object stored at this node under
// (namespace, key), until fn returns false (Table 2: get, served at the
// owner). Objects come in suffix order — the order LocalScan visits the
// key's objects in — so a reader of one key sees the same sequence from
// either.
func (d *DHT) LocalGet(namespace, key string, fn func(Object) bool) {
	for _, o := range d.store.get(namespace, key) {
		if !fn(o) {
			return
		}
	}
}

// LocalCount returns the number of live local objects in namespace.
func (d *DHT) LocalCount(namespace string) int { return d.store.count(namespace) }

// OnNewData registers fn to run whenever a new object in namespace
// arrives at this node (Table 2: newData/handleNewData). It returns an
// unsubscribe function. It is a thin wrapper over Subscribe; cancel
// releases the registry slot (no leak — see subs.go).
func (d *DHT) OnNewData(namespace string, fn func(Object)) (cancel func()) {
	return d.Subscribe(namespace, fn).Cancel
}

// OnUpcall registers fn to intercept routed sends for namespace passing
// through this node (Table 2: upcall/handleUpcall). Returning false from
// fn consumes the message.
func (d *DHT) OnUpcall(namespace string, fn UpcallFunc) {
	d.upcalls[namespace] = fn
}

// storeLocal stores obj here and dispatches it through the subscription
// registry (decode-once, deterministic order — see subs.go).
func (d *DHT) storeLocal(obj Object) {
	d.store.put(obj)
	d.subs.dispatch(obj)
}

// routeUpcall is the router's per-hop interception hook.
func (d *DHT) routeUpcall(m *routedMsg) bool {
	fn := d.upcalls[m.obj.Namespace]
	if fn == nil {
		return true
	}
	return fn(m.obj)
}

// deliverRouted handles a routed message whose target this node owns.
func (d *DHT) deliverRouted(m *routedMsg) {
	switch m.inner {
	case riSend:
		d.storeLocal(m.obj)
	case riLookup:
		d.rt.Send(m.origin, vri.PortOverlay,
			encodeLookupResp(d.router.scratch, m.reqID, d.rt.Addr(), d.router.self.id), nil)
	}
}

// handleMessage is the overlay's single datagram entry point.
func (d *DHT) handleMessage(src vri.Addr, payload []byte) {
	// Every peer heard from is a candidate routing-table entry.
	d.router.learnPeer(src)
	if !d.dispatch(src, payload) {
		d.router.malformed++
	}
	// Any datagram from the predecessor — the one that just made it so
	// included — shows it alive.
	if src == d.router.pred.addr {
		d.router.predHeard = d.rt.Now()
	}
}

// dispatch decodes one datagram and acts on it. It reports false, having
// changed no ring or store state, if the datagram does not decode.
func (d *DHT) dispatch(src vri.Addr, payload []byte) bool {
	r := wire.NewReader(payload)
	kind := r.U8()
	switch kind {
	case mkRouted:
		m, err := decodeRouted(r)
		if err != nil {
			return false
		}
		d.router.route(m)

	case mkLookupResp:
		reqID := r.U64()
		owner := vri.Addr(r.String())
		ownerID := ID(r.U64())
		if r.Err() != nil {
			return false
		}
		d.router.learnPeer(owner)
		if p := d.router.takePending(reqID); p != nil && p.onLookup != nil {
			p.onLookup(nodeRef{addr: owner, id: ownerID}, nil)
		}

	case mkGetReq:
		reqID := r.U64()
		ns, key := r.String(), r.String()
		if r.Err() != nil {
			return false
		}
		d.rt.Send(src, vri.PortOverlay, encodeGetResp(d.router.scratch, reqID, d.store.get(ns, key)), nil)

	case mkGetResp:
		reqID := r.U64()
		n := int(r.U32())
		if n > r.Remaining()/minObjectBytes {
			return false // a count the bytes cannot carry
		}
		objs := make([]Object, 0, n)
		for i := 0; i < n; i++ {
			objs = append(objs, readObject(r))
		}
		if r.Err() != nil {
			return false
		}
		if p := d.router.takePending(reqID); p != nil && p.onGet != nil {
			p.onGet(objs, nil)
		}

	case mkPut:
		obj := readObject(r)
		if r.Err() != nil {
			return false
		}
		if !d.router.isOwner(HashName(obj.Namespace, obj.Key)) {
			d.router.misplaced++
		}
		d.storeLocal(obj)

	case mkRenewReq:
		reqID := r.U64()
		ns, key, suffix := r.String(), r.String(), r.String()
		lifetime := r.Duration()
		if r.Err() != nil {
			return false
		}
		ok := d.store.renew(ns, key, suffix, lifetime)
		d.rt.Send(src, vri.PortOverlay, encodeRenewResp(d.router.scratch, reqID, ok), nil)

	case mkRenewResp:
		reqID := r.U64()
		ok := r.Bool()
		if r.Err() != nil {
			return false
		}
		if p := d.router.takePending(reqID); p != nil && p.onRenew != nil {
			p.onRenew(ok, nil)
		}

	case mkStabilizeReq:
		reqID, have := r.U64(), r.U64()
		if r.Err() != nil {
			return false
		}
		// The request is the requester's notify, so the answer already names
		// it as predecessor where it qualifies; it goes out in full unless
		// the requester holds exactly these bytes (have == 0: it holds none).
		d.router.onNotify(src)
		body, hash := d.router.stabilizeAnswer()
		var msg []byte
		if have != 0 && have == hash {
			msg = encodeReqID(d.router.scratch, mkStabilizeSame, reqID)
		} else {
			msg = encodeStabilizeResp(d.router.scratch, reqID, body)
		}
		d.rt.Send(src, vri.PortOverlay, msg, nil)

	case mkStabilizeResp, mkStabilizeSame:
		reqID := r.U64()
		if r.Err() != nil {
			return false
		}
		var full []byte
		if kind == mkStabilizeResp {
			full = payload[stabBodyOff:]
		}
		if p := d.router.takePending(reqID); p != nil && p.onStab != nil {
			return p.onStab(full, nil)
		}

	case mkNotify, mkSuccHint:
		addr := vri.Addr(r.String())
		if r.Err() != nil {
			return false
		}
		if kind == mkNotify {
			d.router.onNotify(addr)
		} else {
			d.router.onSuccHint(src, addr)
		}

	case mkPing:
		reqID := r.U64()
		if r.Err() != nil {
			return false
		}
		d.rt.Send(src, vri.PortOverlay, encodeReqID(d.router.scratch, mkPong, reqID), nil)

	case mkPong:
		reqID := r.U64()
		if r.Err() != nil {
			return false
		}
		if p := d.router.takePending(reqID); p != nil && p.onPong != nil {
			p.onPong(nil)
		}

	default:
		return false
	}
	return true
}
