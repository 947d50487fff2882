package overlay

import (
	"hash/fnv"
	"time"

	"pier/internal/vri"
	"pier/internal/wire"
)

// Wire protocol for the overlay, carried on vri.PortOverlay. Every
// datagram starts with a one-byte message kind; there are 13.
//
// The stabilise exchange has three shapes. In all of them the request is
// mkStabilizeReq{reqID, have}: have is the FNV-1a-64 of the last full
// answer BODY — everything after reqID: predecessor, successor list,
// finger sample — the requester received from that address, 0 when it
// holds none. The responder first takes the request as the requester's
// notify, then builds its body as always and hashes it.
//
//   - Steady state, 17 + 9 bytes: the hashes agree and the answer is
//     mkStabilizeSame{reqID}. The requester re-applies the answer it
//     retained, decoded on receipt (stabAnswer), so the round's state
//     transition is the one the full answer would have caused.
//   - Something changed, or the requester holds no body from this address
//     (first round, new successor, restored from a checkpoint): the answer
//     is mkStabilizeResp{reqID, body}, which the requester decodes, applies
//     and retains. Content-addressed, so there is no version to bump and a
//     restarted node at an old address cannot alias.
//   - The answer moved the requester's successor: mkNotify follows, to the
//     new successor, which would otherwise wait a round for its request.
//
// Encoding is allocation-free on the steady state: every encode function
// takes a caller-owned scratch wire.Writer (the router's, reused for the
// node's entire lifetime), resets it, and returns its backing bytes. The
// handoff contract is strict — the returned slice is valid only until
// the next encode on the same writer, so it must be passed to
// vri.Runtime.Send (which consumes payloads synchronously) before any
// other encode runs, and never retained in a callback or struct. Code
// that must keep encoded bytes across an asynchronous boundary (none in
// this package today) must use its own Writer instead of the scratch.
//
// Decoding trusts no count: an element count is checked against what the
// remaining bytes can hold before anything is allocated, and a datagram
// that fails to decode is dropped and counted (DHT.MalformedMessages).
const (
	// mkRouted is a multi-hop message making forward progress toward the
	// owner of a target identifier (§3.2.2). It wraps either a DHT send
	// (object delivery with per-hop upcalls) or a lookup request.
	mkRouted = iota + 1
	// mkLookupResp is the owner's direct answer to a routed lookup.
	mkLookupResp
	// mkGetReq / mkGetResp implement the request/response phase of get
	// after the lookup resolved the owner (Figure 6).
	mkGetReq
	mkGetResp
	// mkPut stores an object directly at the resolved owner (Figure 6).
	mkPut
	// mkRenewReq / mkRenewResp extend an object's soft-state lifetime;
	// renew succeeds only if the item is already at the destination
	// (§3.2.4).
	mkRenewReq
	mkRenewResp
	// Ring maintenance.
	mkStabilizeReq  // ask the successor for its predecessor, successor list and finger sample
	mkStabilizeResp // the full answer
	mkNotify        // tell a node it may be our successor's predecessor
	mkPing          // liveness probe of a predecessor gone silent
	mkPong          //
	mkStabilizeSame // the answer is byte for byte the one the requester holds
)

// Routed inner kinds.
const (
	riSend = iota + 1
	riLookup
)

// routedMsg is the unit of multi-hop routing.
type routedMsg struct {
	target ID
	origin vri.Addr // node that initiated the route
	hops   uint8    // hops remaining before the message is dropped
	inner  uint8    // riSend or riLookup
	// final marks that the previous hop determined the receiver to be
	// the owner (target ∈ (prev, receiver]); the receiver delivers
	// without consulting its own predecessor arc. This is Chord's
	// find_successor semantics — ownership decided by the predecessor —
	// and it keeps a stale predecessor pointer from blackholing an arc.
	final bool

	// riSend payload: the object being published/sent.
	obj Object

	// riLookup payload.
	reqID uint64

	// done and hop are origin-local tracking, set only on messages this
	// node itself originated; they are never serialized, so decoded
	// copies at later hops carry nil. done(true) means the message was
	// delivered locally or confirmed onto its first hop; done(false)
	// means this node abandoned it (hop budget exhausted, or every
	// forwarding candidate nacked) and the payload is lost. hop reports
	// the confirmed first hop's address — for tree-structured namespaces
	// that is the sender's parent in the dissemination tree.
	done vri.AckFunc
	hop  func(vri.Addr)
}

// settle fires the origin's delivery callback exactly once.
func (m *routedMsg) settle(ok bool) {
	if m.done != nil {
		done := m.done
		m.done = nil
		done(ok)
	}
}

// Object is one soft-state item in the DHT: named by namespace,
// partitioning key and suffix (§3.2.1), with an explicit lifetime
// (§3.2.3). Data is opaque to the overlay.
type Object struct {
	Namespace string
	Key       string
	Suffix    string
	Data      []byte
	Lifetime  time.Duration
}

func appendObject(w *wire.Writer, o Object) {
	w.String(o.Namespace)
	w.String(o.Key)
	w.String(o.Suffix)
	w.Bytes32(o.Data)
	w.Duration(o.Lifetime)
}

// minObjectBytes: four length prefixes and the lifetime.
const minObjectBytes = 4*4 + 8

func readObject(r *wire.Reader) Object {
	var o Object
	o.Namespace = r.String()
	o.Key = r.String()
	o.Suffix = r.String()
	o.Data = append([]byte(nil), r.Bytes32()...)
	o.Lifetime = r.Duration()
	return o
}

func encodeRouted(w *wire.Writer, m *routedMsg) []byte {
	w.Reset()
	w.U8(mkRouted)
	w.U64(uint64(m.target))
	w.String(string(m.origin))
	w.U8(m.hops)
	w.U8(m.inner)
	w.Bool(m.final)
	switch m.inner {
	case riSend:
		appendObject(w, m.obj)
	case riLookup:
		w.U64(m.reqID)
	}
	return w.Bytes()
}

func decodeRouted(r *wire.Reader) (*routedMsg, error) {
	m := &routedMsg{}
	m.target = ID(r.U64())
	m.origin = vri.Addr(r.String())
	m.hops = r.U8()
	m.inner = r.U8()
	m.final = r.Bool()
	switch m.inner {
	case riSend:
		m.obj = readObject(r)
	case riLookup:
		m.reqID = r.U64()
	}
	return m, r.Err()
}

func encodeLookupResp(w *wire.Writer, reqID uint64, owner vri.Addr, ownerID ID) []byte {
	w.Reset()
	w.U8(mkLookupResp)
	w.U64(reqID)
	w.String(string(owner))
	w.U64(uint64(ownerID))
	return w.Bytes()
}

func encodeGetReq(w *wire.Writer, reqID uint64, ns, key string) []byte {
	w.Reset()
	w.U8(mkGetReq)
	w.U64(reqID)
	w.String(ns)
	w.String(key)
	return w.Bytes()
}

func encodeGetResp(w *wire.Writer, reqID uint64, objs []Object) []byte {
	w.Reset()
	w.U8(mkGetResp)
	w.U64(reqID)
	w.U32(uint32(len(objs)))
	for _, o := range objs {
		appendObject(w, o)
	}
	return w.Bytes()
}

func encodePut(w *wire.Writer, o Object) []byte {
	w.Reset()
	w.U8(mkPut)
	appendObject(w, o)
	return w.Bytes()
}

func encodeRenewReq(w *wire.Writer, reqID uint64, ns, key, suffix string, lifetime time.Duration) []byte {
	w.Reset()
	w.U8(mkRenewReq)
	w.U64(reqID)
	w.String(ns)
	w.String(key)
	w.String(suffix)
	w.Duration(lifetime)
	return w.Bytes()
}

func encodeRenewResp(w *wire.Writer, reqID uint64, ok bool) []byte {
	w.Reset()
	w.U8(mkRenewResp)
	w.U64(reqID)
	w.Bool(ok)
	return w.Bytes()
}

func encodeStabilizeReq(w *wire.Writer, reqID, have uint64) []byte {
	w.Reset()
	w.U8(mkStabilizeReq)
	w.U64(reqID)
	w.U64(have)
	return w.Bytes()
}

// stabBodyOff is where a stabilise answer's body starts: after kind and reqID.
const stabBodyOff = 9

func encodeStabilizeResp(w *wire.Writer, reqID uint64, pred vri.Addr, succs, fingers []nodeRef) []byte {
	w.Reset()
	w.U8(mkStabilizeResp)
	w.U64(reqID)
	w.String(string(pred))
	w.U16(uint16(len(succs)))
	for _, s := range succs {
		w.String(string(s.addr))
	}
	w.U16(uint16(len(fingers)))
	for _, f := range fingers {
		w.String(string(f.addr))
	}
	return w.Bytes()
}

// bodyHash is FNV-1a-64 over a stabilise answer body — what `have` carries.
func bodyHash(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// stabAnswer is a stabilise answer body decoded once, on receipt, with its
// identifiers derived: what an mkStabilizeSame re-applies without parsing
// or hashing anything again.
type stabAnswer struct {
	hash    uint64 // bodyHash of the body: what `have` names
	pred    nodeRef
	succs   []nodeRef
	fingers []nodeRef
}

// decodeStabilize decodes a stabilise answer body; ok is false, and a not
// to be used, if it does not decode.
func decodeStabilize(body []byte) (a stabAnswer, ok bool) {
	r := wire.NewReader(body)
	if pred := vri.Addr(r.String()); pred != "" {
		a.pred = ref(pred)
	}
	var okSuccs, okFingers bool
	a.succs, okSuccs = readRefs(r)
	a.fingers, okFingers = readRefs(r)
	a.hash = bodyHash(body)
	return a, okSuccs && okFingers
}

// readRefs reads a u16-counted address list. An address is at least its
// 4-byte length prefix, so a count the remaining bytes cannot hold is
// refused before anything is allocated.
func readRefs(r *wire.Reader) (refs []nodeRef, ok bool) {
	n := int(r.U16())
	if n > r.Remaining()/4 {
		return nil, false
	}
	refs = make([]nodeRef, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		refs = append(refs, ref(vri.Addr(r.String())))
	}
	return refs, r.Err() == nil
}

func encodeNotify(w *wire.Writer, addr vri.Addr) []byte {
	w.Reset()
	w.U8(mkNotify)
	w.String(string(addr))
	return w.Bytes()
}

// encodeReqID encodes the kinds that are a request id and nothing else:
// mkPing, mkPong, mkStabilizeSame.
func encodeReqID(w *wire.Writer, kind uint8, reqID uint64) []byte {
	w.Reset()
	w.U8(kind)
	w.U64(reqID)
	return w.Bytes()
}
