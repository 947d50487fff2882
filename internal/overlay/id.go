// Package overlay implements PIER's DHT overlay network (paper §3.2): a
// decentralized routing infrastructure providing location-independent
// naming, multi-hop routing with per-hop upcalls, and a soft-state object
// store. It is composed of the three modules of Figure 5 — the router
// (router.go), the object manager (objmgr.go), and the wrapper (dht.go)
// which choreographs them and is the only surface the query processor
// touches.
//
// The routing protocol is Chord-style (successor lists, finger tables,
// periodic stabilization). PIER is agnostic to the actual DHT algorithm
// (§3.2.4); Chord supplies the three properties PIER relies on — naming,
// forward-progress multi-hop routing, and churn-tolerant maintenance.
//
// Maintenance is three jittered tickers per node — stabilise, fix one
// finger, check the predecessor — and a tick with nothing to say sends
// nothing. Every tick fires and draws its jitter whatever it sends, so a
// node's timer schedule and random stream do not depend on ring state.
// A finger whose start lies in (self, successor] is the successor, set
// without a lookup. A stabilise request names the answer it already holds
// (by content hash, per successor address) and an unchanged answer comes
// back as nine bytes, re-applied from the retained copy; the request is
// also the requester's notify and its heartbeat, so mkNotify goes only to
// a successor just adopted and mkPing only to a predecessor silent for
// CheckPredInterval. Failure detection: a dead successor is dropped when
// the stabilise request nacks, within 1.25 × StabilizeInterval + the ack
// timeout; a dead predecessor is cleared when its probe nacks, within
// 2.25 × CheckPredInterval + the ack timeout. Wire shapes: messages.go.
//
// A join converges in round trips, not in a stabilise period. The joiner
// learns its successor S from its join lookup and notifies it. When S
// takes the joiner X as its predecessor in place of a valid P, it sends P
// a hint, mkSuccHint{X}; P acts on it only if it comes from P's current
// successor and X lies strictly between P and that successor — the test
// stabilise puts a successor's predecessor to — then puts X at the head of
// its successor list and notifies X, which makes P X's predecessor in the
// same exchange. A singleton that a notify turns into a two-node ring
// notifies its new successor back. A hint only moves a pointer strictly
// closer, so it cannot leave a ring worse than stabilise would, and a
// converged ring sends none; joins that overlap before their hints land
// still leave work for stabilise. No tick or rng draw moved.
//
// A tick's CPU, like its bytes, follows change rather than state size. A
// full answer is decoded once, and a "same" re-applies the decoded refs
// without parsing or hashing. The responder keeps the answer body it last
// built and that body's hash, and rebuilds them only when its predecessor,
// a successor or a finger has changed: pred and the successor addresses are
// compared against copies, and the fingers by a generation that setFinger
// bumps only when a slot's value changes (the fix-finger tick rewrites the
// same successor every round). learnPeer hashes a heard address only while
// some finger slot is open (router.open, kept by setFinger, the only writer
// of the table); the store's sweep walks only once now reaches nextExpiry,
// a lower bound on every stored expiry. Under churn or continuous expiry
// each rule falls back to the full work plus one comparison, and what is
// sent, scheduled or drawn from the rng never depends on which ran.
package overlay

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"

	"pier/internal/vri"
)

// ID is a point on the overlay's circular identifier space. Identifiers
// are the first 64 bits of a SHA-1 digest; the ring wraps at 2^64.
type ID uint64

// String renders the ID in fixed-width hex.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// HashNodeAddr derives a node's identifier from its network address.
func HashNodeAddr(addr vri.Addr) ID {
	return hashBytes([]byte(addr))
}

// HashName computes an object's routing identifier from its namespace and
// partitioning key (§3.2.1): the namespace represents a table name or
// partial-result name, the key is generated from the hashing attributes.
// The suffix does NOT contribute — objects sharing namespace and key land
// on the same node and are differentiated locally by suffix.
func HashName(namespace, key string) ID {
	h := sha1.New()
	h.Write([]byte(namespace))
	h.Write([]byte{0})
	h.Write([]byte(key))
	var sum [sha1.Size]byte
	return ID(binary.BigEndian.Uint64(h.Sum(sum[:0])[:8]))
}

func hashBytes(b []byte) ID {
	sum := sha1.Sum(b)
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// Between reports whether id lies on the ring arc (from, to], walking
// clockwise. When from == to the arc covers the entire ring, matching
// Chord's convention for a node that is its own successor.
func Between(id, from, to ID) bool {
	if from == to {
		return true
	}
	if from < to {
		return id > from && id <= to
	}
	// Arc wraps through zero.
	return id > from || id <= to
}

// BetweenOpen reports whether id lies strictly inside the open arc
// (from, to), walking clockwise.
func BetweenOpen(id, from, to ID) bool {
	if from == to {
		return id != from
	}
	if from < to {
		return id > from && id < to
	}
	return id > from || id < to
}

// Distance returns the clockwise distance from a to b on the ring.
func Distance(a, b ID) uint64 { return uint64(b - a) }
