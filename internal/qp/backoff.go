package qp

import (
	"time"

	"pier/internal/tuple"
	"pier/internal/vri"
)

// Shared ack-driven retry policy for the query plane's reliable send
// paths: result forwarding (node.go), hierarchical-agg partials and
// rehash puts (netops.go), and distribution-tree repair (tree.go).
//
// The runtime transport is reliable-or-notified: every Send with a
// non-nil ack either reaches a live destination or reports ack(false).
// This file turns those nacks into bounded, counted retries; on the
// result path one retry state covers a message and its whole id list.
// Two rules keep the sharded-determinism contract intact:
//
//   - jitter comes from the NODE's rng (vri.Runtime.Rand), never from
//     driver or environment randomness — acks and retry timers run as
//     the sender's own events, so the draws stay in per-node streams
//     and workers=0 and workers=K produce identical retry schedules;
//   - every retry and every exhaustion increments a NodeStats counter
//     (SendRetries/SendExhausted), and so does a failed rehash put dropped
//     because its chain closed (PutsAbandoned), so silent loss is
//     impossible by construction.

const (
	// sendRetryLimit is how many times a nacked send is retried after
	// its first transmission; past it the payload is abandoned and
	// counted in NodeStats.SendExhausted. Queries stay best-effort by
	// design (§3.3.2) — the bound keeps a dead proxy from pinning
	// retry timers forever, and completeness accounting quantifies
	// whatever loss remains.
	sendRetryLimit = 3
	// sendBackoffBase is the first retry delay; retry k (0-based) waits
	// sendBackoffBase<<k plus jitter in [0, sendBackoffBase).
	sendBackoffBase = 250 * time.Millisecond
)

// retryDelay returns the backoff before retry number attempt (0-based):
// exponential in the attempt, with one jitter draw from the node's rng.
func (n *Node) retryDelay(attempt int) time.Duration {
	return sendBackoffBase<<uint(attempt) +
		time.Duration(n.rt.Rand().Int63n(int64(sendBackoffBase)))
}

// resultRetry is the in-flight state of one ack-tracked result message:
// one state, one pendingSends unit, one ack and one backoff schedule,
// however many rows and query ids the message carries. States are pooled
// per node and their callback funcs are bound once at allocation, so the
// happy path (ack true) costs zero allocations per message once the pool
// has grown to the node's in-flight peak — the retry machinery allocates
// only on actual nack-driven pool growth, never per event.
type resultRetry struct {
	n     *Node
	proxy vri.Addr
	rqs   []*runningQuery // the id list: the queries still served
	// b is the batch of result rows in flight. Batches are immutable, so
	// a retransmission re-frames the same rows.
	b       *tuple.Batch
	attempt int
	ack     vri.AckFunc // pre-bound onAck, reused across attempts
	resend  func()      // pre-bound retransmit closure for Schedule
}

// popRetry takes a state from the pool, growing it when empty.
func (n *Node) popRetry() *resultRetry {
	if k := len(n.retryPool); k > 0 {
		rr := n.retryPool[k-1]
		n.retryPool = n.retryPool[:k-1]
		return rr
	}
	rr := &resultRetry{n: n}
	rr.ack = rr.onAck
	rr.resend = rr.retransmit
	return rr
}

// send frames the retained rows and transmits them to the proxy. The
// node's scratch writer is safe here, on first transmission and from the
// retry timer alike: both run as node events and Send consumes the bytes
// synchronously.
func (rr *resultRetry) send() {
	n := rr.n
	n.rt.Send(rr.proxy, vri.PortQuery, n.encodeResult(rr), rr.ack)
}

// release returns the state to the pool. The batch and query references
// are cleared so pooled entries do not pin finished queries' memory.
func (rr *resultRetry) release() {
	n := rr.n
	clear(rr.rqs)
	rr.rqs, rr.b = rr.rqs[:0], nil
	n.pendingSends--
	n.retryPool = append(n.retryPool, rr)
}

// dropEnded drops the listed queries that have finished (proxy done,
// local teardown) — retrying a result nobody waits for only adds traffic
// — and releases the state when none is left; it reports whether any is.
func (rr *resultRetry) dropEnded() bool {
	live := rr.rqs[:0]
	for _, rq := range rr.rqs {
		if rr.n.running[rq.id] == rq {
			live = append(live, rq)
		}
	}
	clear(rr.rqs[len(live):])
	rr.rqs = live
	if len(live) == 0 {
		rr.release()
	}
	return len(live) > 0
}

// onAck consumes the transport's delivery report for the last attempt.
func (rr *resultRetry) onAck(ok bool) {
	n := rr.n
	if ok {
		rr.release()
		return
	}
	if !rr.dropEnded() {
		return
	}
	if rr.attempt >= sendRetryLimit {
		n.sendExhausted++
		rr.release()
		return
	}
	n.sendRetries++
	delay := n.retryDelay(rr.attempt)
	rr.attempt++
	n.rt.Schedule(delay, rr.resend)
}

// retransmit sends the retained rows again to the queries still running
// after the backoff.
func (rr *resultRetry) retransmit() {
	if rr.dropEnded() {
		rr.send()
	}
}
