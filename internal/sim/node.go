package sim

import (
	"fmt"
	"math/rand"
	"time"

	"pier/internal/vri"
)

// Node is one virtual node's binding of the Virtual Runtime Interface.
// All of its events run on the single worker that owns its shard of the
// Main Scheduler, so per-node execution is always sequential and in
// event order. Node implements vri.StreamRuntime.
type Node struct {
	env  *Env
	addr vri.Addr
	// id is the node's spawn index (1-based; 0 is the environment). It
	// tie-breaks same-instant events deterministically and derives the
	// node's shard assignment.
	id    uint64
	shard int
	alive bool
	// now is the node's logical clock: the timestamp of the event it is
	// currently dispatching, in virtual ns. Only the owning shard worker
	// touches it.
	now int64
	// srcSeq counts events this node has scheduled, giving every event a
	// per-source sequence number that is deterministic regardless of
	// worker count.
	srcSeq   uint64
	handlers map[vri.Port]vri.MessageHandler
	streams  map[vri.Port]vri.StreamHandler
	conns    []*simConn
	rng      *rand.Rand
	traf     *NodeTraffic
}

var _ vri.StreamRuntime = (*Node)(nil)

// Addr returns the node's address.
func (n *Node) Addr() vri.Addr { return n.addr }

// Now returns the virtual time as observed by this node: the timestamp
// of the event being dispatched, exact at any worker count.
func (n *Node) Now() time.Time { return vtime(n.timeNow()) }

// timeNow is the node's clock source: its own event timestamp while a
// window is executing, the environment clock otherwise.
func (n *Node) timeNow() int64 {
	if n.env.par.inWindow {
		return n.now
	}
	return n.env.now
}

// Rand returns the node's deterministic random stream.
func (n *Node) Rand() *rand.Rand { return n.rng }

// Alive reports whether the node has not failed. No harness calls it; it
// stays because TestDispatchOrderGolden needs it to choose acked sends.
func (n *Node) Alive() bool { return n.alive }

// Schedule enqueues fn on the scheduler after delay, attributed to this
// node; it is dropped if the node fails first. The body stays a single
// call so it inlines: callers that discard the Timer (the common
// rearm-a-tick pattern) then pay no allocation for the interface boxing
// of the handle.
func (n *Node) Schedule(delay time.Duration, fn func()) vri.Timer {
	return n.env.timerAfter(n, delay, fn)
}

// Listen registers a datagram handler for port.
func (n *Node) Listen(port vri.Port, h vri.MessageHandler) error {
	if _, ok := n.handlers[port]; ok {
		return fmt.Errorf("sim: %s: port %d already bound", n.addr, port)
	}
	n.handlers[port] = h
	return nil
}

// Release removes the datagram handler for port.
func (n *Node) Release(port vri.Port) { delete(n.handlers, port) }

// Send transmits payload to (dst, dstPort) through the simulated network.
// The payload is consumed synchronously — deliver copies the bytes it
// needs into a pooled buffer before returning — so the caller may reuse
// its buffer (e.g. a reset wire.Writer) immediately, and a lost or
// dead-destination message costs no copy at all.
func (n *Node) Send(dst vri.Addr, dstPort vri.Port, payload []byte, ack vri.AckFunc) {
	if !n.alive {
		return
	}
	n.env.deliver(n, dst, dstPort, payload, ack)
}

// ListenStream registers a TCP-style accept handler for port.
func (n *Node) ListenStream(port vri.Port, h vri.StreamHandler) error {
	if _, ok := n.streams[port]; ok {
		return fmt.Errorf("sim: %s: stream port %d already bound", n.addr, port)
	}
	n.streams[port] = h
	return nil
}

// ReleaseStream stops accepting connections on port.
func (n *Node) ReleaseStream(port vri.Port) { delete(n.streams, port) }

// Connect opens a simulated TCP connection to (dst, dstPort). Connection
// setup costs one round trip of propagation latency: the SYN reaches the
// peer after one-way latency, where an environment-level handshake event
// links the endpoints (at a window barrier, so it may touch both), and
// each side observes the established — or
// refused — connection a full RTT after Connect.
func (n *Node) Connect(dst vri.Addr, dstPort vri.Port, h vri.StreamHandler) (vri.Conn, error) {
	if !n.alive {
		return nil, fmt.Errorf("sim: %s: node failed", n.addr)
	}
	local := &simConn{node: n, peerAddr: dst, handler: h}
	n.conns = append(n.conns, local)
	e := n.env
	lat := e.opts.Topology.Latency(n.addr, dst)
	e.scheduleFrom(n, n.timeNow()+int64(lat), nil, func() {
		if !n.alive {
			return // initiator died during the handshake
		}
		at := e.now + int64(lat)
		peer := e.nodes[dst]
		if peer == nil || !peer.alive {
			e.scheduleFrom(nil, at, n, func() {
				local.fail(fmt.Errorf("sim: connect %s: unreachable", dst))
			})
			return
		}
		ph := peer.streams[dstPort]
		if ph == nil {
			e.scheduleFrom(nil, at, n, func() {
				local.fail(fmt.Errorf("sim: connect %s port %d: refused", dst, dstPort))
			})
			return
		}
		remote := &simConn{node: peer, peerAddr: n.addr, handler: ph, peer: local}
		peer.conns = append(peer.conns, remote)
		// Accept runs as an event on the peer node.
		e.scheduleFrom(nil, at, peer, func() { ph.HandleConn(remote) })
		// The initiator links up and flushes writes buffered during the
		// handshake, in order.
		e.scheduleFrom(nil, at, n, func() {
			local.peer = remote
			pending := local.pending
			local.pending = nil
			for _, p := range pending {
				local.transmit(p)
			}
		})
	})
	return local, nil
}

// simConn is one endpoint of a simulated TCP connection. The stream is
// reliable and ordered: data events are scheduled in send order and the
// per-source sequence tie-break preserves FIFO for equal arrival times.
// Each endpoint's mutable state is touched only by its own node's
// events (plus environment-level handshake/failure events, which run at
// barriers).
type simConn struct {
	node     *Node
	peer     *simConn
	peerAddr vri.Addr
	handler  vri.StreamHandler
	closed   bool
	pending  [][]byte // writes issued before the handshake completed
}

func (c *simConn) RemoteAddr() vri.Addr { return c.peerAddr }

func (c *simConn) Write(data []byte) {
	if c.closed || !c.node.alive {
		return
	}
	p := make([]byte, len(data))
	copy(p, data)
	if c.peer == nil {
		// Connection still handshaking; queue like a TCP send buffer.
		c.pending = append(c.pending, p)
		return
	}
	c.transmit(p)
}

func (c *simConn) transmit(p []byte) {
	e := c.node.env
	lat := e.opts.Topology.Latency(c.node.addr, c.peerAddr)
	peer := c.peer
	e.scheduleFrom(c.node, c.node.timeNow()+int64(lat), peer.node, func() {
		if peer.closed || !peer.node.alive {
			return
		}
		peer.handler.HandleData(peer, p)
	})
}

func (c *simConn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if p := c.peer; p != nil && !p.closed {
		e := c.node.env
		lat := e.opts.Topology.Latency(c.node.addr, c.peerAddr)
		e.scheduleFrom(c.node, c.node.timeNow()+int64(lat), p.node, func() {
			p.fail(fmt.Errorf("sim: connection closed by peer"))
		})
	}
}

func (c *simConn) fail(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.handler.HandleError(c, err)
}

// failPeer is invoked when this endpoint's node dies: the remote side
// observes a connection error after one propagation delay. It runs in
// driver context (Env.Fail), never inside a window.
func (c *simConn) failPeer() {
	if c.closed {
		return // the peer was already notified when this side closed
	}
	c.closed = true
	if p := c.peer; p != nil && !p.closed {
		e := c.node.env
		lat := e.opts.Topology.Latency(c.node.addr, c.peerAddr)
		e.scheduleFrom(c.node, e.now+int64(lat), p.node, func() {
			p.fail(fmt.Errorf("sim: peer failed"))
		})
	}
}
