// Package vri defines PIER's Virtual Runtime Interface (paper §3.1.1,
// Table 1): a narrow abstraction over the clock, timers, the network, and
// the event scheduler. Everything above this interface — the overlay
// network and the query processor — runs unchanged whether the binding is
// the discrete-event Simulation Environment (internal/sim) or the
// Physical Runtime Environment (internal/phys). This "native simulation"
// property is the paper's core software-engineering design decision
// (§2.1.3).
//
// Multiprogramming is event-based with no preemption (§3.1.2): per node,
// all handlers run on a single logical thread, so handlers must complete
// quickly, never block, and keep state on the heap across events.
package vri

import (
	"math/rand"
	"time"
)

// Addr identifies a network endpoint (a node). In the Simulation
// Environment it is a synthetic name such as "node-17"; in the Physical
// Runtime Environment it is a "host:port" UDP address.
type Addr string

// Port multiplexes services within one node, mirroring the port argument
// of the VRI's listen/send calls (Table 1).
type Port int

// Well-known ports used by the PIER stack. Applications may use any other
// port number.
const (
	PortOverlay Port = 1 // DHT routing and object traffic
	PortQuery   Port = 2 // query processor control traffic
	PortClient  Port = 3 // client proxy (TCP-style) traffic
)

// AckFunc is the delivery callback for Send, mirroring handleUDPAck in
// Table 1. ok reports whether the transport confirmed delivery; the VRI
// guarantees reliable-or-notified delivery (like UdpCC) but NOT in-order
// delivery (§3.1.3).
type AckFunc func(ok bool)

// MessageHandler receives inbound datagrams, mirroring handleUDP.
//
// Ownership: payload is only valid for the duration of the handler call.
// Runtimes may recycle the buffer as soon as the handler returns (the
// Simulation Environment pools delivery buffers), so a handler must copy
// any bytes it retains — decoding with wire.Reader already does this for
// strings, and aliasing reads like Reader.Bytes32 must be copied before
// they escape the handler.
type MessageHandler func(src Addr, payload []byte)

// Timer is a cancellable scheduled event, returned by Schedule.
type Timer interface {
	// Cancel prevents the event from firing if it has not fired yet.
	// Cancelling an already-fired or already-cancelled timer is a no-op.
	Cancel()
}

// Runtime is the per-node execution platform: clock and main scheduler,
// plus the datagram transport. It corresponds to the "Clock and Main
// Scheduler" and "UDP" sections of Table 1. The TCP section of Table 1 is
// covered by the Stream interfaces below and is used only for
// client↔proxy communication (§3.1.3).
type Runtime interface {
	// Addr returns this node's own network address.
	Addr() Addr

	// Now returns the current time: virtual time under simulation, wall
	// time in the physical runtime (Table 1: getCurrentTime).
	Now() time.Time

	// Schedule arranges for fn to run on this node's event loop after
	// delay (Table 1: scheduleEvent/handleTimer). A zero delay yields to
	// the scheduler and runs fn as a fresh event; CPU-intensive code uses
	// this to schedule its own continuation (§3.1.2).
	Schedule(delay time.Duration, fn func()) Timer

	// Listen registers h as the handler for datagrams arriving on port
	// (Table 1: listen). Listening twice on one port is an error.
	Listen(port Port, h MessageHandler) error

	// Release removes the handler for port (Table 1: release).
	Release(port Port)

	// Send transmits payload to (dst, dstPort) reliably but unordered.
	// ack, if non-nil, is invoked exactly once on this node's event loop
	// with the delivery outcome (Table 1: send/handleUDPAck). Send never
	// blocks; transmission happens asynchronously, but the payload
	// buffer is consumed synchronously — every runtime copies or encodes
	// the bytes it needs before Send returns, so callers may immediately
	// reuse the buffer (the reset-a-scratch-wire.Writer idiom the
	// overlay and query processor use on their hot send paths).
	Send(dst Addr, dstPort Port, payload []byte, ack AckFunc)

	// Rand returns this node's deterministic random source. Under
	// simulation every node's stream derives from the environment seed so
	// whole-system runs are reproducible.
	Rand() *rand.Rand
}

// StreamHandler receives TCP-style connection events, mirroring
// handleTCPNew/handleTCPData/handleTCPError in Table 1.
type StreamHandler interface {
	// HandleConn is invoked when a new inbound connection is accepted.
	HandleConn(c Conn)
	// HandleData is invoked when bytes arrive on an established
	// connection.
	HandleData(c Conn, data []byte)
	// HandleError is invoked when the connection fails or closes; the
	// connection is unusable afterwards.
	HandleError(c Conn, err error)
}

// Conn is a TCP-style bidirectional byte stream (Table 1: TCPConnection).
// Writes are asynchronous and never block the event loop.
type Conn interface {
	// RemoteAddr returns the peer's address.
	RemoteAddr() Addr
	// Write queues data for delivery to the peer.
	Write(data []byte)
	// Close tears down the connection (Table 1: disconnect).
	Close()
}

// StreamRuntime is implemented by runtimes that additionally offer
// TCP-style streams for client communication. PIER uses streams only
// between user clients and their proxy node (§3.3.2); all inter-node
// traffic uses Send.
type StreamRuntime interface {
	Runtime

	// ListenStream registers h to accept connections on port.
	ListenStream(port Port, h StreamHandler) error

	// ReleaseStream stops accepting connections on port.
	ReleaseStream(port Port)

	// Connect opens a connection to (dst, dstPort). The returned Conn may
	// be written immediately; h receives data and errors.
	Connect(dst Addr, dstPort Port, h StreamHandler) (Conn, error)
}
