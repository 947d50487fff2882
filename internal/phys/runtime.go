// Package phys implements PIER's Physical Runtime Environment (paper
// §3.1.3, Figure 3): the binding of the Virtual Runtime Interface to the
// real system clock, a Main Scheduler with a single priority queue of
// events, an asynchronous I/O goroutine, and IP-based networking.
//
// All program logic (overlay, query processor) runs on the Main Scheduler
// goroutine, preserving the single-threaded event-handler discipline of
// §3.1.2. The I/O goroutine only moves raw datagrams between the socket
// and the scheduler queue, marshaling and unmarshaling on the way —
// exactly the division of labor in Figure 3.
//
// UDP is the primary transport. Since UDP offers neither delivery
// acknowledgment nor congestion control, the package layers a UdpCC-style
// protocol on top (udpcc.go): per-message acks, retransmission with
// backoff, and an AIMD congestion window per destination. Like UdpCC, it
// provides reliable-or-notified delivery but not in-order delivery. TCP
// sessions (stream.go) are used for communication with user clients.
package phys

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pier/internal/vri"
)

// Config parameterizes a physical runtime.
type Config struct {
	// Bind is the UDP listen address, e.g. "127.0.0.1:0". The node's
	// vri.Addr is the resolved address after binding.
	Bind string
	// Seed seeds the node's random stream; 0 derives one from the bound
	// address and current time.
	Seed int64
	// RTO is the initial retransmission timeout. Defaults to 250ms.
	RTO time.Duration
	// MaxRetries bounds retransmissions before reporting failure.
	// Defaults to 5.
	MaxRetries int
}

// timerEvent is one entry in the Main Scheduler's priority queue.
type timerEvent struct {
	at  time.Time
	seq uint64
	fn  func()
	// cancelled is atomic: Cancel may race with the scheduler goroutine
	// inspecting the heap.
	cancelled atomic.Bool
}

type timerHeap []*timerEvent

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timerEvent)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Runtime is one node's Physical Runtime Environment. It implements
// vri.StreamRuntime.
type Runtime struct {
	cfg  Config
	addr vri.Addr
	conn *net.UDPConn
	rng  *rand.Rand

	// events carries work posted from I/O goroutines onto the Main
	// Scheduler.
	events chan func()
	done   chan struct{}
	wg     sync.WaitGroup

	// Scheduler-owned state; touched only on the scheduler goroutine
	// (except via events channel).
	mu       sync.Mutex // protects timers for cross-goroutine Schedule
	timers   timerHeap
	seq      uint64
	wake     chan struct{}
	handlers map[vri.Port]vri.MessageHandler
	streams  map[vri.Port]*streamListener
	conns    map[*physConn]struct{}

	cc *udpcc

	// dropOutbound, when non-nil, injects datagram loss for tests:
	// packets for which it returns true are discarded instead of
	// written to the socket. Set it before any traffic flows; it is
	// invoked on the scheduler goroutine.
	dropOutbound func(dst vri.Addr, pkt []byte) bool
}

var _ vri.StreamRuntime = (*Runtime)(nil)

// New creates and starts a physical runtime bound to cfg.Bind.
func New(cfg Config) (*Runtime, error) {
	if cfg.Bind == "" {
		cfg.Bind = "127.0.0.1:0"
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 250 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.Bind)
	if err != nil {
		return nil, fmt.Errorf("phys: resolve %q: %w", cfg.Bind, err)
	}
	if laddr.IP == nil || laddr.IP.IsUnspecified() {
		// The node's address is the bound one, and peers learn it from
		// the datagrams they receive, so a wildcard would be advertised
		// as-is and the ring would never form.
		return nil, fmt.Errorf("phys: bind %q is a wildcard address peers cannot reach; bind a reachable address such as 127.0.0.1:7000 or this host's IP", cfg.Bind)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("phys: listen: %w", err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano() ^ int64(conn.LocalAddr().(*net.UDPAddr).Port)
	}
	r := &Runtime{
		cfg:      cfg,
		addr:     vri.Addr(conn.LocalAddr().String()),
		conn:     conn,
		rng:      rand.New(rand.NewSource(seed)),
		events:   make(chan func(), 1024),
		done:     make(chan struct{}),
		wake:     make(chan struct{}, 1),
		handlers: make(map[vri.Port]vri.MessageHandler),
		streams:  make(map[vri.Port]*streamListener),
		conns:    make(map[*physConn]struct{}),
	}
	r.cc = newUDPCC(r)
	r.wg.Add(2)
	go r.schedulerLoop()
	go r.readLoop()
	return r, nil
}

// Close shuts the runtime down: the scheduler stops, sockets close, and
// background goroutines exit.
func (r *Runtime) Close() {
	select {
	case <-r.done:
		return
	default:
	}
	close(r.done)
	r.conn.Close()
	r.mu.Lock()
	for _, l := range r.streams {
		l.close()
	}
	conns := make([]*physConn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
}

// Addr returns the node's bound UDP address.
func (r *Runtime) Addr() vri.Addr { return r.addr }

// Now returns wall-clock time.
func (r *Runtime) Now() time.Time { return time.Now() }

// Rand returns the node's random stream. It must only be used from the
// scheduler goroutine, like all PIER program logic.
func (r *Runtime) Rand() *rand.Rand { return r.rng }

// Schedule enqueues fn on the Main Scheduler after delay. Safe to call
// from any goroutine.
func (r *Runtime) Schedule(delay time.Duration, fn func()) vri.Timer {
	ev := &timerEvent{at: time.Now().Add(delay), fn: fn}
	r.mu.Lock()
	r.seq++
	ev.seq = r.seq
	heap.Push(&r.timers, ev)
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return physTimer{ev}
}

type physTimer struct{ ev *timerEvent }

func (t physTimer) Cancel() { t.ev.cancelled.Store(true) }

// post transfers fn onto the scheduler goroutine.
func (r *Runtime) post(fn func()) {
	select {
	case r.events <- fn:
	case <-r.done:
	}
}

// Listen registers a datagram handler for port.
func (r *Runtime) Listen(port vri.Port, h vri.MessageHandler) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.handlers[port]; ok {
		return fmt.Errorf("phys: port %d already bound", port)
	}
	r.handlers[port] = h
	return nil
}

// Release removes the datagram handler for port.
func (r *Runtime) Release(port vri.Port) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.handlers, port)
}

// Send transmits payload to (dst, dstPort) via the UdpCC layer.
func (r *Runtime) Send(dst vri.Addr, dstPort vri.Port, payload []byte, ack vri.AckFunc) {
	p := make([]byte, len(payload))
	copy(p, payload)
	r.post(func() { r.cc.send(dst, dstPort, p, ack) })
}

// schedulerLoop is the Main Scheduler: it drains due timers and posted
// events on a single goroutine.
func (r *Runtime) schedulerLoop() {
	defer r.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		// Determine the next timer deadline.
		r.mu.Lock()
		var next *timerEvent
		for len(r.timers) > 0 {
			if r.timers[0].cancelled.Load() {
				heap.Pop(&r.timers)
				continue
			}
			next = r.timers[0]
			break
		}
		r.mu.Unlock()

		var timerC <-chan time.Time
		if next != nil {
			d := time.Until(next.at)
			if d < 0 {
				d = 0
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(d)
			timerC = timer.C
		}

		select {
		case <-r.done:
			return
		case fn := <-r.events:
			fn()
		case <-r.wake:
			// New timer was scheduled; recompute deadline.
		case <-timerC:
			now := time.Now()
			for {
				r.mu.Lock()
				if len(r.timers) == 0 || r.timers[0].at.After(now) {
					r.mu.Unlock()
					break
				}
				ev := heap.Pop(&r.timers).(*timerEvent)
				r.mu.Unlock()
				if !ev.cancelled.Load() {
					ev.fn()
				}
			}
		}
	}
}

// readLoop is the asynchronous I/O goroutine of Figure 3: it receives raw
// datagrams, and posts the unmarshaled events onto the Main Scheduler's
// queue.
func (r *Runtime) readLoop() {
	defer r.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, raddr, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-r.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		src := vri.Addr(raddr.String())
		r.post(func() { r.cc.receive(src, pkt) })
	}
}

// dispatch delivers an application payload to the bound port handler.
func (r *Runtime) dispatch(src vri.Addr, port vri.Port, payload []byte) {
	r.mu.Lock()
	h := r.handlers[port]
	r.mu.Unlock()
	if h != nil {
		h(src, payload)
	}
}

// writeDatagram sends one raw packet; called from the scheduler
// goroutine, but UDP writes do not block meaningfully.
func (r *Runtime) writeDatagram(dst vri.Addr, pkt []byte) error {
	if r.dropOutbound != nil && r.dropOutbound(dst, pkt) {
		return nil
	}
	udpAddr, err := net.ResolveUDPAddr("udp", string(dst))
	if err != nil {
		return err
	}
	_, err = r.conn.WriteToUDP(pkt, udpAddr)
	return err
}
