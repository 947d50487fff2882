package phys

import (
	"strings"
	"sync"
	"testing"
	"time"

	"pier/internal/vri"
)

func newPair(t *testing.T) (*Runtime, *Runtime) {
	t.Helper()
	a, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Seed: 2})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// waitFor polls cond (under mu) until it is true or the deadline passes.
func waitFor(t *testing.T, mu *sync.Mutex, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		mu.Lock()
		ok := cond()
		mu.Unlock()
		if ok {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

func TestPhysSendDeliversAndAcks(t *testing.T) {
	a, b := newPair(t)
	var mu sync.Mutex
	var got []byte
	var acked bool
	if err := b.Listen(vri.PortQuery, func(src vri.Addr, p []byte) {
		mu.Lock()
		got = append([]byte(nil), p...)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	a.Send(b.Addr(), vri.PortQuery, []byte("over real udp"), func(ok bool) {
		mu.Lock()
		acked = ok
		mu.Unlock()
	})
	if !waitFor(t, &mu, 3*time.Second, func() bool { return string(got) == "over real udp" && acked }) {
		t.Fatalf("delivery/ack missing: got=%q acked=%v", got, acked)
	}
}

func TestPhysSendToUnreachableNacks(t *testing.T) {
	a, err := New(Config{Seed: 1, RTO: 20 * time.Millisecond, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var mu sync.Mutex
	result := -1
	// 203.0.113.0/24 is TEST-NET-3: guaranteed unreachable.
	a.Send("203.0.113.1:9", vri.PortQuery, []byte("x"), func(ok bool) {
		mu.Lock()
		if ok {
			result = 1
		} else {
			result = 0
		}
		mu.Unlock()
	})
	if !waitFor(t, &mu, 5*time.Second, func() bool { return result == 0 }) {
		t.Fatalf("result = %d, want nack", result)
	}
}

func TestPhysManyMessagesAllDelivered(t *testing.T) {
	a, b := newPair(t)
	var mu sync.Mutex
	seen := make(map[byte]bool)
	_ = b.Listen(vri.PortOverlay, func(_ vri.Addr, p []byte) {
		mu.Lock()
		seen[p[0]] = true
		mu.Unlock()
	})
	const n = 100
	for i := 0; i < n; i++ {
		a.Send(b.Addr(), vri.PortOverlay, []byte{byte(i)}, nil)
	}
	if !waitFor(t, &mu, 5*time.Second, func() bool { return len(seen) == n }) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("delivered %d/%d distinct messages", len(seen), n)
	}
}

func TestPhysScheduleFiresInOrder(t *testing.T) {
	a, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var mu sync.Mutex
	var order []int
	a.Schedule(60*time.Millisecond, func() { mu.Lock(); order = append(order, 3); mu.Unlock() })
	a.Schedule(20*time.Millisecond, func() { mu.Lock(); order = append(order, 1); mu.Unlock() })
	a.Schedule(40*time.Millisecond, func() { mu.Lock(); order = append(order, 2); mu.Unlock() })
	if !waitFor(t, &mu, 2*time.Second, func() bool { return len(order) == 3 }) {
		t.Fatal("timers did not all fire")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestPhysTimerCancel(t *testing.T) {
	a, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var mu sync.Mutex
	fired := false
	tm := a.Schedule(50*time.Millisecond, func() { mu.Lock(); fired = true; mu.Unlock() })
	tm.Cancel()
	time.Sleep(150 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if fired {
		t.Error("cancelled timer fired")
	}
}

func TestPhysStreamRoundTrip(t *testing.T) {
	a, b := newPair(t)
	var mu sync.Mutex
	srv := &collectHandler{mu: &mu}
	if err := b.ListenStream(vri.PortClient, srv); err != nil {
		t.Fatal(err)
	}
	cli := &collectHandler{mu: &mu}
	conn, err := a.Connect(b.Addr(), vri.PortClient, cli)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("ping"))
	if !waitFor(t, &mu, 3*time.Second, func() bool { return len(srv.conns) == 1 && len(srv.data) == 1 }) {
		t.Fatalf("server state: conns=%d data=%d", len(srv.conns), len(srv.data))
	}
	mu.Lock()
	serverConn := srv.conns[0]
	gotPing := string(srv.data[0])
	mu.Unlock()
	if gotPing != "ping" {
		t.Fatalf("server got %q", gotPing)
	}
	serverConn.Write([]byte("pong"))
	if !waitFor(t, &mu, 3*time.Second, func() bool { return len(cli.data) == 1 && string(cli.data[0]) == "pong" }) {
		t.Fatal("client did not get pong")
	}
}

func TestPhysStreamFramingPreserved(t *testing.T) {
	a, b := newPair(t)
	var mu sync.Mutex
	srv := &collectHandler{mu: &mu}
	_ = b.ListenStream(vri.PortClient, srv)
	conn, err := a.Connect(b.Addr(), vri.PortClient, &collectHandler{mu: &mu})
	if err != nil {
		t.Fatal(err)
	}
	writes := []string{"a", "bb", "ccc", "dddd"}
	for _, w := range writes {
		conn.Write([]byte(w))
	}
	if !waitFor(t, &mu, 3*time.Second, func() bool { return len(srv.data) == len(writes) }) {
		t.Fatalf("got %d frames, want %d", len(srv.data), len(writes))
	}
	mu.Lock()
	defer mu.Unlock()
	for i, w := range writes {
		if string(srv.data[i]) != w {
			t.Errorf("frame %d = %q, want %q", i, srv.data[i], w)
		}
	}
}

type collectHandler struct {
	mu    *sync.Mutex
	conns []vri.Conn
	data  [][]byte
	errs  []error
}

func (h *collectHandler) HandleConn(c vri.Conn) {
	h.mu.Lock()
	h.conns = append(h.conns, c)
	h.mu.Unlock()
}
func (h *collectHandler) HandleData(_ vri.Conn, d []byte) {
	h.mu.Lock()
	h.data = append(h.data, d)
	h.mu.Unlock()
}
func (h *collectHandler) HandleError(_ vri.Conn, err error) {
	h.mu.Lock()
	h.errs = append(h.errs, err)
	h.mu.Unlock()
}

// TestNewRefusesWildcardBind: a wildcard bind would become the node's
// advertised address, which no peer can reach, so New refuses it before
// opening a socket and says what to bind instead.
func TestNewRefusesWildcardBind(t *testing.T) {
	for _, bind := range []string{":7000", "0.0.0.0:7000", "[::]:7000", ":0"} {
		rt, err := New(Config{Bind: bind})
		if err == nil {
			rt.Close()
			t.Fatalf("New(Bind: %q) succeeded with address %s", bind, rt.Addr())
		}
		if !strings.Contains(err.Error(), "bind a reachable address") {
			t.Fatalf("New(Bind: %q): %v, want the reachable-address hint", bind, err)
		}
	}
}
