package sim

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/vri"
)

func TestVirtualClockAdvancesWithEvents(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	n := env.Spawn("a")
	var fired []time.Duration
	start := env.Now()
	for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		n.Schedule(d, func() { fired = append(fired, n.Now().Sub(start)) })
	}
	env.Run(time.Second)
	if len(fired) != 3 {
		t.Fatalf("got %d events, want 3", len(fired))
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i, w := range want {
		if fired[i] != w {
			t.Errorf("event %d fired at %v, want %v", i, fired[i], w)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	n := env.Spawn("a")
	fired := false
	tm := n.Schedule(10*time.Millisecond, func() { fired = true })
	tm.Cancel()
	env.Run(time.Second)
	if fired {
		t.Error("cancelled timer fired")
	}
}

func TestSameTimeEventsDispatchInScheduleOrder(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	n := env.Spawn("a")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		n.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	env.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestSendDeliversAndAcks(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	a := env.Spawn("a")
	b := env.Spawn("b")
	var got []byte
	var from vri.Addr
	// Copy: the payload slice is only valid during the handler call
	// (pooled delivery buffers recycle on return).
	if err := b.Listen(vri.PortQuery, func(src vri.Addr, p []byte) { got = append([]byte(nil), p...); from = src }); err != nil {
		t.Fatal(err)
	}
	acked := false
	a.Send("b", vri.PortQuery, []byte("hello"), func(ok bool) { acked = ok })
	env.Run(time.Second)
	if string(got) != "hello" {
		t.Fatalf("payload = %q, want hello", got)
	}
	if from != "a" {
		t.Errorf("src = %q, want a", from)
	}
	if !acked {
		t.Error("sender did not receive positive ack")
	}
}

func TestSendCopiesPayload(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	a := env.Spawn("a")
	b := env.Spawn("b")
	var got []byte
	_ = b.Listen(vri.PortQuery, func(_ vri.Addr, p []byte) { got = append([]byte(nil), p...) })
	buf := []byte("first")
	a.Send("b", vri.PortQuery, buf, nil)
	copy(buf, "XXXXX") // mutate after send; delivery must see the original
	env.Run(time.Second)
	if string(got) != "first" {
		t.Fatalf("payload = %q, want first (send must copy)", got)
	}
}

func TestSendToDeadNodeNacks(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	a := env.Spawn("a")
	env.Spawn("b")
	env.Fail("b")
	result := -1
	a.Send("b", vri.PortQuery, []byte("x"), func(ok bool) {
		if ok {
			result = 1
		} else {
			result = 0
		}
	})
	env.Run(5 * time.Second)
	if result != 0 {
		t.Fatalf("ack result = %d, want 0 (nack)", result)
	}
}

func TestSendToUnboundPortStillAcks(t *testing.T) {
	// Transport-level ack means "delivered to the host", even if no
	// handler consumed it — like UDP reaching a closed port after UdpCC
	// acked the datagram.
	env := NewEnv(Options{Seed: 1})
	a := env.Spawn("a")
	env.Spawn("b")
	acked := false
	a.Send("b", vri.PortQuery, []byte("x"), func(ok bool) { acked = ok })
	env.Run(5 * time.Second)
	if !acked {
		t.Error("want transport ack even with unbound port")
	}
}

func TestFailedNodeEventsDiscarded(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	a := env.Spawn("a")
	fired := false
	a.Schedule(50*time.Millisecond, func() { fired = true })
	env.Run(10 * time.Millisecond)
	env.Fail("a")
	env.Run(time.Second)
	if fired {
		t.Error("event on failed node fired")
	}
}

func TestLossRateDropsMessages(t *testing.T) {
	env := NewEnv(Options{Seed: 7, LossRate: 1.0})
	a := env.Spawn("a")
	b := env.Spawn("b")
	delivered := false
	_ = b.Listen(vri.PortQuery, func(vri.Addr, []byte) { delivered = true })
	nacked := false
	a.Send("b", vri.PortQuery, []byte("x"), func(ok bool) { nacked = !ok })
	env.Run(10 * time.Second)
	if delivered {
		t.Error("message delivered despite 100% loss")
	}
	if !nacked {
		t.Error("sender not notified of loss")
	}
}

func TestDuplicateListenFails(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	a := env.Spawn("a")
	if err := a.Listen(vri.PortQuery, func(vri.Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Listen(vri.PortQuery, func(vri.Addr, []byte) {}); err == nil {
		t.Fatal("second Listen on same port should fail")
	}
	a.Release(vri.PortQuery)
	if err := a.Listen(vri.PortQuery, func(vri.Addr, []byte) {}); err != nil {
		t.Fatalf("Listen after Release: %v", err)
	}
}

func TestDuplicateSpawnPanics(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.Spawn("a")
	defer func() {
		if recover() == nil {
			t.Error("duplicate Spawn did not panic")
		}
	}()
	env.Spawn("a")
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() string {
		env := NewEnv(Options{Seed: 42})
		nodes := env.SpawnN("n", 10)
		var log string
		for _, n := range nodes {
			n := n
			_ = n.Listen(vri.PortQuery, func(src vri.Addr, p []byte) {
				log += fmt.Sprintf("%s<-%s:%s@%d;", n.Addr(), src, p, n.Now().UnixNano())
			})
		}
		for i, n := range nodes {
			dst := nodes[(i+3)%len(nodes)].Addr()
			n.Send(dst, vri.PortQuery, []byte(fmt.Sprintf("m%d", i)), nil)
		}
		env.Run(time.Second)
		return log
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs differ:\n%s\n%s", a, b)
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	start := env.Now()
	env.Run(3 * time.Second)
	if got := env.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("clock advanced %v, want 3s", got)
	}
}

func TestStreamConnectAndData(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	a := env.Spawn("a")
	b := env.Spawn("b")

	srv := &recordingStreamHandler{}
	if err := b.ListenStream(vri.PortClient, srv); err != nil {
		t.Fatal(err)
	}
	cli := &recordingStreamHandler{}
	conn, err := a.Connect("b", vri.PortClient, cli)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("ping"))
	env.Run(time.Second)
	if len(srv.conns) != 1 {
		t.Fatalf("server saw %d conns, want 1", len(srv.conns))
	}
	if got := string(srv.dataJoined()); got != "ping" {
		t.Fatalf("server data = %q, want ping", got)
	}
	srv.conns[0].Write([]byte("pong"))
	env.Run(time.Second)
	if got := string(cli.dataJoined()); got != "pong" {
		t.Fatalf("client data = %q, want pong", got)
	}
}

func TestStreamOrderPreserved(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	a := env.Spawn("a")
	b := env.Spawn("b")
	srv := &recordingStreamHandler{}
	_ = b.ListenStream(vri.PortClient, srv)
	conn, _ := a.Connect("b", vri.PortClient, srv)
	for i := 0; i < 10; i++ {
		conn.Write([]byte{byte('0' + i)})
	}
	env.Run(time.Second)
	if got := string(srv.dataJoined()); got != "0123456789" {
		t.Fatalf("stream data = %q, want 0123456789", got)
	}
}

func TestStreamConnectRefused(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	a := env.Spawn("a")
	env.Spawn("b")
	cli := &recordingStreamHandler{}
	if _, err := a.Connect("b", vri.PortClient, cli); err != nil {
		t.Fatal(err)
	}
	env.Run(time.Second)
	if len(cli.errs) != 1 {
		t.Fatalf("client saw %d errors, want 1 (refused)", len(cli.errs))
	}
}

func TestStreamPeerFailureSurfacesError(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	a := env.Spawn("a")
	b := env.Spawn("b")
	srv := &recordingStreamHandler{}
	_ = b.ListenStream(vri.PortClient, srv)
	cli := &recordingStreamHandler{}
	_, _ = a.Connect("b", vri.PortClient, cli)
	env.Run(time.Second)
	env.Fail("b")
	env.Run(time.Second)
	if len(cli.errs) == 0 {
		t.Fatal("client did not observe peer failure")
	}
}

type recordingStreamHandler struct {
	conns []vri.Conn
	data  [][]byte
	errs  []error
}

func (r *recordingStreamHandler) HandleConn(c vri.Conn)             { r.conns = append(r.conns, c) }
func (r *recordingStreamHandler) HandleData(_ vri.Conn, d []byte)   { r.data = append(r.data, d) }
func (r *recordingStreamHandler) HandleError(_ vri.Conn, err error) { r.errs = append(r.errs, err) }
func (r *recordingStreamHandler) dataJoined() []byte {
	var out []byte
	for _, d := range r.data {
		out = append(out, d...)
	}
	return out
}
