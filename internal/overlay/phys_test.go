package overlay

import (
	"testing"
	"time"

	"pier/internal/phys"
	"pier/internal/vri"
)

// onLoop runs fn on rt's scheduler goroutine, where the overlay's state
// lives, and waits for it.
func onLoop(rt vri.Runtime, fn func()) {
	done := make(chan struct{})
	rt.Schedule(0, func() { fn(); close(done) })
	<-done
}

// TestPhysJoinConvergesWithoutStabilize: the overlay over the real runtime,
// three nodes on loopback with every maintenance ticker a minute away.
// Nodes 1 and 2 join through node 0, and within two seconds of wall clock
// the successors form one cycle in identifier order and each predecessor
// is the node whose successor it is. Ring state is read on each node's
// scheduler goroutine.
func TestPhysJoinConvergesWithoutStabilize(t *testing.T) {
	cfg := Config{Router: RouterConfig{StabilizeInterval: time.Minute, FixFingerInterval: time.Minute, CheckPredInterval: time.Minute}}
	var rts []*phys.Runtime
	var dhts []*DHT
	var addrs []vri.Addr
	t.Cleanup(func() {
		for i, d := range dhts {
			onLoop(rts[i], d.Stop)
		}
		for _, rt := range rts {
			rt.Close()
		}
	})
	for i := 0; i < 3; i++ {
		rt, err := phys.New(phys.Config{Bind: "127.0.0.1:0", Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
		d := New(rt, cfg)
		onLoop(rt, func() { err = d.Start() })
		if err != nil {
			t.Fatal(err)
		}
		dhts, addrs = append(dhts, d), append(addrs, d.Addr())
	}

	deadline := time.Now().Add(2 * time.Second)
	for i := 1; i < 3; i++ {
		joined := make(chan error, 1)
		d := dhts[i]
		rts[i].Schedule(0, func() { d.Join(addrs[0], func(err error) { joined <- err }) })
		select {
		case err := <-joined:
			if err != nil {
				t.Fatalf("join %s: %v", addrs[i], err)
			}
		case <-time.After(time.Until(deadline)):
			t.Fatalf("join %s: no answer within two seconds", addrs[i])
		}
	}
	read := func(i int) (succ, pred vri.Addr) {
		onLoop(rts[i], func() { succ, pred = dhts[i].Successor(), dhts[i].Predecessor() })
		return succ, pred
	}
	for {
		msg := ringPointers(addrs, read)
		if msg == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("two seconds after the joins began: %s", msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
