package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pier/internal/vri"
)

// fixedStar builds a star topology with identical access latency on
// every node, so message timing in these tests is exact: any two
// distinct nodes are 2*access apart.
func fixedStar(access time.Duration) *Star {
	return NewStar(StarConfig{MinAccess: access, MaxAccess: access})
}

// TestFailInFlightAckNotified is the regression test for the ack-drop
// bug: when Env.Fail kills a node while a delivery is already in flight
// to it, the queued evDeliver is discarded at pop — and before the fix
// its ack callback was never invoked, so the sender waited forever,
// violating the reliable-or-notified contract that the send-time path
// honors for destinations that are dead at Send. The nack must fire
// exactly once, report failure, and arrive AckTimeout after the
// message's would-be arrival, inline and on worker shards.
func TestFailInFlightAckNotified(t *testing.T) {
	const (
		access  = 50 * time.Millisecond // latency a->b = 100ms exactly
		ackWait = 500 * time.Millisecond
	)
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			env := NewEnv(Options{Seed: 1, Topology: fixedStar(access), AckTimeout: ackWait})
			env.SetWorkers(workers)
			a := env.Spawn("a")
			b := env.Spawn("b")
			_ = b.Listen(vri.PortQuery, func(vri.Addr, []byte) {})

			start := env.Now()
			var acks []bool
			var ackAt time.Time
			a.Send("b", vri.PortQuery, []byte("in-flight"), func(ok bool) {
				acks = append(acks, ok)
				ackAt = a.Now()
			})
			// The message arrives at start+100ms; kill the destination
			// halfway through the flight, from a driver barrier.
			env.Run(50 * time.Millisecond)
			env.Fail("b")
			env.Run(5 * time.Second)

			if len(acks) != 1 {
				t.Fatalf("ack callback invoked %d times, want exactly once (in-flight failure must nack the sender)", len(acks))
			}
			if acks[0] {
				t.Fatal("in-flight delivery to a failed node acked ok=true")
			}
			want := start.Add(100*time.Millisecond + ackWait)
			if !ackAt.Equal(want) {
				t.Errorf("nack fired at +%v, want +%v (would-be arrival + AckTimeout)",
					ackAt.Sub(start), want.Sub(start))
			}
		})
	}
}

// TestFailInFlightAckNotifiedSequentialDeadline covers a run that ends
// between the failure and the would-be arrival: the dead-node delivery
// stays pending past the deadline, is discarded by a later window, and
// must still produce the nack at arrival + AckTimeout, not early.
func TestFailInFlightAckNotifiedSequentialDeadline(t *testing.T) {
	env := NewEnv(Options{Seed: 1, Topology: fixedStar(50 * time.Millisecond), AckTimeout: 500 * time.Millisecond})
	a := env.Spawn("a")
	env.Spawn("b")
	nacked := false
	a.Send("b", vri.PortQuery, []byte("x"), func(ok bool) { nacked = !ok })
	env.Run(20 * time.Millisecond)
	env.Fail("b")
	// This run ends before the would-be arrival (100ms), with the
	// in-flight event for the dead node at the head of its shard. The
	// nack must be scheduled for arrival+AckTimeout, not fire early.
	env.Run(50 * time.Millisecond)
	if nacked {
		t.Fatal("nack fired before arrival + AckTimeout elapsed")
	}
	env.Run(5 * time.Second)
	if !nacked {
		t.Fatal("sender never notified of in-flight failure")
	}
}

// failureStorm drives a message storm with acks while the driver keeps
// killing nodes mid-flight, then drains and returns the observable
// outcome. Used both for the loss-determinism check and the pool
// integrity check.
func failureStorm(workers int, lossRate float64, seed int64) (shardedOutcome, *Env) {
	env := NewEnv(Options{Seed: seed, LossRate: lossRate})
	env.SetWorkers(workers)
	const nodes = 20
	ns := env.SpawnN("n", nodes)
	logs := make([]string, nodes)
	ackCh := make([]int, nodes)
	nackCh := make([]int, nodes)
	for i, n := range ns {
		i, n := i, n
		_ = n.Listen(vri.PortQuery, func(src vri.Addr, p []byte) {
			logs[i] += fmt.Sprintf("%s:%s@%d;", src, p, n.Now().UnixNano())
		})
		var tick func()
		round := 0
		tick = func() {
			round++
			dst := ns[(i*5+round*11)%nodes]
			n.Send(dst.Addr(), vri.PortQuery, []byte(fmt.Sprintf("m%d-%d", i, round)), func(ok bool) {
				if ok {
					ackCh[i]++
				} else {
					nackCh[i]++
				}
			})
			if round < 15 {
				n.Schedule(40*time.Millisecond+time.Duration(i)*time.Microsecond, tick)
			}
		}
		n.Schedule(time.Duration(i+1)*time.Millisecond, tick)
	}
	// Kill a few nodes while their inbound traffic is in flight.
	start := env.Now()
	for k, at := range []time.Duration{70 * time.Millisecond, 130 * time.Millisecond, 210 * time.Millisecond} {
		env.Run(at - env.Now().Sub(start))
		env.Fail(ns[3+k*4].Addr())
	}
	env.Run(2 * time.Second)
	env.Drain()
	var acked, nacked int
	for i := range ackCh {
		acked += ackCh[i]
		nacked += nackCh[i]
	}
	ev, msgs, bytes := env.Stats()
	return shardedOutcome{PerNode: logs, Events: ev, Msgs: msgs, Bytes: bytes, Acked: acked, Nacked: nacked}, env
}

// TestShardedLossDeterminism is the regression test for the
// loss-determinism bug: deliver once drew message loss from the
// environment rng on one scheduler and from the sender's rng on
// another, so any LossRate > 0 run violated the workers=0 ≡ workers=K
// contract. Every draw now comes from the sender's stream.
func TestShardedLossDeterminism(t *testing.T) {
	base, _ := failureStorm(0, 0.3, 99)
	for _, k := range []int{1, 4, 8} {
		got, _ := failureStorm(k, 0.3, 99)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("LossRate>0 run diverged at workers=%d:\nworkers=0: %+v\nworkers=%d: %+v", k, base, k, got)
		}
	}
	if base.Nacked == 0 || base.Acked == 0 {
		t.Fatalf("degenerate storm (acked=%d nacked=%d): loss or failures not exercised", base.Acked, base.Nacked)
	}
}

// poolIntegrity walks one pool's free structures and records every event
// pointer and payload-buffer data pointer into the shared sets, failing
// the test on any duplicate — a duplicate event means a double putEvent
// (the same struct would be handed out twice), a duplicate buffer means
// a payload recycled into two owners.
func poolIntegrity(t *testing.T, label string, p *pool, seenEv map[*event]string, seenBuf map[string]string) {
	t.Helper()
	count := 0
	for ev := p.freeEv; ev != nil; ev = ev.next {
		if prev, dup := seenEv[ev]; dup {
			t.Fatalf("event %p recycled into both %s and %s (double putEvent or free-list cycle)", ev, prev, label)
		}
		seenEv[ev] = label
		if ev.payload != nil || ev.fn != nil || ev.ack != nil || ev.node != nil || ev.from != nil {
			t.Fatalf("recycled event in %s retains references: %+v", label, ev)
		}
		if count++; count > 1<<20 {
			t.Fatalf("free list in %s does not terminate (cycle)", label)
		}
	}
	for _, b := range p.bufs {
		if cap(b) == 0 {
			continue
		}
		key := fmt.Sprintf("%p", b[:1])
		if prev, dup := seenBuf[key]; dup {
			t.Fatalf("payload buffer %s recycled into both %s and %s (double recycle)", key, prev, label)
		}
		seenBuf[key] = label
	}
}

// TestFailInFlightPoolUncorrupted locks in the event/payload lifecycle
// across node failure: discarding in-flight events for dead nodes (and
// scheduling their failure nacks) must recycle every pooled event and
// payload buffer exactly once, inline and on worker shards.
func TestFailInFlightPoolUncorrupted(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, env := failureStorm(workers, 0.2, 7)
			seenEv := make(map[*event]string)
			seenBuf := make(map[string]string)
			for _, sh := range env.par.shards {
				poolIntegrity(t, fmt.Sprintf("shard%d", sh.id), &sh.pool, seenEv, seenBuf)
			}
			if len(seenEv) == 0 {
				t.Fatal("no recycled events found; storm did not exercise the pool")
			}
		})
	}
}
