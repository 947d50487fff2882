package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"pier/internal/vri"
)

// wantDispatchDigest is the digest of dispatchOrderRun's stream, generated
// while virtual time inside the package was still a time.Time and the
// event heap compared event pointers. Never regenerate it: a change that
// moves it dispatches some event at a different instant or in a different
// order.
const wantDispatchDigest uint64 = 0x92ecfa75c46fe050

// dispatchKey is an event's tie-break key: its scheduling source (0 for
// the environment) and that source's sequence number.
type dispatchKey struct{ src, seq uint64 }

const (
	goldenNodes   = 64
	goldenVictims = 4 // the last goldenVictims nodes fail, one every 600 ms
	goldenMaxSeq  = 1 << 12
	goldenPort    = vri.Port(1)
)

// dispatchOrderRun drives 64 nodes through a seeded stream of timers,
// cancels, acked and ackless sends (some lost, some to dead nodes) and
// node failures, and hashes (node id, virtual ns, src, seq) of every
// dispatched event into one FNV-64 digest. Nodes are hashed in id order
// (the environment first), each node's events in its dispatch order,
// which is the order every worker count must reproduce.
//
// The test learns each event's key from the outside: a node's srcSeq
// right after it schedules, the sender's next srcSeq carried in a
// payload, and the receiver's next srcSeq for the delivery ack it stamps
// when its handler returns. A delivery that dies in flight with its
// destination is nacked from the dead node's own stream in its pop order,
// which the outside cannot name, so sends to a live victim go unacked;
// sends to a dead one are acked and nacked at send time.
func dispatchOrderRun(workers int) (digest uint64, counts map[string]int) {
	env := NewEnv(Options{
		Seed:     42,
		Topology: NewTransitStub(TransitStubConfig{Seed: 3}),
		LossRate: 0.05,
	})
	env.SetWorkers(workers)
	nodes := env.SpawnN("n", goldenNodes)
	victim := func(n *Node) bool { return n.id > goldenNodes-goldenVictims }

	// Index 0 is the environment, index i node id i; each entry is written
	// only by the context that owns that node.
	recs := make([][]uint64, goldenNodes+1)
	tally := make([][5]int, goldenNodes+1) // acked, nacked, cancelled, to-dead, delivered
	ackKeys := make([][]dispatchKey, goldenNodes+1)
	for i := range ackKeys {
		ackKeys[i] = make([]dispatchKey, goldenMaxSeq)
	}
	pending := make([]vri.Timer, goldenNodes+1)

	record := func(n *Node, k dispatchKey) {
		var id uint64
		at := env.Now()
		if n != nil {
			id, at = n.id, n.Now()
		}
		recs[id] = append(recs[id], id, uint64(at.UnixNano()), k.src, k.seq)
	}
	send := func(n *Node) {
		r := n.Rand()
		dst := nodes[r.Intn(goldenNodes)]
		if dst == n {
			return
		}
		acked := r.Intn(4) != 0
		if victim(dst) {
			acked = !dst.Alive()
			if acked {
				tally[n.id][3]++
			}
		}
		seq := n.srcSeq + 1 // the key deliver stamps on the delivery or its nack
		var payload [16]byte
		binary.LittleEndian.PutUint64(payload[:], n.id)
		binary.LittleEndian.PutUint64(payload[8:], seq)
		var ack vri.AckFunc
		if acked {
			ack = func(ok bool) {
				if ok {
					tally[n.id][0]++
					record(n, ackKeys[n.id][seq])
				} else {
					tally[n.id][1]++
					record(n, dispatchKey{n.id, seq})
				}
			}
		}
		n.Send(dst.Addr(), goldenPort, payload[:], ack)
	}
	oneShot := func(n *Node, d time.Duration) vri.Timer {
		k := new(dispatchKey)
		tm := n.Schedule(d, func() {
			record(n, *k)
			if n.Rand().Intn(2) == 0 {
				send(n)
			}
		})
		*k = dispatchKey{n.id, n.srcSeq}
		return tm
	}
	var tick func(n *Node, k *dispatchKey)
	scheduleTick := func(n *Node, d time.Duration) {
		k := new(dispatchKey)
		n.Schedule(d, func() { tick(n, k) })
		*k = dispatchKey{n.id, n.srcSeq}
	}
	tick = func(n *Node, k *dispatchKey) {
		record(n, *k)
		r := n.Rand()
		for i := r.Intn(3); i > 0; i-- {
			send(n)
		}
		if tm := pending[n.id]; tm != nil && r.Intn(3) == 0 {
			tm.Cancel() // inert when the one-shot already fired
			tally[n.id][2]++
		}
		pending[n.id] = oneShot(n, time.Duration(r.Intn(30))*time.Millisecond)
		scheduleTick(n, time.Duration(5*(1+r.Intn(6)))*time.Millisecond)
	}
	for _, n := range nodes {
		if err := n.Listen(goldenPort, func(_ vri.Addr, p []byte) {
			src, seq := binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])
			record(n, dispatchKey{src, seq})
			tally[n.id][4]++
			r := n.Rand()
			if r.Intn(4) == 0 {
				send(n)
			}
			if r.Intn(8) == 0 {
				oneShot(n, 0)
			}
			// runDeliver stamps the ack from this node's stream as soon as
			// the handler returns.
			ackKeys[src][seq] = dispatchKey{n.id, n.srcSeq + 1}
		}); err != nil {
			panic(err)
		}
	}
	for i := 0; i < goldenVictims; i++ {
		v := nodes[goldenNodes-1-i]
		k := new(dispatchKey)
		env.Schedule(time.Duration(i+1)*600*time.Millisecond, func() {
			record(nil, *k)
			env.Fail(v.Addr())
		})
		*k = dispatchKey{0, env.seq}
	}
	for _, n := range nodes {
		scheduleTick(n, time.Duration(n.Rand().Intn(10))*time.Millisecond)
	}
	env.Run(3 * time.Second)

	h := fnv.New64a()
	var b [8]byte
	for _, rs := range recs {
		for _, w := range rs {
			binary.LittleEndian.PutUint64(b[:], w)
			h.Write(b[:])
		}
	}
	counts = make(map[string]int)
	for _, c := range tally {
		counts["acked"] += c[0]
		counts["nacked"] += c[1]
		counts["cancelled"] += c[2]
		counts["to-dead"] += c[3]
		counts["delivered"] += c[4]
	}
	for _, rs := range recs {
		counts["dispatched"] += len(rs) / 4
	}
	return h.Sum64(), counts
}

// TestDispatchOrderGolden pins the scheduler's dispatch order, instants
// and keys to a digest fixed before virtual time became integer
// nanoseconds, under the sequential engine and the sharded one.
func TestDispatchOrderGolden(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, counts := dispatchOrderRun(workers)
			for _, c := range []string{"acked", "nacked", "cancelled", "to-dead", "delivered"} {
				if counts[c] == 0 {
					t.Fatalf("degenerate stream, no %s events: %v", c, counts)
				}
			}
			if got != wantDispatchDigest {
				t.Fatalf("dispatch digest %#x, want %#x (%v)", got, wantDispatchDigest, counts)
			}
		})
	}
}
