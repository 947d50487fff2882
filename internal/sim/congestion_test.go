package sim

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/vri"
)

var t0 = time.Unix(0, 0).UTC()

func TestNoCongestionDepartsImmediately(t *testing.T) {
	var m NoCongestion
	if got := m.Departure(t0, "a", "b", 1_000_000); !got.Equal(t0) {
		t.Errorf("departure = %v, want %v", got, t0)
	}
}

func TestFIFOQueueSerializesBacklog(t *testing.T) {
	m := &FIFOQueue{BytesPerSecond: 1000}
	// Two 500-byte messages issued at the same instant: the second waits
	// for the first.
	d1 := m.Departure(t0, "a", "b", 500)
	d2 := m.Departure(t0, "a", "c", 500)
	if want := t0.Add(500 * time.Millisecond); !d1.Equal(want) {
		t.Errorf("first departure = %v, want %v", d1, want)
	}
	if want := t0.Add(time.Second); !d2.Equal(want) {
		t.Errorf("second departure = %v, want %v", d2, want)
	}
}

func TestFIFOQueueIndependentSources(t *testing.T) {
	m := &FIFOQueue{BytesPerSecond: 1000}
	m.Departure(t0, "a", "b", 100_000) // big backlog on a
	d := m.Departure(t0, "x", "b", 500)
	if want := t0.Add(500 * time.Millisecond); !d.Equal(want) {
		t.Errorf("other source delayed by a's backlog: %v, want %v", d, want)
	}
}

func TestFIFOQueueDrainsAfterIdle(t *testing.T) {
	m := &FIFOQueue{BytesPerSecond: 1000}
	m.Departure(t0, "a", "b", 500)
	later := t0.Add(10 * time.Second)
	d := m.Departure(later, "a", "b", 500)
	if want := later.Add(500 * time.Millisecond); !d.Equal(want) {
		t.Errorf("departure after idle = %v, want %v", d, want)
	}
}

func TestFairQueueSharesBandwidthAcrossFlows(t *testing.T) {
	m := &FairQueue{BytesPerSecond: 1000}
	// Flow a->b builds a backlog; flow a->c then sends a small message.
	m.Departure(t0, "a", "b", 10_000) // 10s of backlog on flow b
	dSmall := m.Departure(t0, "a", "c", 500)
	// Under FIFO this would wait 10s; under fair queuing the light flow
	// pays only its fair-share transmission time (500B at 500 B/s = 1s).
	if dSmall.Sub(t0) > 2*time.Second {
		t.Errorf("light flow delayed %v; fair queuing should isolate it from the bulk flow", dSmall.Sub(t0))
	}
}

func TestFairQueueSingleFlowGetsFullBandwidth(t *testing.T) {
	m := &FairQueue{BytesPerSecond: 1000}
	d := m.Departure(t0, "a", "b", 1000)
	if want := t0.Add(time.Second); !d.Equal(want) {
		t.Errorf("sole flow departure = %v, want %v", d, want)
	}
}

func TestFIFOQueuePrunesDrainedLinks(t *testing.T) {
	m := &FIFOQueue{BytesPerSecond: 1000}
	for i := 0; i < 500; i++ {
		m.Departure(t0, vri.Addr(fmt.Sprintf("src-%d", i)), "dst", 100)
	}
	if got := m.backlogSize(); got != 500 {
		t.Fatalf("backlog = %d links, want 500", got)
	}
	// Every link drained after 100ms; a sweep at t0+1s must drop them all.
	m.Prune(t0.Add(time.Second))
	if got := m.backlogSize(); got != 0 {
		t.Errorf("backlog after prune = %d links, want 0 (unbounded growth regression)", got)
	}
	// A link still busy past the sweep threshold survives, and its backlog
	// still delays the next message.
	m.Departure(t0.Add(time.Second), "busy", "dst", 5000) // drains at t+6s
	m.Prune(t0.Add(2 * time.Second))
	if got := m.backlogSize(); got != 1 {
		t.Fatalf("busy link pruned: backlog = %d, want 1", got)
	}
	d := m.Departure(t0.Add(2*time.Second), "busy", "dst", 1000)
	if want := t0.Add(7 * time.Second); !d.Equal(want) {
		t.Errorf("departure after partial prune = %v, want %v (backlog must survive)", d, want)
	}
}

func TestFairQueuePrunesDrainedSources(t *testing.T) {
	m := &FairQueue{BytesPerSecond: 1000}
	for i := 0; i < 500; i++ {
		m.Departure(t0, vri.Addr(fmt.Sprintf("src-%d", i)), "dst", 100)
	}
	if got := m.backlogSize(); got != 500 {
		t.Fatalf("backlog = %d sources, want 500", got)
	}
	m.Prune(t0.Add(time.Second))
	if got := m.backlogSize(); got != 0 {
		t.Errorf("backlog after prune = %d sources, want 0", got)
	}
	m.Departure(t0.Add(time.Second), "busy", "dst", 5000)
	m.Prune(t0.Add(2 * time.Second))
	if got := m.backlogSize(); got != 1 {
		t.Errorf("busy source pruned: backlog = %d, want 1", got)
	}
}

// TestEnvPrunesCongestionState drives a real simulation with many
// one-shot senders at one and four worker shards and asserts the
// environment's periodic sweeps keep the FIFO model's per-link map from
// retaining every source that ever transmitted.
func TestEnvPrunesCongestionState(t *testing.T) {
	for _, workers := range []int{0, 4} {
		m := &FIFOQueue{}
		env := NewEnv(Options{Seed: 5, Congestion: m})
		env.SetWorkers(workers)
		nodes := env.SpawnN("n", 64)
		sink := nodes[0]
		_ = sink.Listen(vri.PortQuery, func(vri.Addr, []byte) {})
		for _, n := range nodes[1:] {
			n := n
			n.Schedule(time.Duration(n.id)*time.Millisecond, func() {
				n.Send(sink.Addr(), vri.PortQuery, []byte("one-shot"), nil)
			})
		}
		env.Run(time.Minute)
		if got := m.backlogSize(); got != 0 {
			t.Errorf("workers=%d: %d drained links survived the run-end sweep", workers, got)
		}
	}
}

// TestFIFOQueueDeterministicAcrossWorkerCounts locks in that sharding
// the congestion state does not change simulation results: a message
// storm through a congested link yields bit-identical traffic stats on
// one inline shard and on eight worker shards.
func TestFIFOQueueDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (uint64, uint64, time.Time) {
		env := NewEnv(Options{Seed: 11, Congestion: &FIFOQueue{}})
		env.SetWorkers(workers)
		nodes := env.SpawnN("n", 32)
		// Per-node arrival clocks (sharded-safe: each slot is written only
		// by its owner's events); the driver folds them after the run.
		lastArrival := make([]time.Time, len(nodes))
		for i, n := range nodes {
			i, n := i, n
			_ = n.Listen(vri.PortQuery, func(vri.Addr, []byte) {
				if at := n.Now(); at.After(lastArrival[i]) {
					lastArrival[i] = at
				}
			})
			var tick func()
			sends := 0
			tick = func() {
				n.Send(nodes[(i+7)%len(nodes)].Addr(), vri.PortQuery, make([]byte, 600), nil)
				if sends++; sends < 40 {
					n.Schedule(50*time.Millisecond, tick)
				}
			}
			n.Schedule(time.Duration(i)*time.Millisecond, tick)
		}
		// Split the run with a bulk transfer whose link backlog straddles
		// the run boundary (50 KB at the default 125 KB/s frees the link
		// ~0.4s past the deadline), then issue driver-context sends from
		// the same node between the runs. The run-exit congestion sweep
		// must not prune that still-busy link: a between-run Departure
		// carries now = env.Now() (= the deadline), which is earlier than
		// the minimum pending event time at exit — pruning by the latter
		// would forget backlog the link still holds, and the bulk node's
		// next departure would come too early.
		bulk := nodes[1]
		bulk.Schedule(10*time.Second-5*time.Millisecond, func() {
			bulk.Send(nodes[9].Addr(), vri.PortQuery, make([]byte, 50_000), nil)
		})
		env.Run(10 * time.Second)
		for _, n := range nodes[:8] {
			n.Send(nodes[9].Addr(), vri.PortQuery, make([]byte, 900), nil)
		}
		env.Run(20 * time.Second)
		var last time.Time
		for _, at := range lastArrival {
			if at.After(last) {
				last = at
			}
		}
		_, msgs, bytes := env.Stats()
		return msgs, bytes, last
	}
	m0, b0, a0 := run(0)
	m8, b8, a8 := run(8)
	if m0 != m8 || b0 != b8 || !a0.Equal(a8) {
		t.Fatalf("workers=0 vs workers=8 diverged: msgs %d/%d bytes %d/%d last-arrival %v/%v",
			m0, m8, b0, b8, a0, a8)
	}
	if m0 == 0 {
		t.Fatal("degenerate run: no messages")
	}
}

func TestFairQueueBulkFlowSlowerThanFIFOWhenShared(t *testing.T) {
	fifo := &FIFOQueue{BytesPerSecond: 1000}
	fair := &FairQueue{BytesPerSecond: 1000}
	// Start a light competing flow on both, then a bulk message.
	fifo.Departure(t0, "a", "c", 100)
	fair.Departure(t0, "a", "c", 100)
	dFIFO := fifo.Departure(t0, "a", "b", 5000)
	dFair := fair.Departure(t0, "a", "b", 5000)
	if !dFair.After(dFIFO) {
		t.Errorf("bulk under fair queuing (%v) should depart later than under FIFO (%v) while sharing", dFair, dFIFO)
	}
}
