package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pier/internal/vri"
)

// shardedOutcome is the observable fingerprint of one storm run: every
// per-node receive log (message order as seen by that node), plus the
// aggregate counters. Two runs are "the same" iff these match exactly.
type shardedOutcome struct {
	PerNode []string
	Events  uint64
	Msgs    uint64
	Bytes   uint64
	Acked   int
	Nacked  int
}

// runStorm drives a deterministic all-to-all message storm with timers,
// self-sends, node failure, and respawn, under the given worker count.
func runStorm(workers, nodes int, seed int64) shardedOutcome {
	env := NewEnv(Options{Seed: seed})
	env.SetWorkers(workers)
	ns := env.SpawnN("n", nodes)
	logs := make([]string, nodes)
	var acked, nacked int
	ackCh := make([]int, nodes) // per-sender ack tallies (single-writer per slot)
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
			dst := ns[(i*7+round*13)%nodes]
			n.Send(dst.Addr(), vri.PortQuery, []byte(fmt.Sprintf("m%d-%d", i, round)), func(ok bool) {
				if ok {
					ackCh[i]++
				} else {
					nackCh[i]++
				}
			})
			if round < 20 {
				n.Schedule(50*time.Millisecond+time.Duration(i)*time.Microsecond, tick)
			}
		}
		n.Schedule(time.Duration(i+1)*time.Millisecond, tick)
	}
	env.Run(300 * time.Millisecond)
	// Kill a node mid-run and spawn a replacement from driver context.
	env.Fail(ns[1].Addr())
	r := env.Spawn("respawn-1")
	_ = r.Listen(vri.PortQuery, func(src vri.Addr, p []byte) {})
	r.Schedule(10*time.Millisecond, func() {
		r.Send(ns[0].Addr(), vri.PortQuery, []byte("hello-from-respawn"), nil)
	})
	env.Run(2 * time.Second)
	env.Drain()
	for _, a := range ackCh {
		acked += a
	}
	for _, a := range nackCh {
		nacked += a
	}
	ev, msgs, bytes := env.Stats()
	return shardedOutcome{PerNode: logs, Events: ev, Msgs: msgs, Bytes: bytes, Acked: acked, Nacked: nacked}
}

// TestShardedDeterminismAcrossWorkerCounts is the core guarantee of the
// scheduler: the same seed produces bit-identical results no matter how
// many workers execute the windows.
func TestShardedDeterminismAcrossWorkerCounts(t *testing.T) {
	base := runStorm(1, 24, 42)
	for _, k := range []int{2, 3, 8} {
		got := runStorm(k, 24, 42)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d diverged from workers=1:\nbase=%+v\ngot=%+v", k, base, got)
		}
	}
}

// TestShardedMatchesSequential checks that the default (workers=0, one
// inline shard) reproduces a four-worker run exactly: cross-node
// interactions all travel through latency >= the lookahead, so
// window-batched dispatch observes the same per-node event sequences.
func TestShardedMatchesSequential(t *testing.T) {
	one := runStorm(0, 24, 42)
	four := runStorm(4, 24, 42)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("workers=4 diverged from workers=0:\nworkers=0: %+v\nworkers=4: %+v", one, four)
	}
}

// TestShardedMatchesSequentialOnTies pins the tie-break: same-instant
// events from different sources dispatch by source id, not by insertion
// order, at any worker count, even when the insertion order is reversed.
func TestShardedMatchesSequentialOnTies(t *testing.T) {
	// A fixed-latency topology makes the two arrivals truly simultaneous;
	// the higher-id sender schedules first, so insertion order and id
	// order disagree.
	mk := func(workers int) string {
		env := NewEnv(Options{
			Seed:     11,
			Topology: NewStar(StarConfig{MinAccess: 10 * time.Millisecond, MaxAccess: 10 * time.Millisecond}),
		})
		env.SetWorkers(workers)
		ns := env.SpawnN("n", 3)
		log := ""
		_ = ns[0].Listen(vri.PortQuery, func(src vri.Addr, _ []byte) { log += string(src) + ";" })
		ns[2].Schedule(5*time.Millisecond, func() { ns[2].Send(ns[0].Addr(), vri.PortQuery, []byte("x"), nil) })
		ns[1].Schedule(5*time.Millisecond, func() { ns[1].Send(ns[0].Addr(), vri.PortQuery, []byte("x"), nil) })
		env.Run(time.Second)
		return log
	}
	one, four := mk(0), mk(4)
	if one != four {
		t.Fatalf("same-instant arrivals ordered differently: workers=0 %q, workers=4 %q", one, four)
	}
	if one != "n-1;n-2;" {
		t.Fatalf("tie order %q, want source-id order n-1;n-2;", one)
	}
}

// TestShardedRepeatedRunsIdentical guards seeded determinism of a single
// configuration across repeated executions (fresh goroutines each time).
func TestShardedRepeatedRunsIdentical(t *testing.T) {
	a := runStorm(8, 16, 7)
	b := runStorm(8, 16, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated sharded runs differ:\n%+v\n%+v", a, b)
	}
}

// TestShardedStreamsWork exercises the TCP-style stream path (handshake,
// data, peer failure) across shards.
func TestShardedStreamsWork(t *testing.T) {
	env := NewEnv(Options{Seed: 3})
	env.SetWorkers(4)
	ns := env.SpawnN("s", 8)
	srv := &recordingStreamHandler{}
	if err := ns[5].ListenStream(vri.PortClient, srv); err != nil {
		t.Fatal(err)
	}
	cli := &recordingStreamHandler{}
	conn, err := ns[0].Connect(ns[5].Addr(), vri.PortClient, cli)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		conn.Write([]byte{byte('a' + i)})
	}
	env.Run(2 * time.Second)
	if got := string(srv.dataJoined()); got != "abcde" {
		t.Fatalf("server got %q, want abcde (ordered)", got)
	}
	if len(srv.conns) != 1 {
		t.Fatalf("server saw %d conns, want 1", len(srv.conns))
	}
	srv.conns[0].Write([]byte("back"))
	env.Run(time.Second)
	if got := string(cli.dataJoined()); got != "back" {
		t.Fatalf("client got %q, want back", got)
	}
	env.Fail(ns[5].Addr())
	env.Run(time.Second)
	if len(cli.errs) == 0 {
		t.Fatal("client did not observe peer failure")
	}
}

// TestShardedRunUntilClock checks RunUntil clock semantics on worker
// shards: the clock lands exactly on the deadline.
func TestShardedRunUntilClock(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.SetWorkers(2)
	n := env.Spawn("a")
	fired := time.Time{}
	n.Schedule(time.Second, func() { fired = n.Now() })
	start := env.Now()
	env.Run(3 * time.Second)
	if got := env.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("clock advanced %v, want 3s", got)
	}
	if fired.Sub(start) != time.Second {
		t.Fatalf("event fired at +%v, want +1s", fired.Sub(start))
	}
}

// TestShardedEventAtDeadlineRuns checks that RunUntil dispatches events
// scheduled exactly at the deadline.
func TestShardedEventAtDeadlineRuns(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.SetWorkers(2)
	n := env.Spawn("a")
	fired := false
	n.Schedule(time.Second, func() { fired = true })
	env.Run(time.Second)
	if !fired {
		t.Fatal("event at the RunUntil deadline did not fire")
	}
}

// TestShardedTimerCancel checks cancellation from node and driver
// context on worker shards.
func TestShardedTimerCancel(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.SetWorkers(2)
	n := env.Spawn("a")
	fired := false
	tm := n.Schedule(50*time.Millisecond, func() { fired = true })
	tm.Cancel()
	env.Run(time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

// TestShardedGuardsDriverOnlyCalls verifies that driver-only operations
// panic with a clear message when invoked from node handlers while
// workers hold the window.
func TestShardedGuardsDriverOnlyCalls(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.SetWorkers(1) // inline windows: the panic propagates to the test
	n := env.Spawn("a")
	var recovered any
	n.Schedule(time.Millisecond, func() {
		defer func() { recovered = recover() }()
		env.Schedule(time.Second, func() {})
	})
	env.Run(time.Second)
	if recovered == nil {
		t.Fatal("Env.Schedule from a node event did not panic")
	}
}

// TestSetWorkersMigratesPendingEvents schedules before changing the
// worker count up and back down and checks nothing is lost.
func TestSetWorkersMigratesPendingEvents(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	n := env.Spawn("a")
	count := 0
	for i := 0; i < 5; i++ {
		n.Schedule(time.Duration(i+1)*10*time.Millisecond, func() { count++ })
	}
	env.Schedule(25*time.Millisecond, func() { count++ })
	env.SetWorkers(3)
	env.Run(40 * time.Millisecond)
	env.SetWorkers(0)
	env.Drain()
	if count != 6 {
		t.Fatalf("dispatched %d events across worker-count changes, want 6", count)
	}
}

// TestSetWorkersRequiresLookahead documents the safety requirement: the
// windowed scheduler needs a topology with a positive minimum latency
// and an ack timeout no shorter than it, at any worker count, so NewEnv
// refuses either before a worker count is chosen.
func TestSetWorkersRequiresLookahead(t *testing.T) {
	for _, opts := range []Options{
		{Topology: zeroLatencyTopology{}},
		{AckTimeout: time.Millisecond}, // the default Star's MinLatency is 40ms
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewEnv accepted %+v", opts)
				}
			}()
			NewEnv(opts)
		}()
	}
}

type zeroLatencyTopology struct{}

func (zeroLatencyTopology) Register(vri.Addr)                   {}
func (zeroLatencyTopology) Latency(a, b vri.Addr) time.Duration { return 0 }
func (zeroLatencyTopology) MinLatency() time.Duration           { return 0 }

// TestShardedSelfSendWithinWindow checks a node sending to itself (zero
// latency) still delivers, in order, within a window.
func TestShardedSelfSendWithinWindow(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.SetWorkers(2)
	n := env.Spawn("a")
	var got []string
	_ = n.Listen(vri.PortQuery, func(_ vri.Addr, p []byte) { got = append(got, string(p)) })
	n.Schedule(time.Millisecond, func() {
		n.Send(n.Addr(), vri.PortQuery, []byte("one"), nil)
		n.Send(n.Addr(), vri.PortQuery, []byte("two"), nil)
	})
	env.Run(time.Second)
	if fmt.Sprint(got) != "[one two]" {
		t.Fatalf("self-sends got %v, want [one two]", got)
	}
}

// TestShardedTrafficAccounting checks per-node counters on worker shards
// (single-writer fields, pre-created records).
func TestShardedTrafficAccounting(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.SetWorkers(3)
	ns := env.SpawnN("t", 6)
	for i, n := range ns {
		i, n := i, n
		_ = n.Listen(vri.PortQuery, func(vri.Addr, []byte) {})
		n.Schedule(time.Millisecond, func() {
			n.Send(ns[(i+1)%len(ns)].Addr(), vri.PortQuery, make([]byte, 100), nil)
		})
	}
	env.Drain()
	for i, n := range ns {
		tr := env.Traffic(n.Addr())
		if tr.MsgsOut != 1 || tr.MsgsIn != 1 || tr.BytesOut != 100 || tr.BytesIn != 100 {
			t.Fatalf("node %d traffic = %+v, want 1 msg / 100 bytes each way", i, tr)
		}
	}
}
