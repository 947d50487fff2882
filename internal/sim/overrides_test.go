package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pier/internal/vri"
)

// TestPartitionBlocksAndHeals: a partitioned send is dropped and nacked
// after AckTimeout (like loss), and delivery resumes after HealPartition.
func TestPartitionBlocksAndHeals(t *testing.T) {
	env := NewEnv(Options{Seed: 1, Topology: fixedStar(50 * time.Millisecond), AckTimeout: 300 * time.Millisecond})
	a := env.Spawn("a")
	b := env.Spawn("b")
	got := 0
	_ = b.Listen(vri.PortQuery, func(vri.Addr, []byte) { got++ })

	env.SetPartition([]vri.Addr{"a"}, []vri.Addr{"b"})
	if !env.Partitioned() {
		t.Fatal("Partitioned() false after SetPartition")
	}
	var acks []bool
	a.Send("b", vri.PortQuery, []byte("cut"), func(ok bool) { acks = append(acks, ok) })
	env.Run(2 * time.Second)
	if got != 0 {
		t.Fatal("message crossed an active partition")
	}
	if !reflect.DeepEqual(acks, []bool{false}) {
		t.Fatalf("partitioned send acks = %v, want one nack", acks)
	}

	env.HealPartition()
	if env.Partitioned() {
		t.Fatal("Partitioned() true after HealPartition")
	}
	a.Send("b", vri.PortQuery, []byte("healed"), func(ok bool) { acks = append(acks, ok) })
	env.Run(2 * time.Second)
	if got != 1 {
		t.Fatalf("delivered %d messages after heal, want 1", got)
	}
	if !reflect.DeepEqual(acks, []bool{false, true}) {
		t.Fatalf("acks = %v, want [false true]", acks)
	}
}

// TestPartitionImplicitComponent: addresses not listed in any group share
// one implicit component, so a single-group SetPartition isolates that
// group from everyone else while the rest keep talking.
func TestPartitionImplicitComponent(t *testing.T) {
	env := NewEnv(Options{Seed: 1, Topology: fixedStar(50 * time.Millisecond), AckTimeout: 300 * time.Millisecond})
	ns := env.SpawnN("n", 3)
	hits := make([]int, 3)
	for i, n := range ns {
		i := i
		_ = n.Listen(vri.PortQuery, func(vri.Addr, []byte) { hits[i]++ })
	}
	env.SetPartition([]vri.Addr{ns[0].Addr()})
	ns[1].Send(ns[2].Addr(), vri.PortQuery, []byte("ok"), nil)   // implicit <-> implicit
	ns[1].Send(ns[0].Addr(), vri.PortQuery, []byte("cut"), nil)  // implicit -> isolated
	ns[0].Send(ns[2].Addr(), vri.PortQuery, []byte("cut2"), nil) // isolated -> implicit
	env.Run(2 * time.Second)
	if want := []int{0, 0, 1}; !reflect.DeepEqual(hits, want) {
		t.Fatalf("hits = %v, want %v (only the unlisted pair may communicate)", hits, want)
	}
}

// TestLinkOverrideExtraLatency: extra latency is additive in both
// directions and on the delivery ack's return path.
func TestLinkOverrideExtraLatency(t *testing.T) {
	const access = 50 * time.Millisecond // base a<->b latency: 100ms
	env := NewEnv(Options{Seed: 1, Topology: fixedStar(access), AckTimeout: 5 * time.Second})
	a := env.Spawn("a")
	b := env.Spawn("b")
	var deliveredAt, ackedAt time.Time
	_ = b.Listen(vri.PortQuery, func(vri.Addr, []byte) { deliveredAt = b.Now() })
	env.SetLinkOverride("a", "b", 200*time.Millisecond, 0)

	start := env.Now()
	a.Send("b", vri.PortQuery, []byte("slow"), func(ok bool) {
		if !ok {
			t.Error("latency-only override nacked the send")
		}
		ackedAt = a.Now()
	})
	env.Run(2 * time.Second)
	if want := start.Add(300 * time.Millisecond); !deliveredAt.Equal(want) {
		t.Errorf("delivered at +%v, want +%v (base 100ms + override 200ms)", deliveredAt.Sub(start), want.Sub(start))
	}
	if want := start.Add(600 * time.Millisecond); !ackedAt.Equal(want) {
		t.Errorf("acked at +%v, want +%v (override applies to the ack path too)", ackedAt.Sub(start), want.Sub(start))
	}

	// Clearing the override restores base timing.
	env.SetLinkOverride("a", "b", 0, 0)
	start = env.Now()
	a.Send("b", vri.PortQuery, []byte("fast"), nil)
	env.Run(2 * time.Second)
	if want := start.Add(100 * time.Millisecond); !deliveredAt.Equal(want) {
		t.Errorf("after clear, delivered at +%v, want +%v", deliveredAt.Sub(start), want.Sub(start))
	}
}

// TestLinkOverrideLoss: loss=1 on one link drops every message there
// (with a nack) while other links are untouched.
func TestLinkOverrideLoss(t *testing.T) {
	env := NewEnv(Options{Seed: 1, Topology: fixedStar(50 * time.Millisecond), AckTimeout: 300 * time.Millisecond})
	ns := env.SpawnN("n", 3)
	hits := make([]int, 3)
	for i, n := range ns {
		i := i
		_ = n.Listen(vri.PortQuery, func(vri.Addr, []byte) { hits[i]++ })
	}
	env.SetLinkOverride(ns[0].Addr(), ns[1].Addr(), 0, 1.0)
	nacks := 0
	ns[0].Send(ns[1].Addr(), vri.PortQuery, []byte("dropped"), func(ok bool) {
		if !ok {
			nacks++
		}
	})
	ns[0].Send(ns[2].Addr(), vri.PortQuery, []byte("fine"), nil)
	env.Run(2 * time.Second)
	if hits[1] != 0 || hits[2] != 1 {
		t.Fatalf("hits = %v, want loss only on the overridden link", hits)
	}
	if nacks != 1 {
		t.Fatalf("lossy-link send produced %d nacks, want 1", nacks)
	}
}

func TestOverrideValidation(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	for name, fn := range map[string]func(){
		"negative-latency": func() { env.SetLinkOverride("a", "b", -time.Millisecond, 0) },
		"loss-above-one":   func() { env.SetLinkOverride("a", "b", 0, 1.5) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid override accepted")
				}
			}()
			fn()
		})
	}
}

// overrideStorm is failureStorm plus a mid-run partition (healed later)
// and a lossy, slow link installed at a driver barrier — the override
// code paths the scenario runner exercises, at the given worker count.
func overrideStorm(workers int, seed int64) shardedOutcome {
	env := NewEnv(Options{Seed: seed, LossRate: 0.05})
	env.SetWorkers(workers)
	const nodes = 16
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
			dst := ns[(i*3+round*7)%nodes]
			n.Send(dst.Addr(), vri.PortQuery, []byte(fmt.Sprintf("m%d-%d", i, round)), func(ok bool) {
				if ok {
					ackCh[i]++
				} else {
					nackCh[i]++
				}
			})
			if round < 12 {
				n.Schedule(45*time.Millisecond+time.Duration(i)*time.Microsecond, tick)
			}
		}
		n.Schedule(time.Duration(i+1)*time.Millisecond, tick)
	}
	var left, right []vri.Addr
	for i, n := range ns {
		if i < nodes/2 {
			left = append(left, n.Addr())
		} else {
			right = append(right, n.Addr())
		}
	}
	env.Run(60 * time.Millisecond)
	env.SetPartition(left, right)
	env.SetLinkOverride(ns[0].Addr(), ns[1].Addr(), 30*time.Millisecond, 0.5)
	env.Run(150 * time.Millisecond)
	env.HealPartition()
	env.Run(120 * time.Millisecond)
	env.ClearLinkOverrides()
	env.Run(2 * time.Second)
	env.Drain()
	var acked, nacked int
	for i := range ackCh {
		acked += ackCh[i]
		nacked += nackCh[i]
	}
	ev, msgs, bytes := env.Stats()
	return shardedOutcome{PerNode: logs, Events: ev, Msgs: msgs, Bytes: bytes, Acked: acked, Nacked: nacked}
}

// TestOverridesShardedDeterminism: partitions and per-link loss/latency
// overrides installed at driver barriers preserve the workers=0 ≡
// workers=K contract.
func TestOverridesShardedDeterminism(t *testing.T) {
	base := overrideStorm(0, 11)
	for _, k := range []int{1, 4, 8} {
		got := overrideStorm(k, 11)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("override run diverged at workers=%d:\nseq: %+v\npar: %+v", k, base, got)
		}
	}
	if base.Nacked == 0 {
		t.Fatal("degenerate storm: partition/loss produced no nacks")
	}
}

// TestLiveAddrsSorted pins the canonical-ordering fix: LiveAddrs must
// return sorted order, not map-iteration order, so drivers sampling
// failure targets from it stay deterministic.
func TestLiveAddrsSorted(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.SpawnN("n", 12)
	env.Fail("n-3")
	for try := 0; try < 8; try++ {
		addrs := env.LiveAddrs()
		if len(addrs) != 11 {
			t.Fatalf("LiveAddrs returned %d addrs, want 11", len(addrs))
		}
		for i := 1; i < len(addrs); i++ {
			if addrs[i-1] >= addrs[i] {
				t.Fatalf("LiveAddrs not sorted: %v", addrs)
			}
		}
	}
}
