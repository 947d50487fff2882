package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// SetNow is the checkpoint/restore clock rebase: a fresh environment
// adopts the virtual instant a checkpoint was taken, and everything
// spawned afterwards observes the rebased clock.
func TestSetNowRebasesClockBeforePopulation(t *testing.T) {
	at := time.Unix(12345, 678).UTC()
	env := NewEnv(Options{Seed: 1})
	env.SetNow(at)
	if !env.Now().Equal(at) {
		t.Fatalf("Now() = %v, want %v", env.Now(), at)
	}
	n := env.Spawn("a")
	if !n.Now().Equal(at) {
		t.Fatalf("spawned node clock = %v, want rebased %v", n.Now(), at)
	}
	var firedAt time.Time
	n.Schedule(time.Second, func() { firedAt = n.Now() })
	env.Drain()
	if want := at.Add(time.Second); !firedAt.Equal(want) {
		t.Fatalf("event fired at %v, want %v", firedAt, want)
	}
}

func TestSetNowRefusesPopulatedEnv(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.Spawn("a")
	defer func() {
		if recover() == nil {
			t.Fatal("SetNow after Spawn did not panic")
		}
	}()
	env.SetNow(time.Unix(1, 0))
}

func TestSetNowRefusesPendingEvents(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.Schedule(time.Second, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetNow with pending events did not panic")
		}
	}()
	env.SetNow(time.Unix(1, 0))
}

// SetNow must also work (and guard) under the sharded scheduler, where
// pending events live in per-shard heaps.
func TestSetNowSharded(t *testing.T) {
	env := NewEnv(Options{Seed: 1})
	env.SetWorkers(4)
	at := time.Unix(999, 0).UTC()
	env.SetNow(at)
	if !env.Now().Equal(at) {
		t.Fatalf("Now() = %v, want %v", env.Now(), at)
	}
	n := env.Spawn("a")
	n.Schedule(time.Second, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("sharded SetNow with pending shard events did not panic")
		}
	}()
	env.SetNow(at.Add(time.Hour))
}

// TestVirtualTimeRoundTrip checks the clock's integer representation
// against the instants it hands out: after SetNow to a non-epoch instant
// (the shape of a checkpoint's saved time), every handler observes
// exactly the instant its event was scheduled for, events 1 ns apart
// dispatch in time order under both engines, and an instant the int64
// nanosecond clock cannot hold is refused instead of wrapped.
func TestVirtualTimeRoundTrip(t *testing.T) {
	delays := []time.Duration{3, 1, time.Second + 1, 2, 0, time.Second}
	for _, tc := range []struct {
		saved   time.Time
		workers int
	}{
		{time.Unix(1_700_000_000, 123_456_789).UTC(), 0},
		{time.Unix(1_700_000_000, 123_456_789).UTC(), 2},
		{time.Unix(-1_000_000_000, 987_654_321).UTC(), 2}, // before the epoch
	} {
		saved, workers := tc.saved, tc.workers
		t.Run(fmt.Sprintf("%d/workers=%d", saved.Year(), workers), func(t *testing.T) {
			env := NewEnv(Options{Seed: 1})
			env.SetWorkers(workers)
			env.SetNow(saved)
			n := env.Spawn("a")
			var got []time.Duration
			for _, d := range delays {
				n.Schedule(d, func() {
					if now := n.Now(); !now.Equal(saved.Add(d)) {
						t.Errorf("event scheduled for %v ran at %v", saved.Add(d), now)
					}
					got = append(got, n.Now().Sub(saved))
				})
			}
			env.Drain()
			want := []time.Duration{0, 1, 2, 3, time.Second, time.Second + 1}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dispatch offsets %v, want %v", got, want)
			}
			if end := saved.Add(time.Second + 1); !env.Now().Equal(end) {
				t.Fatalf("clock after drain %v, want %v", env.Now(), end)
			}
		})
	}

	last := time.Unix(0, math.MaxInt64)
	NewEnv(Options{}).SetNow(last) // the last representable instant is fine
	for _, bad := range []time.Time{last.Add(1), time.Unix(0, math.MinInt64).Add(-1), {}} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside the virtual clock's range") {
					t.Fatalf("SetNow(%v): recovered %v, want the range panic", bad, r)
				}
			}()
			NewEnv(Options{}).SetNow(bad)
		}()
	}
}
