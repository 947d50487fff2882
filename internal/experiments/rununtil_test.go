package experiments

import (
	"testing"
	"time"

	"pier/internal/sim"
)

// TestRunUntilRespectsNonMultipleDeadline is the regression test for the
// harness-level deadline overshoot: runUntil advanced in fixed 500 ms
// steps, so a max that was not a multiple overran by up to one step —
// the same boundary bug as a scheduler-level RunUntil overrun, one layer
// up.
func TestRunUntilRespectsNonMultipleDeadline(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 1})
	start := env.Now()
	max := 1200 * time.Millisecond // not a multiple of the 500 ms step
	runUntil(env, max, func() bool { return false })
	if got := env.Now().Sub(start); got != max {
		t.Fatalf("runUntil(%v) advanced the clock by %v (overshoot %v)", max, got, got-max)
	}
}

// TestRunUntilStopsEarlyOnCondition: a condition that becomes true must
// end the loop at the step boundary where it was observed, not at max.
func TestRunUntilStopsEarlyOnCondition(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 2})
	start := env.Now()
	fired := false
	env.Schedule(700*time.Millisecond, func() { fired = true })
	runUntil(env, 30*time.Second, func() bool { return fired })
	if !fired {
		t.Fatal("condition never became true")
	}
	if got := env.Now().Sub(start); got != time.Second {
		t.Fatalf("runUntil stopped at +%v, want +1s (the step boundary after the event)", got)
	}
}
