package experiments

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// TestShardedWorkers8SpeedupTarget asserts the ROADMAP's ≥3× wall-clock
// target for workers=8 on the Figure 2 pipeline at 1000 nodes (cluster
// build, firewall-log publish, hierarchical top-k), the workload the
// multi-worker ratio was first recorded on. It is gated twice: on
// runtime.NumCPU() — the speedup physically cannot show when worker
// goroutines time-slice fewer cores — and on the PIER_ASSERT_SPEEDUP env
// var, which the pinned multi-core CI runner sets (see the commented
// lane in .github/workflows/ci.yml). Until that runner exists this
// skeleton documents the contract and self-skips.
func TestShardedWorkers8SpeedupTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement is not a -short test")
	}
	if n := runtime.NumCPU(); n < 8 {
		t.Skipf("have %d CPUs, need >= 8 for the workers=8 speedup target (ROADMAP open item: pin a multi-core runner)", n)
	}
	if os.Getenv("PIER_ASSERT_SPEEDUP") == "" {
		t.Skip("set PIER_ASSERT_SPEEDUP=1 on the pinned multi-core runner to activate the assertion")
	}

	measure := func(workers int) time.Duration {
		start := time.Now()
		res := RunFigure2(Figure2Config{Nodes: 1000, Workers: workers, Seed: 42})
		if res.TopOverlap() == 0 {
			t.Fatalf("degenerate workers=%d run: no top-10 overlap with ground truth", workers)
		}
		return time.Since(start)
	}
	seq := measure(1)
	par := measure(8)
	if seq < 2*time.Second {
		t.Skipf("run too small to measure reliably on this hardware (seq=%v); grow Nodes", seq)
	}
	speedup := float64(seq) / float64(par)
	t.Logf("workers=1 %v, workers=8 %v, speedup %.2fx", seq, par, speedup)
	if speedup < 3 {
		t.Errorf("workers=8 speedup %.2fx below the >=3x target (workers=1 %v, workers=8 %v)", speedup, seq, par)
	}
}
