// Package metrics provides the measurement helpers the experiment
// harness uses to regenerate the paper's figures: latency recorders with
// CDF extraction (Figure 1 is a CDF of first-result latency) and simple
// counters/tallies for bandwidth and fidelity accounting.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// LatencyRecorder accumulates durations; a recorded "miss" (no result
// before timeout) is kept separately so CDFs can show recall plateaus
// the way Figure 1 does (curves that never reach 100%).
type LatencyRecorder struct {
	samples []time.Duration
	misses  int
}

// Record adds one latency sample.
func (r *LatencyRecorder) Record(d time.Duration) { r.samples = append(r.samples, d) }

// Miss records a query that produced no result.
func (r *LatencyRecorder) Miss() { r.misses++ }

// Count returns (hits, misses).
func (r *LatencyRecorder) Count() (hits, misses int) { return len(r.samples), r.misses }

// Percentile returns the p'th percentile (0–100) of recorded latencies,
// counting misses as +infinity. ok is false if that percentile falls in
// the misses.
func (r *LatencyRecorder) Percentile(p float64) (time.Duration, bool) {
	total := len(r.samples) + r.misses
	if total == 0 {
		return 0, false
	}
	sorted := append([]time.Duration(nil), r.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(total))
	// p == 100 (or float rounding) indexes one past the population; the
	// top of the distribution is the last sample unless misses occupy it.
	if idx >= total {
		idx = total - 1
	}
	if idx >= len(sorted) {
		return 0, false // that rank falls in the misses (+infinity tail)
	}
	return sorted[idx], true
}

// CDFPoint is one point of a cumulative distribution: the percentage of
// queries answered within Latency.
type CDFPoint struct {
	Latency time.Duration
	Percent float64
}

// CDF returns the distribution at each recorded sample, with misses
// flattening the curve below 100% — the exact shape of Figure 1.
func (r *LatencyRecorder) CDF() []CDFPoint {
	total := len(r.samples) + r.misses
	if total == 0 {
		return nil
	}
	sorted := append([]time.Duration(nil), r.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]CDFPoint, len(sorted))
	for i, d := range sorted {
		out[i] = CDFPoint{Latency: d, Percent: float64(i+1) / float64(total) * 100}
	}
	return out
}

// AtOrBelow returns the percentage of queries answered within d.
func (r *LatencyRecorder) AtOrBelow(d time.Duration) float64 {
	total := len(r.samples) + r.misses
	if total == 0 {
		return 0
	}
	n := 0
	for _, s := range r.samples {
		if s <= d {
			n++
		}
	}
	return float64(n) / float64(total) * 100
}

// RenderCDFTable formats several recorders as the series of a Figure-1
// style plot sampled at the given grid, one column per series.
func RenderCDFTable(grid []time.Duration, series map[string]*LatencyRecorder, order []string) string {
	var sb strings.Builder
	sb.WriteString("latency")
	for _, name := range order {
		fmt.Fprintf(&sb, "\t%s", name)
	}
	sb.WriteByte('\n')
	for _, d := range grid {
		fmt.Fprintf(&sb, "%v", d)
		for _, name := range order {
			fmt.Fprintf(&sb, "\t%5.1f%%", series[name].AtOrBelow(d))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
