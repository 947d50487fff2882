package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Metric is one named measurement. Clock says which clock a time was
// read from: "virt" is simulated time (bit-reproducible at a fixed seed
// and size), "host" is the machine's; counts and ratios leave it empty.
// Detail names what the number is on this workload where the name alone
// is shared between workloads (latency_ms_p50 is a result lag on one
// workload and a lookup time on another).
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	// Spread is set when the value is a median over several runs: the
	// distance between their quartiles as a share of it.
	Spread *float64 `json:"spread,omitempty"`
	Clock  string   `json:"clock,omitempty"`
	Detail string   `json:"detail,omitempty"`
}

// metricSet collects metrics in emission order and refuses a name used
// twice, so a workload cannot silently overwrite a number.
type metricSet struct {
	list  []Metric
	index map[string]int
}

func (s *metricSet) add(m Metric) {
	if s.index == nil {
		s.index = make(map[string]int)
	}
	if _, dup := s.index[m.Name]; dup {
		panic(fmt.Sprintf("benchmark: metric %q emitted twice", m.Name))
	}
	s.index[m.Name] = len(s.list)
	s.list = append(s.list, m)
}

func (s *metricSet) put(name string, v float64, unit string) {
	s.add(Metric{Name: name, Value: v, Unit: unit})
}

func (s *metricSet) get(name string) (Metric, bool) {
	i, ok := s.index[name]
	if !ok {
		return Metric{}, false
	}
	return s.list[i], true
}

// quantile returns the q-quantile of sorted (ascending) by the
// nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPercentile is the highest of p99.9, p99, p95 and p90 that still
// has at least ten samples beyond it; 0 when even p90 has not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.90} {
		if float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0
}

// virtHist is a fixed-resolution histogram of virtual-time latencies.
// The netmon workloads deliver millions of result rows; a count per
// 10 µs bucket keeps their latency distribution exact to 10 µs in 2.4 MB
// instead of holding every sample.
type virtHist struct {
	buckets []uint32
	over    uint64 // samples beyond the last bucket
	n       uint64
}

const (
	virtHistStep = 10 * time.Microsecond
	virtHistSpan = 6 * time.Second
)

func newVirtHist() *virtHist {
	return &virtHist{buckets: make([]uint32, virtHistSpan/virtHistStep)}
}

func (h *virtHist) add(d time.Duration) {
	h.n++
	i := int(d / virtHistStep)
	if d < 0 || i >= len(h.buckets) {
		h.over++
		return
	}
	h.buckets[i]++
}

// quantileMS returns the q-quantile in milliseconds (bucket midpoint).
// A quantile that falls among the overflow samples reports the span, so
// an unexpectedly long latency reads as a regression, not as nothing.
func (h *virtHist) quantileMS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += uint64(c)
		if seen >= rank {
			return (float64(i) + 0.5) * float64(virtHistStep) / float64(time.Millisecond)
		}
	}
	return float64(virtHistSpan) / float64(time.Millisecond)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// ratio is a/b, and 0 when b is 0 (a counter that never fired).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
