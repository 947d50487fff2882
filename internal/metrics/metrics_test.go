package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestCDFWithMisses(t *testing.T) {
	var r LatencyRecorder
	r.Record(1 * time.Second)
	r.Record(2 * time.Second)
	r.Record(3 * time.Second)
	r.Miss() // 4 queries, one unanswered: curve tops out at 75%
	cdf := r.CDF()
	if len(cdf) != 3 {
		t.Fatalf("points = %d", len(cdf))
	}
	if cdf[2].Percent != 75 {
		t.Errorf("final percent = %v, want 75 (miss plateau)", cdf[2].Percent)
	}
	if cdf[0].Percent != 25 {
		t.Errorf("first percent = %v", cdf[0].Percent)
	}
}

func TestAtOrBelow(t *testing.T) {
	var r LatencyRecorder
	for _, d := range []time.Duration{1, 2, 3, 4} {
		r.Record(d * time.Second)
	}
	if got := r.AtOrBelow(2 * time.Second); got != 50 {
		t.Errorf("AtOrBelow(2s) = %v", got)
	}
	if got := r.AtOrBelow(10 * time.Second); got != 100 {
		t.Errorf("AtOrBelow(10s) = %v", got)
	}
	if got := r.AtOrBelow(0); got != 0 {
		t.Errorf("AtOrBelow(0) = %v", got)
	}
}

func TestPercentileWithMisses(t *testing.T) {
	var r LatencyRecorder
	r.Record(10 * time.Millisecond)
	r.Miss()
	if _, ok := r.Percentile(90); ok {
		t.Error("90th percentile should fall in the misses")
	}
	d, ok := r.Percentile(25)
	if !ok || d != 10*time.Millisecond {
		t.Errorf("25th percentile = %v, %v", d, ok)
	}
}

func TestPercentileTable(t *testing.T) {
	ms := time.Millisecond
	record := func(hits []time.Duration, misses int) *LatencyRecorder {
		var r LatencyRecorder
		for _, d := range hits {
			r.Record(d)
		}
		for i := 0; i < misses; i++ {
			r.Miss()
		}
		return &r
	}
	four := []time.Duration{40 * ms, 10 * ms, 30 * ms, 20 * ms} // unsorted on purpose
	cases := []struct {
		name   string
		rec    *LatencyRecorder
		p      float64
		want   time.Duration
		wantOK bool
	}{
		{"p0 no misses", record(four, 0), 0, 10 * ms, true},
		{"p50 no misses", record(four, 0), 50, 30 * ms, true},
		{"p100 no misses is the max sample", record(four, 0), 100, 40 * ms, true},
		{"p0 with misses", record(four, 2), 0, 10 * ms, true},
		{"p50 with misses", record(four, 2), 50, 40 * ms, true},
		{"p100 with misses falls in the misses", record(four, 2), 100, 0, false},
		{"index exactly len(samples), misses cover it", record(four, 4), 50, 0, false},
		{"single sample p100", record([]time.Duration{7 * ms}, 0), 100, 7 * ms, true},
		{"single sample p0", record([]time.Duration{7 * ms}, 0), 0, 7 * ms, true},
		{"all misses", record(nil, 3), 50, 0, false},
		{"empty", record(nil, 0), 50, 0, false},
	}
	for _, tc := range cases {
		got, ok := tc.rec.Percentile(tc.p)
		if ok != tc.wantOK || (ok && got != tc.want) {
			t.Errorf("%s: Percentile(%v) = (%v, %v), want (%v, %v)",
				tc.name, tc.p, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestEmptyRecorder(t *testing.T) {
	var r LatencyRecorder
	if cdf := r.CDF(); cdf != nil {
		t.Error("empty CDF should be nil")
	}
	if _, ok := r.Percentile(50); ok {
		t.Error("empty percentile should fail")
	}
	if r.AtOrBelow(time.Second) != 0 {
		t.Error("empty AtOrBelow should be 0")
	}
}

func TestRenderCDFTable(t *testing.T) {
	a, b := &LatencyRecorder{}, &LatencyRecorder{}
	a.Record(1 * time.Second)
	b.Record(5 * time.Second)
	b.Miss()
	out := RenderCDFTable(
		[]time.Duration{2 * time.Second, 10 * time.Second},
		map[string]*LatencyRecorder{"pier": a, "gnutella": b},
		[]string{"pier", "gnutella"},
	)
	if !strings.Contains(out, "pier") || !strings.Contains(out, "gnutella") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "100.0%") {
		t.Errorf("pier series should reach 100%%:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Errorf("gnutella series should plateau at 50%%:\n%s", out)
	}
}
