package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The four workloads at about a fiftieth of their size: small rings, few
// queries, one set-up, short replays. The code paths are the benchmark's
// own; only the sizes differ.
var smallWorkloads = []workloadDef{
	{"netmon_shared", func(o runOpts) (*result, error) {
		return runNetmon(netmonSpec{name: "netmon_shared", nodes: 12, queries: 40, clients: 5, sources: 16,
			eventsPerSec: 66, duration: 20 * time.Second}, o)
	}},
	{"netmon_mixed", func(o runOpts) (*result, error) {
		return runNetmon(netmonSpec{name: "netmon_mixed", nodes: 8, queries: 10, clients: 5, sources: 16, distinct: true,
			eventsPerSec: 66, duration: 20 * time.Second}, o)
	}},
	{"filesearch", func(o runOpts) (*result, error) {
		return runFilesearch(filesearchSpec{nodes: 24, files: 150, vocab: 40, maxRep: 4, rounds: 6, lookups: 4, puts: 4}, o)
	}},
	{"phys_loopback", func(o runOpts) (*result, error) {
		return runPhysLoopback(physSpec{preload: 60, ops: 120, warmOps: 20}, o)
	}},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloads runs every workload untraced and traced and holds them
// to what BENCHMARK.json declares: every end-to-end metric emitted,
// non-zero and finite with its unit; every per-layer metric measured by
// at least one workload; every reference check passing, which includes
// the attribution residual under 2% on the sim workloads and the
// workers=2 digest equal to the sequential one on the netmon ones.
func TestWorkloads(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Name != smallWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q, test %q", i, w.Name, workloads[i].name, smallWorkloads[i].name)
		}
	}
	for _, m := range spec.EndToEnd {
		if !metricName.MatchString(m.Name) {
			t.Errorf("end-to-end metric name %q", m.Name)
		}
	}
	for _, m := range spec.PerLayer {
		if !metricName.MatchString(m.Name) {
			t.Errorf("per-layer metric name %q", m.Name)
		}
	}

	measured := make(map[string]bool)
	for _, w := range smallWorkloads {
		o := runOpts{seed: 1, scale: 1, outDir: t.TempDir(), setups: 1, replayDiv: 20}
		res, err := execute(spec, w, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s untraced: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Notes)
		}
		for _, m := range spec.EndToEnd {
			got, ok := res.get(m.Name)
			if !ok || got.Value == 0 || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want non-zero in %s", w.name, m.Name, got, m.Unit)
			}
		}
		if r, _ := res.get("result_recall"); r.Value != 1 {
			t.Errorf("%s: result_recall = %v, want 1", w.name, r.Value)
		}

		o.trace = true
		traced, err := execute(spec, w, o)
		if err != nil {
			t.Fatal(err)
		}
		if traced.Failed != 0 {
			t.Errorf("%s traced: %d failed: %v", w.name, traced.Failed, traced.Notes)
		}
		if len(traced.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s traced: %d metrics, BENCHMARK.json declares %d", w.name, len(traced.Metrics), len(spec.PerLayer))
		}
		for _, m := range traced.Metrics {
			if m.Detail != notMeasured {
				measured[m.Name] = true
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s is not finite", w.name, m.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
		if w.name != "phys_loopback" {
			if r, ok := traced.get("attribution.residual_pct"); !ok || r.Value >= 2 {
				t.Errorf("%s: attribution residual %v%%, want under 2%%", w.name, r.Value)
			}
		}
		switch w.name {
		case "netmon_shared":
			wantFeeds(t, traced, 1)
		case "netmon_mixed":
			wantFeeds(t, traced, 10)
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
}

// wantFeeds checks the count that explains the two netmon workloads'
// difference: chain feeds are publishes × distinct chains, exactly.
func wantFeeds(t *testing.T, res *result, chains float64) {
	t.Helper()
	feeds, _ := res.get("qp.chain_feeds")
	decodes, _ := res.get("qp.decodes") // one decode per publish
	if decodes.Value == 0 || feeds.Value != chains*decodes.Value {
		t.Errorf("%s: qp.chain_feeds = %v, want %v × %v publishes", res.Workload, feeds.Value, chains, decodes.Value)
	}
}

// TestTracerSelfTimes checks the accounting the attribution rests on:
// nested spans' self times add up to the outermost span's duration.
func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.begin(bSimRun, "", 0)
	for i := 0; i < 100; i++ {
		tr.enter(bQPHandler, false, 0)
		tr.enter(bHarnessCallback, false, 0)
		time.Sleep(10 * time.Microsecond)
		tr.exit()
		tr.exit()
		tr.enter(bOverlayTimer, false, 0)
		tr.exit()
	}
	tr.exit()
	var sum time.Duration
	for b := bucket(0); b < nBuckets; b++ {
		sum += tr.self[b]
	}
	if sum != tr.total[bSimRun] {
		t.Errorf("self times add up to %v, the run span lasted %v", sum, tr.total[bSimRun])
	}
	if tr.calls[bQPHandler] != 100 || tr.self[bHarnessCallback] < time.Millisecond {
		t.Errorf("calls %d, callback self %v", tr.calls[bQPHandler], tr.self[bHarnessCallback])
	}
	if len(tr.spans) != 301 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 1 {
		t.Errorf("%d spans kept, parents %d %d", len(tr.spans), tr.spans[1].Parent, tr.spans[2].Parent)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([10, 12, 11, 14, 13, 15, 9, 16, 12, 11], n=4)
	// is [10.75, 12.0, 14.25]: a spread of 3.5/12.
	got, ok := quartileSpread([]float64{10, 12, 11, 14, 13, 15, 9, 16, 12, 11})
	if want := 3.5 / 12; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, %v, want %v", got, ok, want)
	}
	if _, ok := quartileSpread([]float64{1}); ok {
		t.Error("one value has no spread")
	}
}

// TestCompare builds an old and a new result file and checks each
// verdict, and that files from different machines are refused.
func TestCompare(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.08},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.12},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
			{Name: "net_mb", Unit: "MB", Better: "lower", Bound: 0.05},
		},
	}
	tight, wide := 0.01, 0.30
	write := func(name string, cpus int, ms ...Metric) string {
		f := resultFile{GoVersion: "go1", LogicalCPUs: cpus, Seconds: 12, Runs: 10,
			Results: []*result{{Workload: "w", Metrics: ms}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", 2,
		Metric{Name: "wall_s", Value: 10, Clock: "host", Spread: &tight},
		Metric{Name: "ops_per_s", Value: 100, Clock: "host", Spread: &tight},
		Metric{Name: "latency_ms_p50", Value: 50, Clock: "virt"},
		Metric{Name: "setup_s", Value: 1, Clock: "host", Spread: &wide},
		Metric{Name: "net_mb", Value: 5, Clock: "host"})
	newPath := write("new.json", 2,
		Metric{Name: "wall_s", Value: 11, Clock: "host"},
		Metric{Name: "ops_per_s", Value: 120, Clock: "host"},
		Metric{Name: "latency_ms_p50", Value: 50.5, Clock: "virt"},
		Metric{Name: "setup_s", Value: 2, Clock: "host"},
		Metric{Name: "net_mb", Value: 5, Clock: "host"})
	var out bytes.Buffer
	worse, err := compareFiles(&out, spec, oldPath, newPath)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 10% longer wall_s at an 8% bound is worse")
	}
	for metric, verdict := range map[string]string{
		"wall_s": "worse", "ops_per_s": "better", "latency_ms_p50": "same",
		"setup_s": "unresolved (old spread 30.0%)", "net_mb": "unresolved (old file has one run",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+metric+" ") && strings.Contains(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in:\n%s", metric, verdict, out.String())
		}
	}
	otherBox := write("other.json", 8)
	if _, err := compareFiles(&out, spec, oldPath, otherBox); err == nil {
		t.Error("files from 2 and 8 logical CPUs were compared")
	}
}
