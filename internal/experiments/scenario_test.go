package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseScenarioFull(t *testing.T) {
	spec, err := ParseScenario(`
# full-surface scenario
name: everything
seed: 9
nodes: 12
duration: 30s
teardown: 8s
topology:
  kind: star
  min-access: 5ms
  max-access: 20ms
network:
  loss-rate: 0.02
workload:
  - kind: continuous-agg
    queries: 4
    flush-every: 3s
    events-per-node: 10
    sources: 16
  - kind: lookups
    count: 6
    start: 1s
    interval: 500ms
    timeout: 5s
    keys: 8
  - kind: gnutella-flood
    count: 5
    at: 4s
    ttl: 2
    degree: 3
events:
  - at: 10s
    action: partition
    first: 3
    heal-after: 5s
  - at: 12s
    action: kill
    count: 1
    respawn-after: 2s
  - at: 6s
    action: link-loss
    a: 1
    b: 2
    loss: 0.5           # inline comment
    extra-latency: 10ms
    clear-after: 4s
  - at: 15s
    action: malformed-flood
    count: 7
assert:
  min-result-rows: 10
  recovered-rows: 1
  min-queries-done: 5
  all-queries-done: true
  lookup-completeness: 0.8
  p99-latency-max: 4s
  no-leaks: true
  malformed-seen: true
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if spec.Name != "everything" || spec.Seed != 9 || spec.Nodes != 12 {
		t.Fatalf("header decoded wrong: %+v", spec)
	}
	if spec.Duration != 30*time.Second || spec.Teardown != 8*time.Second {
		t.Fatalf("durations decoded wrong: %+v", spec)
	}
	if spec.Topology.Kind != "star" || spec.Topology.MaxAccess != 20*time.Millisecond {
		t.Fatalf("topology decoded wrong: %+v", spec.Topology)
	}
	if spec.Network.LossRate != 0.02 {
		t.Fatalf("network decoded wrong: %+v", spec.Network)
	}
	if len(spec.Workloads) != 3 || spec.Workloads[1].Count != 6 || spec.Workloads[2].TTL != 2 {
		t.Fatalf("workloads decoded wrong: %+v", spec.Workloads)
	}
	if len(spec.Events) != 4 {
		t.Fatalf("events decoded wrong: %+v", spec.Events)
	}
	if spec.Events[0].HealAfter != 5*time.Second || spec.Events[2].Loss != 0.5 || spec.Events[3].Floods != 7 {
		t.Fatalf("event fields decoded wrong: %+v", spec.Events)
	}
	a := spec.Assert
	if a.MinResultRows == nil || *a.MinResultRows != 10 ||
		a.P99LatencyMax == nil || *a.P99LatencyMax != 4*time.Second ||
		!a.NoLeaks || !a.MalformedSeen || !a.AllQueriesDone {
		t.Fatalf("assert decoded wrong: %+v", a)
	}
}

func TestParseScenarioDefaults(t *testing.T) {
	spec, err := ParseScenario("name: tiny\nnodes: 4\nduration: 10s\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if spec.Seed != 1 || spec.Teardown != 15*time.Second || spec.Topology.Kind != "star" {
		t.Fatalf("defaults wrong: %+v", spec)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := map[string]string{
		"unknown top key":       "name: x\nnodes: 4\nduration: 5s\nbogus: 1\n",
		"unknown workload key":  "name: x\nnodes: 4\nduration: 5s\nworkload:\n  - kind: lookups\n    bogus: 1\n",
		"unknown assert key":    "name: x\nnodes: 4\nduration: 5s\nassert:\n  min-result-rowz: 3\n",
		"unknown action":        "name: x\nnodes: 4\nduration: 5s\nevents:\n  - at: 1s\n    action: explode\n",
		"bad duration":          "name: x\nnodes: 4\nduration: fast\n",
		"bad int":               "name: x\nnodes: many\nduration: 5s\n",
		"tab indent":            "name: x\nnodes: 4\nduration: 5s\ntopology:\n\tkind: star\n",
		"duplicate key":         "name: x\nname: y\nnodes: 4\nduration: 5s\n",
		"missing name":          "nodes: 4\nduration: 5s\n",
		"event past duration":   "name: x\nnodes: 4\nduration: 5s\nevents:\n  - at: 9s\n    action: kill\n    count: 1\n",
		"loss out of range":     "name: x\nnodes: 4\nduration: 5s\nnetwork:\n  loss-rate: 1.5\n",
		"recovered needs heal":  "name: x\nnodes: 4\nduration: 5s\nassert:\n  recovered-rows: 1\n",
		"partition needs first": "name: x\nnodes: 4\nduration: 5s\nevents:\n  - at: 1s\n    action: partition\n",
		"kill needs count":      "name: x\nnodes: 4\nduration: 5s\nevents:\n  - at: 1s\n    action: kill\n",
	}
	for name, src := range cases {
		if _, err := ParseScenario(src); err == nil {
			t.Errorf("%s: parse accepted invalid scenario", name)
		}
	}
}

// TestCheckedInScenariosParse keeps the shipped scenario artifacts valid
// as the spec evolves; the CI scenario-smoke lane actually runs them.
func TestCheckedInScenariosParse(t *testing.T) {
	names, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 7 {
		t.Fatalf("found %d scenario files, want at least 7: %v", len(names), names)
	}
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spec, err := ParseScenario(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Name == "" || len(spec.Workloads) == 0 {
			t.Fatalf("%s decoded to a degenerate spec: %+v", name, spec)
		}
	}
}

// scenarioLossSpec is the small mixed scenario used by the runner tests:
// environment-level loss plus a kill, a healing partition, and a lossy
// link — every failure-injection path in one run.
func scenarioLossSpec() ScenarioSpec {
	spec, err := ParseScenario(`
name: loss-mix
seed: 17
nodes: 10
duration: 24s
teardown: 12s
network:
  loss-rate: 0.05
workload:
  - kind: continuous-agg
    queries: 4
    flush-every: 4s
    events-per-node: 8
    sources: 16
  - kind: lookups
    count: 5
    start: 2s
    interval: 1s
    timeout: 8s
    keys: 8
events:
  - at: 8s
    action: partition
    first: 3
    heal-after: 6s
  - at: 5s
    action: link-loss
    a: 1
    b: 2
    loss: 0.4
    extra-latency: 15ms
    clear-after: 10s
  - at: 16s
    action: kill
    count: 1
assert:
  min-result-rows: 1
`)
	if err != nil {
		panic(err)
	}
	return spec
}

// TestScenarioFailedAssertionReported: an unsatisfiable assertion must
// flip the outcome to FAIL without aborting the report.
func TestScenarioFailedAssertionReported(t *testing.T) {
	spec, err := ParseScenario(`
name: doomed
seed: 3
nodes: 4
duration: 8s
teardown: 6s
workload:
  - kind: continuous-agg
    queries: 2
    flush-every: 3s
    events-per-node: 4
    sources: 8
assert:
  min-result-rows: 1000000
  no-leaks: true
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := RunScenario(spec, 0)
	if out.Passed {
		t.Fatal("unsatisfiable assertion reported as passed")
	}
	if !strings.Contains(out.Report, "assert min-result-rows >= 1000000: FAIL") {
		t.Fatalf("report missing the failing assertion:\n%s", out.Report)
	}
	if !strings.Contains(out.Report, "RESULT: FAIL") {
		t.Fatalf("report missing RESULT: FAIL:\n%s", out.Report)
	}
	if !strings.Contains(out.Report, "assert no-leaks: PASS") {
		t.Fatalf("independent assertions must still be evaluated:\n%s", out.Report)
	}
}

// TestScenarioGnutellaFlood smoke-tests the flash-crowd workload kind.
func TestScenarioGnutellaFlood(t *testing.T) {
	spec, err := ParseScenario(`
name: flood
seed: 5
nodes: 8
duration: 12s
teardown: 5s
workload:
  - kind: gnutella-flood
    count: 8
    at: 2s
    ttl: 3
    degree: 3
    timeout: 8s
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := RunScenario(spec, 0)
	if !out.Passed {
		t.Fatalf("flood scenario failed:\n%s", out.Report)
	}
	if !strings.Contains(out.Report, "gnutella-flood: searches=") {
		t.Fatalf("report missing flood workload line:\n%s", out.Report)
	}
}
