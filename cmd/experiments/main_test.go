package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestUnknownAblationErrors locks in the exit-2 path: an unknown
// ablation name must error rather than silently run nothing, with or
// without -workers.
func TestUnknownAblationErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-ablation", "nope"},
		{"-ablation", "nope", "-workers", "8"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), `unknown ablation "nope"`) {
			t.Errorf("run(%v) stderr = %q, want unknown-ablation error", args, errOut.String())
		}
	}
}

// TestNoSelectionPrintsUsage covers the ran == false path: flags that
// select nothing (including a bare -workers) exit 2 with usage.
func TestNoSelectionPrintsUsage(t *testing.T) {
	for _, args := range [][]string{{}, {"-workers", "8"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "Usage") && !strings.Contains(errOut.String(), "-ablation") {
			t.Errorf("run(%v) printed no usage: %q", args, errOut.String())
		}
	}
}

// TestCheckpointSaveLoadRoundTrip drives the warm-start CLI workflow
// end to end: a cold run saves the converged ring, then two warm runs
// restore it — and their stdout must be byte-identical (the restored-
// ring determinism contract; wall-clock reporting goes to stderr
// precisely so stdout stays comparable).
func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ring.ckpt")
	var cold, coldErr bytes.Buffer
	args := []string{"-fig", "2", "-nodes", "12", "-seed", "7", "-checkpoint-save", ckpt}
	if code := run(args, &cold, &coldErr); code != 0 {
		t.Fatalf("cold run = %d; stderr: %s", code, coldErr.String())
	}
	if !strings.Contains(coldErr.String(), "build phase wall clock") {
		t.Errorf("cold run stderr missing build-phase report: %q", coldErr.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	warm := func(workers string) string {
		var out, errOut bytes.Buffer
		args := []string{"-fig", "2", "-nodes", "12", "-seed", "7", "-workers", workers, "-checkpoint-load", ckpt}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("warm run (workers=%s) = %d; stderr: %s", workers, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "restore phase wall clock") {
			t.Errorf("warm run stderr missing restore-phase report: %q", errOut.String())
		}
		return out.String()
	}
	a, b := warm("0"), warm("0")
	if a != b {
		t.Errorf("warm-run stdout not bit-identical across restores:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	// Across worker counts only the printed workers= label may differ.
	c := warm("2")
	strip := func(s string) string { return regexp.MustCompile(`workers=\d+`).ReplaceAllString(s, "workers=K") }
	if strip(a) != strip(c) {
		t.Errorf("warm-run results diverge across worker counts:\n--- w0 ---\n%s\n--- w2 ---\n%s", a, c)
	}
}

// TestCheckpointFlagValidation: checkpoint-path mistakes must fail fast
// with exit 2 and a message — never a panic, and never after minutes of
// cluster building.
func TestCheckpointFlagValidation(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ring.ckpt")
	var out, errOut bytes.Buffer
	if code := run([]string{"-fig", "2", "-nodes", "12", "-seed", "7", "-checkpoint-save", ckpt}, &out, &errOut); code != 0 {
		t.Fatalf("save run = %d; stderr: %s", code, errOut.String())
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing file", []string{"-fig", "2", "-checkpoint-load", filepath.Join(dir, "nope.ckpt")}, "checkpoint-load"},
		{"node mismatch", []string{"-fig", "2", "-nodes", "99", "-checkpoint-load", ckpt}, "12 nodes"},
		{"unwritable save", []string{"-fig", "2", "-nodes", "12", "-checkpoint-save", filepath.Join(dir, "no", "such", "dir.ckpt")}, "checkpoint-save"},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("%s: run(%v) = %d, want 2", tc.name, tc.args, code)
		}
		if !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%s: stderr = %q, want mention of %q", tc.name, errOut.String(), tc.want)
		}
	}

	// Omitting -nodes with -checkpoint-load adopts the checkpoint's
	// deployment size instead of the harness's default, for an ablation
	// as for a figure.
	for _, args := range [][]string{
		{"-fig", "2", "-seed", "7", "-checkpoint-load", ckpt},
		{"-ablation", "softstate", "-seed", "7", "-checkpoint-load", ckpt},
	} {
		var wout, werr bytes.Buffer
		if code := run(args, &wout, &werr); code != 0 {
			t.Fatalf("adopting warm run %v = %d; stderr: %s", args, code, werr.String())
		}
		if !strings.Contains(werr.String(), "restore phase wall clock") {
			t.Errorf("adopting warm run %v did not restore: %q", args, werr.String())
		}
	}
}

// TestWorkersAppliesToFigures replaces the old refusal: -workers with a
// figure must run it on the sharded scheduler instead of exiting 2.
func TestWorkersAppliesToFigures(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-fig", "2", "-nodes", "12", "-workers", "2", "-seed", "7"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, want 0; stderr: %s", args, code, errOut.String())
	}
	if !strings.Contains(out.String(), "top-10 overlap") {
		t.Errorf("figure 2 output missing summary:\n%s", out.String())
	}
}

// TestProfileFlagsWriteFiles drives -cpuprofile/-memprofile on a tiny
// run: both files must exist and be non-empty pprof output, so scale-run
// hotspots can be captured without editing code.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errOut bytes.Buffer
	args := []string{"-fig", "2", "-nodes", "12", "-seed", "7", "-cpuprofile", cpu, "-memprofile", mem}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d; stderr: %s", args, code, errOut.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}

	// An uncreatable profile path fails fast with a clean message.
	var out2, errOut2 bytes.Buffer
	bad := []string{"-fig", "2", "-nodes", "12", "-cpuprofile", filepath.Join(dir, "no", "such", "cpu.pprof")}
	if code := run(bad, &out2, &errOut2); code != 2 {
		t.Errorf("run(%v) = %d, want 2", bad, code)
	}
	if !strings.Contains(errOut2.String(), "cpuprofile") {
		t.Errorf("stderr = %q, want cpuprofile error", errOut2.String())
	}
}

// TestScenarioFlag drives the -scenario front door end to end: a green
// scenario exits 0 with a PASS report on stdout (bit-identical across
// worker counts), a failed assertion exits 1 with the report still
// printed, and file/parse errors exit 2 before any simulation runs.
func TestScenarioFlag(t *testing.T) {
	dir := t.TempDir()
	green := filepath.Join(dir, "green.yaml")
	if err := os.WriteFile(green, []byte(`
name: cli-green
seed: 11
nodes: 6
duration: 10s
teardown: 8s
workload:
  - kind: continuous-agg
    queries: 2
    flush-every: 3s
    events-per-node: 5
    sources: 8
assert:
  min-result-rows: 1
  all-queries-done: true
  no-leaks: true
`), 0o644); err != nil {
		t.Fatal(err)
	}

	runScenario := func(extra ...string) (int, string, string) {
		var out, errOut bytes.Buffer
		code := run(append([]string{"-scenario", green}, extra...), &out, &errOut)
		return code, out.String(), errOut.String()
	}
	code, seqOut, seqErr := runScenario()
	if code != 0 {
		t.Fatalf("green scenario = %d; stdout:\n%s\nstderr: %s", code, seqOut, seqErr)
	}
	if !strings.Contains(seqOut, "RESULT: PASS") {
		t.Fatalf("green scenario stdout missing RESULT: PASS:\n%s", seqOut)
	}
	if !strings.Contains(seqErr, "scenario wall clock") {
		t.Errorf("wall clock must go to stderr, got: %q", seqErr)
	}
	if code, parOut, _ := runScenario("-workers", "2"); code != 0 || parOut != seqOut {
		t.Fatalf("scenario stdout not bit-identical across worker counts (code=%d):\n--- w0 ---\n%s\n--- w2 ---\n%s",
			code, seqOut, parOut)
	}

	// A failed assertion exits 1 — the CI smoke lane's failure signal —
	// with the full report still on stdout.
	doomed := filepath.Join(dir, "doomed.yaml")
	if err := os.WriteFile(doomed, []byte(`
name: cli-doomed
nodes: 4
duration: 6s
teardown: 5s
assert:
  malformed-seen: true
`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", doomed}, &out, &errOut); code != 1 {
		t.Fatalf("doomed scenario = %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "RESULT: FAIL") {
		t.Fatalf("doomed scenario stdout missing RESULT: FAIL:\n%s", out.String())
	}

	// Parse errors and missing files exit 2 with a message, no run.
	broken := filepath.Join(dir, "broken.yaml")
	if err := os.WriteFile(broken, []byte("name: x\nnodes: 4\nduration: 5s\nbogus: 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{broken, filepath.Join(dir, "nope.yaml")} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-scenario", path}, &out, &errOut); code != 2 {
			t.Errorf("run(-scenario %s) = %d, want 2", path, code)
		}
		if !strings.Contains(errOut.String(), "scenario") {
			t.Errorf("stderr = %q, want scenario error", errOut.String())
		}
	}
}
