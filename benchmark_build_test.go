package bench

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkModuleBuilds builds the benchmark (benchmark/, a module of
// its own that `go test ./...` does not reach) against the working tree,
// in the environment benchmark/run.sh builds it in: the local toolchain,
// no module proxy, no VCS stamp, and a build cache, work directory and Go
// configuration of its own. A change that removes or reshapes something
// the benchmark calls then fails here, not first when the benchmark runs.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark module build skipped in -short mode")
	}
	dir := t.TempDir()
	for _, d := range []string{"gocache", "gomod", "gopath", "tmp", "config/go/telemetry"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// With a fresh configuration directory the toolchain would otherwise
	// start a telemetry child that can outlive the test.
	if err := os.WriteFile(filepath.Join(dir, "config/go/telemetry/mode"), []byte("off\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	build := exec.Command("go", "build", "-C", "benchmark", "-o", filepath.Join(dir, "pierbench"), ".")
	build.Env = append(os.Environ(),
		"GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=-buildvcs=false",
		"GOCACHE="+filepath.Join(dir, "gocache"), "GOMODCACHE="+filepath.Join(dir, "gomod"),
		"GOPATH="+filepath.Join(dir, "gopath"), "GOTMPDIR="+filepath.Join(dir, "tmp"),
		"XDG_CONFIG_HOME="+filepath.Join(dir, "config"))
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("the benchmark module does not build against this tree: %v\n%s", err, out)
	}
}
