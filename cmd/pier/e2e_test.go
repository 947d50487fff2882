package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestPierEndToEnd builds the pier binary and drives the full physical
// deployment the README documents: a bootstrap node, a second node that
// joins the overlay and publishes demo tuples, and a client that runs a
// SELECT ... TIMEOUT query through its proxy over loopback UDP/TCP. It
// is the only coverage the Physical Runtime gets as a whole program, so
// it intentionally goes through the real binary, not the packages.
func TestPierEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e binary test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "pier")
	args := []string{"build", "-o", bin, "."}
	if raceEnabled {
		// Under `go test -race` the nodes are race-checked too: they exit
		// with raceExitCode if the detector reported anything (startNode).
		args = []string{"build", "-race", "-o", bin, "."}
	}
	build := exec.Command("go", args...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Bootstrap node on an ephemeral port; its address comes from stdout.
	boot := startNode(t, bin, "-bind", "127.0.0.1:0")
	bootAddr := boot.expect(t, `^pier node on (\S+)$`, 10*time.Second)

	// Second node joins through the bootstrap and publishes demo tuples.
	member := startNode(t, bin, "-bind", "127.0.0.1:0", "-join", bootAddr, "-demo", "5")
	member.expect(t, `^joined the overlay via (\S+)$`, 20*time.Second)
	member.expect(t, `^published (5) demo tuples$`, 10*time.Second)

	// Wait out one soft-state period. A node announces its membership of
	// the dissemination tree only from a timer armed at Start with a delay
	// drawn from [0, TreeRefresh) (qp's distTrees.start), not on join, so
	// until then the bootstrap — the tree root about half the time — may
	// have no child to broadcast the query to and the client sees 0 rows.
	// TreeRefresh defaults to 5s.
	time.Sleep(6 * time.Second)

	// Client mode: query through the bootstrap node as proxy.
	client := exec.Command(bin,
		"-proxy", bootAddr,
		"-query", "SELECT node, seq FROM demo TIMEOUT 5s",
		"-wait", "30s")
	out, err := client.CombinedOutput()
	if err != nil {
		t.Fatalf("client: %v\n%s", err, out)
	}
	text := string(out)
	m := regexp.MustCompile(`(?m)^(?:done|timeout): (\d+) results$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("client output missing result summary:\n%s", text)
	}
	n, _ := strconv.Atoi(m[1])
	if n < 1 {
		t.Fatalf("client saw %d results, want >= 1:\n%s", n, text)
	}
	if !strings.Contains(text, "demo") {
		t.Fatalf("client results do not mention the demo table:\n%s", text)
	}
}

// raceExitCode is what a -race binary exits with when the detector
// reported a race during the run.
const raceExitCode = 66

// nodeProc wraps a long-running pier server process whose stdout is
// consumed line by line.
type nodeProc struct {
	cmd   *exec.Cmd
	lines chan string
}

func startNode(t *testing.T, bin string, args ...string) *nodeProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &nodeProc{cmd: cmd, lines: make(chan string, 64)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Signal(os.Interrupt)
		var state *os.ProcessState
		done := make(chan struct{})
		go func() { state, _ = cmd.Process.Wait(); close(done) }()
		select {
		case <-done:
			if state != nil && state.ExitCode() == raceExitCode {
				t.Errorf("pier %v: the race detector reported a data race (see stderr)", args)
			}
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
		}
		// Drain the reader goroutine.
		for range p.lines {
		}
		_ = io.Discard
	})
	return p
}

// expect waits for a stdout line matching pattern and returns its first
// capture group.
func (p *nodeProc) expect(t *testing.T, pattern string, timeout time.Duration) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.After(timeout)
	var seen []string
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("process exited while waiting for %q; saw: %s", pattern, fmt.Sprint(seen))
			}
			seen = append(seen, line)
			if m := re.FindStringSubmatch(line); m != nil {
				if len(m) > 1 {
					return m[1]
				}
				return m[0]
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %q; saw: %s", pattern, fmt.Sprint(seen))
		}
	}
}
