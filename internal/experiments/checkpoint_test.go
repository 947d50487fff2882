package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pier/internal/qp"
	"pier/internal/sim"
	"pier/internal/vri"
)

// buildAndSave cold-builds an n-node cluster at seed and saves its
// checkpoint, returning the file path.
func buildAndSave(t *testing.T, n int, seed int64) string {
	t.Helper()
	env := sim.NewEnv(sim.Options{Seed: seed})
	nodes := BuildCluster(env, n, "n")
	path := filepath.Join(t.TempDir(), "ring.ckpt")
	if err := WriteCheckpointFile(path, env, nodes); err != nil {
		t.Fatal(err)
	}
	return path
}

// openCheckpoint opens the checkpoint at path, the one way a harness
// warm-starts (WarmStart.Loaded).
func openCheckpoint(t *testing.T, path string) *CheckpointFile {
	t.Helper()
	ckpt, err := OpenCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return ckpt
}

// TestWarmStartRingInvariants is the acceptance gate for restore: a
// checkpoint of a converged ring must come back — at workers=0 AND
// workers=8 — with every node holding a predecessor and a non-self
// successor, and with lookups from distinct nodes agreeing on key
// ownership.
func TestWarmStartRingInvariants(t *testing.T) {
	const n = 24
	ckpt := openCheckpoint(t, buildAndSave(t, n, 301))

	for _, workers := range []int{0, 8} {
		env := sim.NewEnv(sim.Options{Seed: 301})
		env.SetWorkers(workers)
		nodes, err := ckpt.Restore(env)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(nodes) != n {
			t.Fatalf("workers=%d: restored %d nodes, want %d", workers, len(nodes), n)
		}
		for _, nd := range nodes {
			d := nd.DHT()
			if d.Predecessor() == "" {
				t.Errorf("workers=%d: %s restored without a predecessor", workers, nd.Addr())
			}
			if d.Successor() == nd.Addr() {
				t.Errorf("workers=%d: %s restored as a singleton", workers, nd.Addr())
			}
		}
		// Ownership agreement: probe each key from three distinct nodes;
		// all resolutions must succeed and name the same owner. Slots are
		// per-node collectors (each callback runs on its probing node),
		// drained at the barrier after Run.
		keys := []string{"alpha", "beta", "gamma", "delta"}
		for ki, key := range keys {
			probers := []*qp.Node{nodes[ki], nodes[(ki+7)%n], nodes[(ki+15)%n]}
			slots := make([]lookupSlot, len(probers))
			for i, p := range probers {
				slot := &slots[i]
				p.DHT().Lookup("warm", key, func(owner vri.Addr, err error) {
					if err == nil && owner != "" {
						slot.ok = true
						slot.owner = owner
					}
				})
			}
			env.Run(10 * time.Second)
			owners := map[vri.Addr]bool{}
			for i, s := range slots {
				if !s.ok {
					t.Errorf("workers=%d: lookup %q from %s failed", workers, key, probers[i].Addr())
					continue
				}
				owners[s.owner] = true
			}
			if len(owners) > 1 {
				t.Errorf("workers=%d: key %q owners disagree after restore: %v", workers, key, owners)
			}
		}
	}
}

// TestWarmStartFigure2Deterministic is the acceptance gate for warm-run
// determinism: a restored-ring Figure 2 must be bit-identical across
// restores at a fixed seed, and across worker counts.
func TestWarmStartFigure2Deterministic(t *testing.T) {
	const n = 24
	ckpt := openCheckpoint(t, buildAndSave(t, n, 303))
	run := func(workers int) Figure2Result {
		cfg := Figure2Config{Nodes: n, EventsPerNode: 8, Sources: 40, Seed: 303, Workers: workers}
		cfg.Warm.Loaded = ckpt
		return RunFigure2(cfg)
	}
	first := run(0)
	if len(first.Got) == 0 || first.Events == 0 {
		t.Fatalf("degenerate warm run: %+v", first)
	}
	if again := run(0); !reflect.DeepEqual(first, again) {
		t.Fatalf("restores diverged at workers=0:\nfirst: %+v\nagain: %+v", first, again)
	}
	if par := run(8); !reflect.DeepEqual(first, par) {
		t.Fatalf("warm run diverged across worker counts:\nseq: %+v\npar: %+v", first, par)
	}
}

// TestWarmStartSaveLoadBytesStable: saving the restored cluster again
// immediately must reproduce the checkpoint (same roster, same state,
// same clock ⇒ same bytes) — a cheap whole-format round-trip check.
func TestWarmStartSaveLoadBytesStable(t *testing.T) {
	path := buildAndSave(t, 12, 305)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv(sim.Options{Seed: 305})
	nodes, err := openCheckpoint(t, path).Restore(env)
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := SaveCheckpoint(&resaved, env, nodes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, resaved.Bytes()) {
		t.Fatalf("re-saved checkpoint differs: %d vs %d bytes", len(orig), resaved.Len())
	}
}

// TestCheckpointRejectsCorruptInput: bad magic and truncated records
// must error out, never install partial state.
func TestCheckpointRejectsCorruptInput(t *testing.T) {
	path := buildAndSave(t, 8, 307)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The count field sits after magic (4+8), version (2), and the
	// saved-at timestamp (8).
	hugeCount := append([]byte(nil), data...)
	for i := 22; i < 26; i++ {
		hugeCount[i] = 0xff
	}
	cases := map[string][]byte{
		"bad magic":        append([]byte("XXXX"), data[4:]...),
		"truncated":        data[:len(data)-7],
		"empty":            {},
		"trailing garbage": append(append([]byte(nil), data...), 0xde, 0xad),
		"huge count":       hugeCount,
	}
	for name, corrupt := range cases {
		env := sim.NewEnv(sim.Options{Seed: 307})
		if _, err := RestoreCheckpoint(corrupt, env); err == nil {
			t.Errorf("%s: restore succeeded on corrupt input", name)
		}
	}
}

// TestCheckpointRequiresQuiescentNodes: a node with an in-flight query
// refuses to checkpoint — query execution state is not capturable.
func TestCheckpointRequiresQuiescentNodes(t *testing.T) {
	env := sim.NewEnv(sim.Options{Seed: 309})
	nodes := BuildCluster(env, 8, "n")
	if _, err := nodes[0].SubmitCollect(queryMustParse(`
query q timeout 20s
opgraph g disseminate local {
    scan = Scan(table='t')
}
`), "test"); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if err := SaveCheckpoint(&sink, env, nodes); err == nil {
		t.Fatal("checkpoint of a cluster with an in-flight query succeeded")
	}
}

// TestOpenCheckpointFileReadsOnce covers the read-once handle: the
// header probe and any number of restores come out of one disk read.
func TestOpenCheckpointFileReadsOnce(t *testing.T) {
	path := buildAndSave(t, 8, 311)
	ckpt := openCheckpoint(t, path)
	if ckpt.NodeCount != 8 {
		t.Fatalf("NodeCount = %d, want 8", ckpt.NodeCount)
	}

	// The file on disk can vanish after Open: restores use the retained
	// bytes, proving no second read happens.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		env := sim.NewEnv(sim.Options{Seed: 311})
		nodes, err := ckpt.Restore(env)
		if err != nil {
			t.Fatalf("restore %d from deleted-file handle: %v", i, err)
		}
		if len(nodes) != 8 {
			t.Fatalf("restore %d: %d nodes, want 8", i, len(nodes))
		}
		if !env.Now().Equal(ckpt.SavedAt) {
			t.Fatalf("restore %d: clock %v, want %v", i, env.Now(), ckpt.SavedAt)
		}
	}

	// buildOrRestore restores from the loaded handle, so the CLI's
	// probe-then-run flow cannot re-read the (now deleted) file.
	env := sim.NewEnv(sim.Options{Seed: 311})
	nodes := buildOrRestore(env, 8, "n", WarmStart{Loaded: ckpt})
	if len(nodes) != 8 {
		t.Fatalf("buildOrRestore via Loaded: %d nodes, want 8", len(nodes))
	}
}
