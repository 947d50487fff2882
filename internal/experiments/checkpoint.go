package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"pier/internal/qp"
	"pier/internal/sim"
	"pier/internal/wire"
)

// Cluster checkpoint/restore: the warm-start path for paper-scale runs.
// At 10k nodes BuildCluster dominates wall clock — the ring-maintenance
// events of the build phase are most of a Figure-2 run (BENCH_0002) —
// so a converged ring is saved once and restored by every subsequent
// figure, ablation, or sweep at that scale (BENCH_0003 records the
// build-phase cut).
//
// A checkpoint must be taken at a quiescent driver barrier: between
// Env.Run calls, with no queries in flight (qp.Node.Checkpoint rejects
// otherwise). It captures per-node warm state only — ring pointers,
// soft-state objects with expiries rebased to remaining durations,
// distribution-tree children — plus the roster (spawn order) and the
// virtual clock. In-flight messages, pending overlay requests, node
// random-stream positions, and congestion backlog are NOT captured;
// like a simultaneous whole-ring partition, soft state re-issues them.
// Restore therefore is not a bitwise continuation of the saved run, but
// it IS deterministic: restoring the same file into environments with
// the same seed yields bit-identical simulations at any worker count.

// CheckpointFormatVersion is the on-disk format version. Bump it on any
// incompatible layout change — the CI checkpoint cache key embeds it, so
// stale cached rings are rebuilt instead of misread. Version 2: the qp
// tree snapshot grew a tree-count prefix (redundant dissemination
// trees).
const CheckpointFormatVersion = 2

// checkpointMagic guards against feeding an arbitrary file to restore.
const checkpointMagic = "PIERCKPT"

// WarmStart carries the checkpoint knobs every BuildCluster-based
// harness config embeds. The zero value is a plain cold build.
type WarmStart struct {
	// Loaded, when non-nil, restores the cluster from this checkpoint
	// (OpenCheckpointFile) instead of building it. The CLI opens the file
	// at flag-validation time and hands the same bytes here, so the file
	// is read from disk exactly once per process.
	Loaded *CheckpointFile
	// SavePath, when non-empty, saves the converged cluster to this file
	// after a cold build. Harnesses that build several identical
	// clusters in one run (per-strategy sweeps) save each time; the
	// bytes are identical because builds are deterministic.
	SavePath string
	// BuildWall, if non-nil, accumulates the wall-clock time spent
	// building or restoring clusters — the quantity warm starts exist to
	// cut. It lives here rather than in result structs so the
	// workers=0-vs-8 determinism diffs never see wall-clock noise.
	BuildWall *time.Duration
}

// SaveCheckpoint writes a cluster checkpoint: versioned header, virtual
// clock, node roster in spawn order, and one state blob per node. The
// environment must be at a driver barrier and every node quiescent.
func SaveCheckpoint(w io.Writer, env *sim.Env, nodes []*qp.Node) error {
	if !env.AtBarrier() {
		return fmt.Errorf("checkpoint: save requires a driver barrier")
	}
	out := wire.NewWriter(1 << 20)
	out.String(checkpointMagic)
	out.U16(CheckpointFormatVersion)
	out.Time(env.Now())
	out.U32(uint32(len(nodes)))
	blob := wire.NewWriter(4096)
	for _, n := range nodes {
		blob.Reset()
		if err := n.Checkpoint(blob); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		out.String(string(n.Addr()))
		out.Bytes32(blob.Bytes())
	}
	_, err := w.Write(out.Bytes())
	return err
}

// WriteCheckpointFile saves a cluster checkpoint to path.
func WriteCheckpointFile(path string, env *sim.Env, nodes []*qp.Node) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveCheckpoint(f, env, nodes); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readCheckpointHeader consumes and validates the checkpoint header,
// leaving r positioned at the first node record.
func readCheckpointHeader(r *wire.Reader) (count uint32, savedAt time.Time, err error) {
	if magic := r.String(); magic != checkpointMagic {
		return 0, time.Time{}, fmt.Errorf("checkpoint: bad magic %q", magic)
	}
	version := r.U16()
	savedAt = r.Time()
	count = r.U32()
	if err := r.Err(); err != nil {
		return 0, time.Time{}, fmt.Errorf("checkpoint: corrupt header: %w", err)
	}
	if version != CheckpointFormatVersion {
		return 0, time.Time{}, fmt.Errorf("checkpoint: format version %d, this binary reads %d — rebuild the checkpoint",
			version, CheckpointFormatVersion)
	}
	// Every node record costs at least two length prefixes, so a count
	// exceeding that bound is corruption; checking before the
	// pre-allocation keeps a flipped count byte from demanding
	// gigabytes up front instead of erroring.
	if int64(count) > int64(r.Remaining()/8) {
		return 0, time.Time{}, fmt.Errorf("checkpoint: corrupt header: %d nodes in %d remaining bytes", count, r.Remaining())
	}
	return count, savedAt, nil
}

// CheckpointFile is a checkpoint read into memory exactly once: the
// header is parsed eagerly (validation, node count, saved instant) and
// the raw bytes are retained for any number of Restore calls. The CLI
// probes a -checkpoint-load file at flag-validation time and then
// restores from the same handle, so a multi-megabyte checkpoint (7.9 MB
// at 10k nodes) is no longer read from disk twice; per-strategy sweeps
// that restore several identical clusters in one run reuse it too.
type CheckpointFile struct {
	// NodeCount is the roster size recorded in the header.
	NodeCount int
	// SavedAt is the virtual instant the checkpoint was taken.
	SavedAt time.Time
	data    []byte
}

// OpenCheckpointFile reads path once and validates its header.
func OpenCheckpointFile(path string) (*CheckpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	count, savedAt, err := readCheckpointHeader(wire.NewReader(data))
	if err != nil {
		return nil, err
	}
	return &CheckpointFile{NodeCount: int(count), SavedAt: savedAt, data: data}, nil
}

// Restore warm-starts a cluster from the loaded checkpoint into a fresh
// environment. The handle is read-only and may be restored any number
// of times.
func (c *CheckpointFile) Restore(env *sim.Env) ([]*qp.Node, error) {
	return RestoreCheckpoint(c.data, env)
}

// RestoreCheckpoint warm-starts a cluster from a checkpoint into a
// fresh environment: the virtual clock is rebased to the checkpoint
// instant, nodes are spawned in roster order (so ids, shard assignment,
// and random streams match a cold build at the same seed), started, and
// each node's warm state is reinstalled with maintenance timers
// restarted. Works under any worker count — call SetWorkers before or
// after, as with Spawn.
func RestoreCheckpoint(data []byte, env *sim.Env) ([]*qp.Node, error) {
	r := wire.NewReader(data)
	count, savedAt, err := readCheckpointHeader(r)
	if err != nil {
		return nil, err
	}
	env.SetNow(savedAt)
	cfg := clusterConfig(int(count))
	nodes := make([]*qp.Node, 0, count)
	for i := uint32(0); i < count; i++ {
		name := r.String()
		blob := r.Bytes32()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("checkpoint: corrupt node record %d: %w", i, err)
		}
		n := qp.NewNode(env.Spawn(name), cfg)
		if err := n.Start(); err != nil {
			return nil, err
		}
		if err := n.Restore(wire.NewReader(blob)); err != nil {
			return nil, fmt.Errorf("checkpoint: restore %s: %w", name, err)
		}
		nodes = append(nodes, n)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after the last node record", r.Remaining())
	}
	return nodes, nil
}

// buildOrRestore is the cluster entry point every figure/ablation
// harness uses: a cold BuildCluster (optionally saving the converged
// ring) or a warm restore, with the phase's wall clock accumulated into
// ws.BuildWall.
func buildOrRestore(env *sim.Env, n int, prefix string, ws WarmStart) []*qp.Node {
	start := time.Now()
	defer func() {
		if ws.BuildWall != nil {
			*ws.BuildWall += time.Since(start)
		}
	}()
	if ws.Loaded != nil {
		nodes, err := ws.Loaded.Restore(env)
		if err != nil {
			panic(err)
		}
		if len(nodes) != n {
			panic(fmt.Sprintf("checkpoint holds %d nodes, harness configured for %d — pass a matching node count",
				len(nodes), n))
		}
		return nodes
	}
	nodes := BuildCluster(env, n, prefix)
	if ws.SavePath != "" {
		if err := WriteCheckpointFile(ws.SavePath, env, nodes); err != nil {
			panic(err)
		}
	}
	return nodes
}
