// Command experiments regenerates the paper's figures and the ablation
// studies from DESIGN.md, printing the same rows/series the paper
// reports. The bench targets in bench_test.go run identical harnesses
// under testing.B; this binary is the human-friendly front door.
//
//	experiments -fig 1               # Figure 1 CDFs (paper scale: 50 nodes)
//	experiments -fig 2               # Figure 2 top-10 (paper scale: 350 nodes)
//	experiments -fig 2 -nodes 10000 -workers 8   # Internet scale on the sharded scheduler
//	experiments -ablation churn
//	experiments -ablation softstate
//	experiments -ablation all
//
// Declarative scenarios (failure injection + assertions) run from YAML
// files; a failed assertion exits 1, so the files double as CI gates:
//
//	experiments -scenario scenarios/partition-heal.yaml -workers 4
//	experiments -scenario scenarios/churn-burst.yaml
//
// §3.3.4's ablations are scenarios, one per strategy, each checking its
// answer against ground truth and reporting the traffic the strategy is
// judged by:
//
//	experiments -scenario scenarios/hieragg-direct.yaml
//	experiments -scenario scenarios/hieragg-hierarchical.yaml
//	experiments -scenario scenarios/join-bloom-rehash.yaml
//
// Scenarios are also the way to drive many coexisting continuous queries
// (§3.3.2): the scenarios/qstorm-*.yaml files run hundreds of them, and
// every report carries a "sharing:" line with the cluster's decodes,
// chain feeds, subtree builds and hits, shared fan-out, flush-wheel fires
// and chain flushes, and dissemination frames and graphs.
//
//	experiments -scenario scenarios/qstorm-shared.yaml
//
// Every figure and ablation accepts -nodes N, overriding its own
// default deployment size, and -workers K: the harnesses follow the
// scheduler's sharded-safe collector discipline, so results are
// bit-identical to -workers 0 at the same seed while wall-clock scales
// with cores.
//
// Warm starts: building a converged ring dominates wall clock at scale,
// so save it once and restore it for every later run —
//
//	experiments -fig 2 -nodes 10000 -workers 8 -checkpoint-save ring10k.ckpt
//	experiments -fig 2 -nodes 10000 -workers 8 -checkpoint-load ring10k.ckpt
//
// A warm-started run is deterministic (bit-identical stdout across
// restores of the same checkpoint at a fixed seed) but is not a
// continuation of the saving run; the build/restore phase wall clock is
// reported on stderr. Ablations warm-start the same way. Without -nodes,
// a loaded run adopts the checkpoint's node count.
//
// Profiling: -cpuprofile and -memprofile write pprof profiles of the
// run, so scale-run hotspots can be captured without editing code:
//
//	experiments -fig 2 -workers 8 -checkpoint-load ring10k.ckpt -cpuprofile cpu.pprof
//	go tool pprof -top cpu.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pier/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to reproduce (1 or 2)")
	scenario := fs.String("scenario", "", "run a declarative scenario file (YAML subset; see scenarios/) and enforce its assertions")
	ablation := fs.String("ablation", "", "ablation to run (churn|softstate|all); §3.3.4's aggregation and join ablations and many coexisting queries run as scenarios (-scenario scenarios/hieragg-*.yaml, join-*.yaml, qstorm-*.yaml)")
	nodes := fs.Int("nodes", 0, "override deployment size")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "simulator worker shards (0 or 1 = one shard on the calling goroutine; results are identical for any count)")
	ckptSave := fs.String("checkpoint-save", "", "after building the cluster, save the converged ring to this file")
	ckptLoad := fs.String("checkpoint-load", "", "warm-start the cluster from this checkpoint file instead of building (-nodes defaults to the checkpoint's size)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Profiling hooks, so scale-run hotspots can be captured without
	// editing code:
	//
	//	experiments -fig 2 -nodes 10000 -checkpoint-load ring10k.ckpt -cpuprofile cpu.pprof -memprofile mem.pprof
	//	go tool pprof -top cpu.pprof
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	// Checkpoint flags are validated up front, so a typoed path fails in
	// milliseconds with a clean message instead of panicking — in the
	// save case after minutes of cluster building. The loaded handle is
	// the harness's only way to warm-start, so the checkpoint file is
	// read from disk once, not once to probe and again to restore.
	var ckpt *experiments.CheckpointFile
	if *ckptLoad != "" {
		var err error
		if ckpt, err = experiments.OpenCheckpointFile(*ckptLoad); err != nil {
			fmt.Fprintf(stderr, "checkpoint-load: %v\n", err)
			return 2
		}
		if *nodes == 0 {
			*nodes = ckpt.NodeCount // adopt the checkpoint's deployment size
		} else if *nodes != ckpt.NodeCount {
			fmt.Fprintf(stderr, "checkpoint-load: %s holds %d nodes but -nodes %d was given\n",
				*ckptLoad, ckpt.NodeCount, *nodes)
			return 2
		}
	}
	if *ckptSave != "" {
		f, err := os.Create(*ckptSave)
		if err != nil {
			fmt.Fprintf(stderr, "checkpoint-save: %v\n", err)
			return 2
		}
		f.Close()
	}

	// Warm-start knobs shared by every BuildCluster-based harness. The
	// build/restore wall clock goes to stderr so stdout stays bit-
	// comparable between runs (the warm-start determinism contract).
	var buildWall time.Duration
	warm := experiments.WarmStart{SavePath: *ckptSave, Loaded: ckpt, BuildWall: &buildWall}
	reportBuild := func() {
		if buildWall > 0 {
			phase := "build"
			if ckpt != nil {
				phase = "restore"
			}
			fmt.Fprintf(stderr, "cluster %s phase wall clock: %v\n", phase, buildWall.Round(time.Millisecond))
			buildWall = 0
		}
	}

	ran := false
	if *scenario != "" {
		ran = true
		src, err := os.ReadFile(*scenario)
		if err != nil {
			fmt.Fprintf(stderr, "scenario: %v\n", err)
			return 2
		}
		spec, err := experiments.ParseScenario(string(src))
		if err != nil {
			fmt.Fprintf(stderr, "scenario %s: %v\n", *scenario, err)
			return 2
		}
		// The report is workers-invariant by contract (the runner keeps
		// the worker count out of it), so stdout diffs cleanly across
		// -workers values; wall clock goes to stderr.
		start := time.Now()
		out := experiments.RunScenario(spec, *workers)
		fmt.Fprint(stdout, out.Report)
		fmt.Fprintf(stderr, "scenario wall clock: %v\n", time.Since(start).Round(time.Millisecond))
		if !out.Passed {
			return 1
		}
	}
	if *fig == 1 {
		ran = true
		fmt.Fprintln(stdout, "=== Figure 1: CDF of first-result latency (PIER vs Gnutella) ===")
		res := experiments.RunFigure1(experiments.Figure1Config{
			Nodes: *nodes, Workers: *workers, Warm: warm, Seed: *seed,
		})
		fmt.Fprint(stdout, res.Render())
		ph, pm := res.PierRare.Count()
		gh, gm := res.GnutellaRare.Count()
		ah, am := res.GnutellaAll.Count()
		fmt.Fprintf(stdout, "\nrecall: PIER(rare) %d/%d, Gnutella(all) %d/%d, Gnutella(rare) %d/%d\n",
			ph, ph+pm, ah, ah+am, gh, gh+gm)
		fmt.Fprintf(stdout, "messages: PIER %d, Gnutella %d\n", res.PierMsgs, res.GnutellaMsgs)
		reportBuild()
	}
	if *fig == 2 {
		ran = true
		fmt.Fprintln(stdout, "=== Figure 2: top-10 sources of firewall events ===")
		res := experiments.RunFigure2(experiments.Figure2Config{
			Nodes: *nodes, Workers: *workers, Warm: warm, Seed: *seed,
		})
		fmt.Fprint(stdout, res.Render())
		fmt.Fprintf(stdout, "\ntop-10 overlap with ground truth: %d/10\n", res.TopOverlap())
		fmt.Fprintf(stdout, "traffic: events=%d msgs=%d workers=%d\n", res.Events, res.Msgs, *workers)
		reportBuild()
	}

	ok := true
	runAblation := func(name string) {
		ran = true
		switch name {
		case "churn":
			fmt.Fprintln(stdout, "=== Ablation §3.2.2: lookups under churn ===")
			for _, session := range []time.Duration{5 * time.Minute, 2 * time.Minute, time.Minute} {
				fmt.Fprint(stdout, experiments.RunChurn(experiments.ChurnConfig{
					Nodes: *nodes, MeanSession: session, Workers: *workers, Warm: warm, Seed: *seed,
				}).Render())
			}
		case "softstate":
			fmt.Fprintln(stdout, "=== Ablation §3.2.3: soft-state lifetime trade-off ===")
			fmt.Fprint(stdout, experiments.RunSoftState(experiments.SoftStateConfig{
				Nodes: *nodes, Workers: *workers, Warm: warm, Seed: *seed,
			}).Render())
		default:
			fmt.Fprintf(stderr, "unknown ablation %q\n", name)
			ok = false
		}
		reportBuild()
		fmt.Fprintln(stdout)
	}
	switch *ablation {
	case "":
	case "all":
		for _, name := range []string{"churn", "softstate"} {
			runAblation(name)
		}
	default:
		runAblation(*ablation)
	}

	if !ok {
		return 2
	}
	if !ran {
		fs.Usage()
		return 2
	}
	return 0
}
