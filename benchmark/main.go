// Command benchmark is the PIER reference benchmark: four fixed
// workloads driven through the public functions of the simulator, the
// overlay, the query processor and the physical runtime, measured from
// outside the program. See README.md in this directory.
//
//	go run -C benchmark .                                   every workload, untraced
//	go run -C benchmark . -trace 1                          untraced, then traced, with trace_overhead_pct
//	go run -C benchmark . -workload filesearch -seed 7 -seconds 12 -trace 0
//	go run -C benchmark . -compare old.json new.json
//
// With -workload the last line of standard output is one JSON object
// (correct, attempted, failed, metrics): the end-to-end metrics of
// BENCHMARK.json on an untraced run, the per-layer metrics on a traced
// one. The process exits non-zero when a reference check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runOpts is what one run of one workload is given.
type runOpts struct {
	seed int64
	// scale is -seconds over the run_seconds of BENCHMARK.json: the sim
	// workloads do a fixed amount of simulated work sized to take about
	// -seconds of host time on the reference box, because a time-boxed
	// simulation would make every virtual-time number depend on host
	// speed. wall_s is how long that work took.
	scale  float64
	trace  bool
	outDir string
	// setups is how many times the run sets its workload up (setup_s is
	// the median, the measured phase uses the last); replayDiv divides
	// the layer replays' iteration counts. Only the package's own test
	// sets them below setupRepeats and above 1.
	setups    int
	replayDiv int
}

// result is one run of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Notes     []string `json:"notes,omitempty"` // what failed
	Info      []string `json:"info,omitempty"`
	Metrics   []Metric `json:"metrics"`

	metricSet // what the run emitted; execute copies it to Metrics
}

// fail records a failed check that is not a failed operation (a leak, an
// attribution residual, a digest mismatch): it fails the run all the same.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

type workloadDef struct {
	name string
	run  func(o runOpts) (*result, error)
}

var workloads = []workloadDef{
	{"netmon_shared", func(o runOpts) (*result, error) { return runNetmon(netmonShared, o) }},
	{"netmon_mixed", func(o runOpts) (*result, error) { return runNetmon(netmonMixed, o) }},
	{"filesearch", func(o runOpts) (*result, error) { return runFilesearch(filesearchFull, o) }},
	{"phys_loopback", func(o runOpts) (*result, error) { return runPhysLoopback(physFull, o) }},
}

// setupRepeats is how many times a run sets its workload up.
const setupRepeats = 3

// notMeasured is the Detail of a per-layer metric that does not apply to
// the workload that was run; its value is 0 and the table leaves it out.
const notMeasured = "not measured on this workload"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print its result as the last line (default: all four, as a table)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 0, "target host seconds of the measured phase (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics; with no -workload, both runs and trace_overhead_pct")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		runs     = flag.Int("runs", 1, "with no -workload: untraced runs per workload, at seeds seed, seed+1, ...; the result file holds medians and their spread")
		out      = flag.String("out", "", "directory for result and trace files (default: out/ beside this program's sources)")
	)
	flag.Parse()

	spec, root, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	outDir := *out
	if outDir == "" {
		outDir = filepath.Join(root, spec.Paths[0], "out")
	}
	o := runOpts{seed: *seed, scale: *seconds / float64(spec.RunSeconds), outDir: outDir, setups: setupRepeats}

	if *workload != "" {
		os.Exit(runOne(spec, *workload, o, *trace == 1))
	}
	os.Exit(runAll(spec, root, o, *trace == 1, *runs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// execute runs a workload and finalizes its metric list against the
// spec: every emitted metric must be declared there with the same unit,
// every declared end-to-end metric must have been emitted and be finite,
// and per-layer metrics that do not apply to this workload read 0.
func execute(spec *benchSpec, w workloadDef, o runOpts) (*result, error) {
	res, err := w.run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	declared := spec.EndToEnd
	if o.trace {
		declared = spec.PerLayer
	}
	units := make(map[string]string, len(declared))
	for _, m := range declared {
		units[m.Name] = m.Unit
	}
	for _, m := range res.list {
		unit, ok := units[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %q is not declared in BENCHMARK.json", w.name, m.Name)
		}
		if unit != m.Unit {
			return nil, fmt.Errorf("%s: metric %q has unit %q, BENCHMARK.json says %q", w.name, m.Name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %q is not finite", w.name, m.Name)
		}
	}
	for _, m := range declared {
		if _, ok := res.get(m.Name); ok {
			continue
		}
		if !o.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %q was not emitted", w.name, m.Name)
		}
		res.add(Metric{Name: m.Name, Unit: m.Unit, Detail: notMeasured})
	}
	res.Metrics = res.list
	return res, nil
}

// runOne is the mode the benchmark driver uses: one workload, one run,
// the result as the last line of standard output.
func runOne(spec *benchSpec, name string, o runOpts, trace bool) int {
	w, err := findWorkload(name)
	if err != nil {
		fatal(err)
	}
	o.trace = trace
	res, err := execute(spec, w, o)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stderr, res)
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]map[string]any{}}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	if res.Failed != 0 {
		return 1
	}
	return 0
}

// resultFile is what a run of every workload leaves in out/ for
// -compare: the environment it ran in and each workload's metrics.
type resultFile struct {
	Commit      string    `json:"commit"`
	GoVersion   string    `json:"go_version"`
	LogicalCPUs int       `json:"logical_cpus"`
	Seed        int64     `json:"seed"`
	Runs        int       `json:"runs"`
	Seconds     float64   `json:"seconds"`
	Results     []*result `json:"results"`
}

// runAll is the mode a person uses: every workload, a table of every
// metric, and a result file for -compare. With runs > 1 each workload's
// untraced run is repeated at consecutive seeds and the file holds each
// metric's median and quartile spread.
func runAll(spec *benchSpec, root string, o runOpts, trace bool, runs int) int {
	if runs < 1 {
		runs = 1
	}
	file := resultFile{
		Commit:      gitCommit(root),
		GoVersion:   runtime.Version(),
		LogicalCPUs: runtime.NumCPU(),
		Seed:        o.seed,
		Runs:        runs,
		Seconds:     o.scale * float64(spec.RunSeconds),
	}
	fmt.Printf("PIER reference benchmark: commit %s, %s, %d logical CPUs, seed %d, %d run(s)\n",
		file.Commit, file.GoVersion, file.LogicalCPUs, o.seed, runs)
	failed := 0
	for _, w := range workloads {
		var all []*result
		for i := 0; i < runs; i++ {
			ro := o
			ro.seed, ro.trace = o.seed+int64(i), false
			res, err := execute(spec, w, ro)
			if err != nil {
				fatal(err)
			}
			failed += res.Failed
			all = append(all, res)
		}
		res := summarize(all)
		printResult(os.Stdout, res)
		file.Results = append(file.Results, res)
		if !trace {
			continue
		}
		o.trace = true
		traced, err := execute(spec, w, o)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, traced)
		file.Results = append(file.Results, traced)
		failed += traced.Failed
		plain, _ := all[0].get("wall_s")
		if tw, ok := traced.get("trace.wall_s"); ok && plain.Value > 0 {
			fmt.Printf("  %-34s %12.4f %-6s traced wall %.3f s over untraced %.3f s, seed %d\n",
				"trace_overhead_pct", 100*(tw.Value-plain.Value)/plain.Value, "%", tw.Value, plain.Value, o.seed)
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("result-seed%d.json", o.seed))
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult file: %s\n", path)
	if failed != 0 {
		fmt.Printf("FAILED: %d failed operations or checks\n", failed)
		return 1
	}
	return 0
}

// summarize folds several runs of one workload into one result: each
// metric's median and quartile spread, failures summed.
func summarize(all []*result) *result {
	if len(all) == 1 {
		return all[0]
	}
	sum := &result{Workload: all[0].Workload, Seed: all[0].Seed}
	for _, r := range all {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		sum.Notes = append(sum.Notes, r.Notes...)
	}
	for _, m := range all[0].Metrics {
		var vals []float64
		for _, r := range all {
			if x, ok := r.get(m.Name); ok {
				vals = append(vals, x.Value)
			}
		}
		m.Value = median(vals)
		if s, ok := quartileSpread(vals); ok {
			m.Spread = &s
		}
		sum.add(m)
	}
	sum.Metrics = sum.list
	return sum
}

func printResult(w *os.File, res *result) {
	kind := "end to end, untraced"
	if res.Traced {
		kind = "per layer, traced"
	}
	fmt.Fprintf(w, "\n%s  seed %d  (%s)  ops_attempted=%d ops_failed=%d\n",
		res.Workload, res.Seed, kind, res.Attempted, res.Failed)
	for _, m := range res.Metrics {
		if m.Detail == notMeasured {
			continue
		}
		var notes []string
		if m.N > 0 {
			notes = append(notes, fmt.Sprintf("n=%d", m.N))
		}
		if m.Spread != nil {
			notes = append(notes, fmt.Sprintf("spread %.2f%%", 100**m.Spread))
		}
		if m.Clock != "" {
			notes = append(notes, m.Clock+" clock")
		}
		if m.Detail != "" {
			notes = append(notes, m.Detail)
		}
		fmt.Fprintf(w, "  %-34s %12.4f %-6s %s\n", m.Name, m.Value, m.Unit, strings.Join(notes, ", "))
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
	for _, n := range res.Info {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// gitCommit is recorded in result files; a checkout without git reads
// "unknown".
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// medianSetup sets a workload up o.setups times and returns the
// median host time. Between tries, untimed, discard (if not nil) tears
// the previous try down and a collection runs, so one try's garbage is
// not the next one's pause. setup is told whether this try is the one
// the measured phase will use.
func medianSetup(o runOpts, setup func(last bool) error, discard func()) (float64, error) {
	var times []float64
	for i := 0; i < o.setups; i++ {
		if i > 0 && discard != nil {
			discard()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(i == o.setups-1); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	sort.Float64s(times)
	return quantile(times, 0.5), nil
}
