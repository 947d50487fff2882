package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartile of
// vals as a share of their median, the quartiles taken as Python's
// statistics.quantiles(vals, n=4) takes them; ok is false below two
// values or at a zero median.
func quartileSpread(vals []float64) (spread float64, ok bool) {
	n := len(vals)
	if n < 2 {
		return 0, false
	}
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	med := q(2)
	if med == 0 {
		return 0, false
	}
	s := (q(3) - q(1)) / med
	if s < 0 {
		s = -s
	}
	return s, true
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untraced returns the end-to-end metrics of one workload in a file.
func (f *resultFile) untraced(workload string) map[string]Metric {
	for _, r := range f.Results {
		if r.Workload == workload && !r.Traced {
			m := make(map[string]Metric, len(r.Metrics))
			for _, x := range r.Metrics {
				m[x.Name] = x
			}
			return m
		}
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, judged by the direction and bound BENCHMARK.json fixes:
// better or worse when the medians differ by more than the bound, same
// otherwise, and unresolved when the old file's own run-to-run spread is
// wider than the bound (or, for a host-time metric, was never recorded,
// because the file came from a single run). It refuses files from
// different machines or toolchains, whose host times do not compare, and
// from different seeds or run lengths, which are different inputs. It reports whether any row is worse.
func compareFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) (worse bool, err error) {
	oldF, err := readResultFile(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	if oldF.LogicalCPUs != newF.LogicalCPUs || oldF.GoVersion != newF.GoVersion {
		return false, fmt.Errorf("refusing to compare: %s ran on %d CPUs with %s, %s on %d CPUs with %s",
			oldPath, oldF.LogicalCPUs, oldF.GoVersion, newPath, newF.LogicalCPUs, newF.GoVersion)
	}
	if oldF.Seconds != newF.Seconds || oldF.Seed != newF.Seed {
		return false, fmt.Errorf("refusing to compare: -seconds %g -seed %d against -seconds %g -seed %d are different inputs",
			oldF.Seconds, oldF.Seed, newF.Seconds, newF.Seed)
	}
	fmt.Fprintf(w, "old %s (commit %s, %d runs)   new %s (commit %s, %d runs)\n",
		oldPath, oldF.Commit, oldF.Runs, newPath, newF.Commit, newF.Runs)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		o, n := oldF.untraced(wl.Name), newF.untraced(wl.Name)
		for _, m := range spec.EndToEnd {
			om, ok1 := o[m.Name]
			nm, ok2 := n[m.Name]
			if !ok1 || !ok2 {
				fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  missing\n", wl.Name, m.Name, "-", "-", "-", "-")
				continue
			}
			verdict := judge(m, om, nm)
			if verdict == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n",
				wl.Name, m.Name, om.Value, nm.Value, 100*ratio(nm.Value-om.Value, om.Value), 100*m.Bound, verdict)
		}
	}
	return worse, nil
}

func judge(m metricSpec, oldM, newM Metric) string {
	switch {
	case oldM.Spread != nil && *oldM.Spread > m.Bound:
		return fmt.Sprintf("unresolved (old spread %.1f%%)", 100**oldM.Spread)
	case oldM.Spread == nil && oldM.Clock == "host":
		return "unresolved (old file has one run; use -runs)"
	}
	change := ratio(newM.Value-oldM.Value, oldM.Value)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	case oldM.Clock == "virt" && oldM.Spread == nil && newM.Spread == nil && oldM.Value != newM.Value:
		// Simulated time repeats exactly at one seed and size, so any
		// difference means the protocol behaved differently.
		return "same (within the bound, but simulated time is exact: behaviour changed)"
	}
	return "same"
}
