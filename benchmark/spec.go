package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are fixed. The program reads it so
// that what it prints and what -compare judges cannot drift from it.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec declares one metric; per-layer metrics have no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json in the working directory or above it
// (run.sh's binary runs at the repository root, go run -C benchmark . and
// go test in this directory) and returns it with the directory it was
// found in.
func loadSpec() (*benchSpec, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	for {
		path := filepath.Join(dir, "BENCHMARK.json")
		data, err := os.ReadFile(path)
		if err == nil {
			var s benchSpec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, "", fmt.Errorf("%s: %w", path, err)
			}
			if s.RunSeconds < 1 || len(s.Paths) == 0 {
				return nil, "", fmt.Errorf("%s: run_seconds and paths are required", path)
			}
			return &s, dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}
