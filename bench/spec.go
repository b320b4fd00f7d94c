package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: the names, units, directions and bounds the
// benchmark reports against. The program reads them from the file so the
// two cannot drift apart.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the root of the checkout (the working
// directory of `go run ./bench`) or from the parent (that of `go test`).
func loadSpec() (*benchSpec, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w (run from the root of the checkout)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// endToEnd returns the spec of an end-to-end metric.
func (s *benchSpec) endToEnd(name string) (specMetric, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}

// why returns the recorded reason for a workload.
func (s *benchSpec) why(name string) string {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}
