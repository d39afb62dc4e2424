package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: the names, units, directions and regression
// bounds this program's output is judged by.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// perLayerUnits is every per-layer metric this program reports, with its
// unit: spans, counts and probes.
func perLayerUnits() map[string]string {
	all := map[string]string{}
	for _, m := range []map[string]string{spanMetricUnits, countMetricUnits, probeUnits} {
		for k, v := range m {
			all[k] = v
		}
	}
	return all
}
