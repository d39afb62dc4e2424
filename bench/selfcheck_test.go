package main

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"
)

// TestSelfCheck runs every workload through both passes, briefly, and
// holds the program to BENCHMARK.json: the same workloads, the same
// metrics under the same names and units, every value finite, nothing
// failed. It is the tier-1 guard that keeps the contract and the code in
// step; the numbers it produces mean nothing.
func TestSelfCheck(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json gates a subset of the program's workloads (README.md
	// says which are left out, and why), in the program's order.
	var specWorkloads, ours []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		if slices.Contains(specWorkloads, w.name) {
			ours = append(ours, w.name)
		}
	}
	if !slices.Equal(specWorkloads, ours) {
		t.Fatalf("workloads: BENCHMARK.json has %v, of which the program has %v", specWorkloads, ours)
	}
	if got, want := len(e2eMetrics), len(spec.EndToEnd); got != want {
		t.Fatalf("end-to-end metrics: the program has %d, BENCHMARK.json %d", got, want)
	}
	for i, m := range spec.EndToEnd {
		if d := e2eMetrics[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("end-to-end metric %d: the program has %s [%s], BENCHMARK.json %s [%s]", i, d.name, d.unit, m.Name, m.Unit)
		}
	}
	units := perLayerUnits()
	for _, m := range spec.PerLayer {
		if u, ok := units[m.Name]; !ok {
			t.Errorf("per-layer metric %s is in BENCHMARK.json but the program does not report it", m.Name)
		} else if u != m.Unit {
			t.Errorf("per-layer metric %s: the program says %s, BENCHMARK.json %s", m.Name, u, m.Unit)
		}
		delete(units, m.Name)
	}
	for name := range units {
		t.Errorf("per-layer metric %s is reported but missing from BENCHMARK.json", name)
	}

	// One set-up and a token warm-up: the numbers mean nothing here.
	h := newHarness(1996, 0.15, 1<<20)
	h.minSetups, h.maxSetups, h.warmup = 1, 1, h.window
	h.outDir = t.TempDir()
	finite := func(w, name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s = %v", w, name, v)
		}
	}
	for i := range workloads {
		w := &workloads[i]
		res, err := h.runE2E(w)
		// Windows this short can pass with every lossy stream waiting for
		// its 200 ms retransmission timer, delivering nothing.
		lossy := w.name == "stream_sim_loss_8b"
		if err != nil && !(lossy && errors.Is(err, errNoSample)) {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, res.Attempted, res.Failed)
		}
		for _, d := range e2eMetrics {
			m, ok := res.Metrics[d.name]
			if !ok {
				t.Errorf("%s: no %s", w.name, d.name)
			}
			finite(w.name, d.name, m.Value)
			if m.Value <= 0 && !(lossy && d.name != "setup_s" && d.name != "conn_mem_kb") {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, m.Value)
			}
		}
		layer, tres, err := h.runTraced(w)
		if err != nil {
			t.Fatal(err)
		}
		if tres.Failed != 0 || layer["failed_ops_ratio"] != 0 {
			t.Errorf("%s (traced): failed %d", w.name, tres.Failed)
		}
		for name := range spanMetricUnits {
			if _, ok := layer[name]; !ok {
				t.Errorf("%s: no %s", w.name, name)
			}
		}
		for name := range countMetricUnits {
			if _, ok := layer[name]; !ok {
				t.Errorf("%s: no %s", w.name, name)
			}
		}
		for name, v := range layer {
			finite(w.name, name, v)
		}
		// The slow workloads may not reach a sampling burst in slices this
		// short; the fastest always does, and it is the one the ledger
		// check is defined on.
		if w.name == "rt_sim_8b" && layer["trace.sampled_ops"] == 0 {
			t.Errorf("%s: the traced pass sampled no operation, so there is no ledger", w.name)
		}
	}

	probes, err := runProbes(250 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for name := range probeUnits {
		if name == "ref.drift_pct" {
			continue // set by the run around the probes
		}
		m, ok := probes[name]
		if !ok {
			t.Errorf("probe %s did not report", name)
		}
		finite("probes", name, m.Value)
	}
}
