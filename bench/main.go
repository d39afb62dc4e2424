// Command bench is the repository's benchmark: end-to-end metrics of the
// paper's default stack measured through the public facade, and under them
// a per-layer ledger measured from outside each module. BENCHMARK.json at
// the repository root names everything it prints; README.md explains how
// to read it.
//
//	go run ./bench -seed 1996 -json out.json      the whole protocol, every workload
//	go run ./bench -workload rt_sim_8b            one workload
//	go run ./bench -compare a.json b.json         judge b against a by the bounds
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                              one pass, one JSON result line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// report is what -json writes.
type report struct {
	Schema       int                        `json:"schema"`
	Env          environment                `json:"env"`
	Seed         int64                      `json:"seed"`
	WindowS      float64                    `json:"window_s"`
	Windows      int                        `json:"windows"`
	MachineDrift bool                       `json:"machine_drift"`
	Workloads    map[string]*workloadReport `json:"workloads"`
	Probes       map[string]metric          `json:"probes"`
}

type workloadReport struct {
	Why       string             `json:"why"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	P999us    float64            `json:"op_p999_us"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// driftWarnPct is the reference-loop drift past which a run is flagged.
const driftWarnPct = 10

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all)")
		seed    = flag.Int64("seed", 1996, "seed for payloads, visiting order, ports and loss draws")
		seconds = flag.Float64("seconds", 10, "timed seconds per workload, split into 5 windows")
		trace   = flag.String("trace", "", "0: end-to-end pass only, 1: traced pass and probes only; needs -workload, prints one JSON result line")
		jsonOut = flag.String("json", "", "write the full report to this file")
		compare = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			os.Exit(2)
		}
		if err := compareReports(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, jsonOut string) error {
	if seconds*1000/numWindows < 100 {
		return fmt.Errorf("-seconds %v leaves windows under 100 ms", seconds)
	}
	ws := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		ws = []workload{*w}
	}
	h := newHarness(seed, seconds, latencySamples)
	switch trace {
	case "":
		return fullRun(h, ws, jsonOut)
	case "0", "1":
		if name == "" {
			return fmt.Errorf("-trace needs -workload")
		}
		return driverRun(h, &ws[0], trace == "1", time.Duration(0.4*seconds*float64(time.Second)))
	}
	return fmt.Errorf("-trace is 0 or 1")
}

// driverRun is one pass over one workload, reported as the last line of
// standard output in the form BENCHMARK.json's contract fixes.
func driverRun(h *harness, w *workload, traced bool, probeBudget time.Duration) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	if !traced {
		res, err := h.runE2E(w)
		if err != nil {
			return err
		}
		out.Attempted, out.Failed = res.Attempted, res.Failed
		for _, d := range e2eMetrics {
			out.Metrics[d.name] = value{res.Metrics[d.name].Value, d.unit}
		}
	} else {
		spin0 := refSpin(20 * time.Millisecond)
		layer, res, err := h.runTraced(w)
		if err != nil {
			return err
		}
		probes, err := runProbes(probeBudget)
		if err != nil {
			return err
		}
		out.Attempted, out.Failed = res.Attempted, res.Failed
		for k, m := range probes {
			layer[k] = m.Value
		}
		layer["ref.drift_pct"] = driftPct(spin0, refSpin(20*time.Millisecond))
		warnDrift(layer["ref.drift_pct"])
		// A metric that does not apply to this workload reads 0.
		for k, unit := range perLayerUnits() {
			out.Metrics[k] = value{layer[k], unit}
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func warnDrift(pct float64) bool {
	if pct <= driftWarnPct {
		return false
	}
	fmt.Fprintf(os.Stderr, "bench: warning: the reference loop ran %.1f%% differently at the end of the run than at its start; the machine drifted, treat the numbers with suspicion\n", pct)
	return true
}

// fullRun is the whole protocol: the untraced pass over every workload,
// then the traced pass, then the probes.
func fullRun(h *harness, ws []workload, jsonOut string) error {
	rep := &report{
		Schema: 1, Env: readEnvironment(), Seed: h.seed,
		WindowS: h.window.Seconds(), Windows: numWindows,
		Workloads: map[string]*workloadReport{},
	}
	spin0 := refSpin(50 * time.Millisecond)
	fmt.Printf("bench: seed %d, %d windows of %.2fs, %s, GOMAXPROCS %d of %d CPUs, %s, kernel %s, udp gso=%v gro=%v, commit %s\n",
		h.seed, numWindows, h.window.Seconds(), rep.Env.GoVersion, rep.Env.GOMAXPROCS, rep.Env.NumCPU,
		rep.Env.CPUModel, rep.Env.Kernel, rep.Env.UDPGSO, rep.Env.UDPGRO, rep.Env.Commit)
	var firstErr error
	keep := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	for i := range ws {
		w := &ws[i]
		res, err := h.runE2E(w)
		keep(err)
		if res == nil {
			continue
		}
		wr := &workloadReport{Why: w.why, Attempted: res.Attempted, Failed: res.Failed, EndToEnd: res.Metrics, P999us: res.P999us}
		rep.Workloads[w.name] = wr
		printE2E(w, wr)
	}
	for i := range ws {
		w := &ws[i]
		layer, res, err := h.runTraced(w)
		keep(err)
		wr := rep.Workloads[w.name]
		if layer == nil || wr == nil {
			continue
		}
		wr.PerLayer = layer
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		printLayers(w, layer)
	}
	probes, err := runProbes(time.Duration(len(probeUnits)) * 200 * time.Millisecond)
	keep(err)
	drift := driftPct(spin0, refSpin(50*time.Millisecond))
	probes["ref.drift_pct"] = metric{Unit: "%", Value: drift, Min: drift, Max: drift}
	rep.Probes = probes
	rep.MachineDrift = warnDrift(drift)
	printProbes(probes)
	if jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return firstErr
}

func printE2E(w *workload, wr *workloadReport) {
	fmt.Printf("\n%s  (attempted %d, failed %d)\n", w.name, wr.Attempted, wr.Failed)
	for _, d := range e2eMetrics {
		m := wr.EndToEnd[d.name]
		line := fmt.Sprintf("  %-14s %14.4f %-5s [%.4f .. %.4f]", d.name, m.Value, m.Unit, m.Min, m.Max)
		if len(m.Samples) > 0 {
			line += fmt.Sprintf("  samples/window %v", m.Samples)
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-14s %14.4f %-5s (printed, not gated)\n", "op_p999_us", wr.P999us, "us")
}

func printLayers(w *workload, layer map[string]float64) {
	units := perLayerUnits()
	fmt.Printf("\n%s  per layer (traced pass)\n", w.name)
	for _, k := range sortedKeys(layer) {
		fmt.Printf("  %-34s %14.4f %s\n", k, layer[k], units[k])
	}
}

func printProbes(probes map[string]metric) {
	fmt.Println("\nprobes (each module's public functions alone)")
	for _, k := range sortedKeys(probes) {
		m := probes[k]
		fmt.Printf("  %-38s %12.3f %-5s [%.3f .. %.3f]\n", k, m.Value, m.Unit, m.Min, m.Max)
	}
	fmt.Println(strings.Repeat("-", 72))
}
