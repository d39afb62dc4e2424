package main

import (
	"sort"
	"time"
)

// Probes time each module's public functions alone, on one goroutine, the
// way the module's own tests drive it. They do not depend on a workload.
// One file per module (probe_<module>.go), so a refactor of one module
// touches one file.

const probeReps = 5

// prober runs probes within a time budget and collects their results.
type prober struct {
	// rep is how long one repetition of one probe runs; a probe takes
	// probeReps of them after a calibration of about one more.
	rep time.Duration
	out map[string]metric
	err error
}

var probeUnits = map[string]string{}

// probeNames registers the metrics a probe file reports, so the full list
// exists without running anything.
func probeNames(unit string, names ...string) bool {
	for _, n := range names {
		probeUnits[n] = unit
	}
	return true
}

func (p *prober) set(name string, vs []float64) {
	p.out[name] = newMetric(probeUnits[name], vs)
}

// loop times f, which must run its body n times, and records the median
// nanoseconds per iteration over probeReps repetitions of about p.rep each.
func (p *prober) loop(name string, f func(n int)) {
	p.loopScaled(name, 1, f)
}

// loopScaled divides the per-iteration time by per (a body that handles
// per items at a time) and records it under name.
func (p *prober) loopScaled(name string, per float64, f func(n int)) {
	if p.err != nil {
		return // a failed probe has said why; do not run the rest against it
	}
	n := 16
	for {
		t0 := nanos()
		f(n)
		if p.err != nil {
			return
		}
		if dt := nanos() - t0; dt >= int64(p.rep)/8 || n >= 1<<28 {
			n = int(float64(n) * float64(p.rep) / float64(max(dt, 1)))
			break
		}
		n *= 4
	}
	n = max(n, 1)
	vs := make([]float64, probeReps)
	for i := range vs {
		t0 := nanos()
		f(n)
		vs[i] = float64(nanos()-t0) / float64(n) / per
	}
	p.set(name, vs)
}

func (p *prober) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// runProbes runs every probe; budget is the whole time they may take.
func runProbes(budget time.Duration) (map[string]metric, error) {
	files := []func(*prober){
		probeRef, probeMessage, probeHeader, probeFilter, probeStack,
		probeLayers, probeCore, probeNetsim, probeUDP,
	}
	// Every probed loop costs probeReps repetitions plus calibration.
	p := &prober{rep: budget / time.Duration(len(probeUnits)*(probeReps+2)), out: map[string]metric{}}
	for _, f := range files {
		f(p)
	}
	return p.out, p.err
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
