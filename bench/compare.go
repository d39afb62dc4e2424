package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// quartileSpread is the distance between the first and third quartile of
// vs as a share of their median, quartiles as Python's
// statistics.quantiles(vs, n=4) gives them.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	q := func(k float64) float64 {
		pos := k * float64(len(s)+1) / 4 // 1-based rank
		i := int(pos)
		i = min(max(i, 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}

// verdict judges one (metric, workload) row: is b worse than a by more
// than the bound? It also returns b's change against a, as a share of a.
func verdict(a, b metric, better string, bound float64) (string, float64) {
	sign := 1.0 // of a change for the worse
	if better == "higher" {
		sign = -1
	}
	delta := ratio(b.Value-a.Value, math.Abs(a.Value))
	change := sign * delta
	// Every window of one side beats every window of the other: the
	// direction is resolved however wide the spread.
	allBetter := len(a.Windows) > 0 && len(b.Windows) > 0
	allWorse := allBetter
	for _, x := range a.Windows {
		for _, y := range b.Windows {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	if spread := max(quartileSpread(a.Windows), quartileSpread(b.Windows)); spread > bound {
		switch {
		case allBetter:
			return "better", delta
		case allWorse && change > bound:
			return "worse", delta
		}
		return "unresolved", delta
	}
	switch {
	case change > bound:
		return "worse", delta
	case change < -bound:
		return "better", delta
	}
	return "same", delta
}

// compareReports judges the report in pathB against the one in pathA by
// BENCHMARK.json in the working directory, and fails when any row is worse.
func compareReports(pathA, pathB string) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	if worse := compareRows(os.Stdout, spec, a, b); worse > 0 {
		return fmt.Errorf("%d rows worse than the bound allows, or missing", worse)
	}
	return nil
}

// compareRows prints one row per (end-to-end metric, workload) and returns
// how many rows fail. A workload is gated when BENCHMARK.json lists it; a
// gated row fails when it is worse than its bound allows or when either
// report lacks it: a workload that crashed must not compare as clean. The
// other workloads' rows are printed for reading and never fail.
func compareRows(out io.Writer, spec *benchSpec, a, b *report) int {
	if a.MachineDrift || b.MachineDrift {
		fmt.Fprintln(out, "note: a report is flagged machine_drift; its numbers moved under it")
	}
	fmt.Fprintf(out, "%-20s %-14s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	gated := map[string]bool{}
	for _, w := range spec.Workloads {
		gated[w.Name] = true
	}
	failing := 0
	fail := func(w string) {
		if gated[w] {
			failing++
		}
	}
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			if gated[w.name] {
				fmt.Fprintf(out, "%-20s missing from a report\n", w.name)
				failing++
			}
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, oka := wa.EndToEnd[m.Name]
			mb, okb := wb.EndToEnd[m.Name]
			if !oka || !okb {
				fmt.Fprintf(out, "%-20s %-14s missing from a report\n", w.name, m.Name)
				fail(w.name)
				continue
			}
			v, change := verdict(ma, mb, m.Better, m.Bound)
			if v == "worse" {
				fail(w.name)
			}
			if !gated[w.name] {
				v += " (not gated)"
			}
			fmt.Fprintf(out, "%-20s %-14s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n", w.name, m.Name, ma.Value, mb.Value, 100*change, 100*m.Bound, v)
		}
		if wa.Failed+wb.Failed > 0 {
			failing++
			fmt.Fprintf(out, "%-20s failed operations: a %d, b %d\n", w.name, wa.Failed, wb.Failed)
		}
	}
	return failing
}
