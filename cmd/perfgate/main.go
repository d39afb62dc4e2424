// perfgate compares a `go test -bench` run against a committed baseline
// and fails (exit 1) when performance regressed. It is the CI
// perf-regression gate's comparator: a small, dependency-free stand-in
// for benchstat that understands exactly what the gate needs.
//
// Rules:
//
//   - For every benchmark present in both files, the per-benchmark ratio
//     is median(current ns/op) / median(baseline ns/op). Medians over the
//     -count repetitions absorb scheduler noise; single runs compare raw.
//   - The gate fails when the geometric mean of the ratios exceeds
//     1 + threshold (default 10%).
//   - Benchmarks whose name contains "Allocs" are the allocation gate:
//     any increase of median allocs/op over the baseline fails,
//     regardless of the time geomean. The fast paths promise exactly 0.
//
// Updating the baseline (the escape hatch for intentional changes): rerun
// the same benchmarks on the reference machine and commit the output —
//
//	go test -run '^$' \
//	    -bench '^(BenchmarkRoundTrip|BenchmarkRoundTripAllocs|BenchmarkSendOneWay|BenchmarkFastSendAllocs|BenchmarkFastDeliverAllocs|BenchmarkGSOSendBatchAllocs|BenchmarkShardedRecvBurst|BenchmarkRouterDeliverLoaded|BenchmarkAdmissionShedAllocs|BenchmarkConnChurn|BenchmarkGroupFanout|BenchmarkGroupFanoutAllocs|BenchmarkSecureRoundTrip|BenchmarkSecureAllocs)$' \
//	    -benchmem -count=6 . > bench_baseline.txt
//
// and explain the shift in the commit message. CI compares relative to
// this file, so the gate tolerates slower CI hardware as long as the
// shape stays put; it only trips on regressions introduced by the diff.
//
// Usage:
//
//	perfgate -baseline bench_baseline.txt -current bench_current.txt [-threshold 10]
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	baseline := flag.String("baseline", "bench_baseline.txt", "committed baseline bench output")
	current := flag.String("current", "", "bench output of the change under test")
	threshold := flag.Float64("threshold", 10, "max allowed geomean time regression, percent")
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "perfgate: -current is required")
		os.Exit(2)
	}
	base, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}
	cur, err := os.ReadFile(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}
	rep, err := Compare(string(base), string(cur), *threshold/100)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}
	fmt.Print(rep.Format())
	if !rep.Pass() {
		os.Exit(1)
	}
}
