package main

import (
	"math"
	"slices"
	"time"
)

// epoch anchors every timestamp of the run; nanos reads the monotonic
// clock relative to it (one clock read, ~65 ns on the sandbox).
var epoch = time.Now()

func nanos() int64 { return int64(time.Since(epoch)) }

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// median returns the middle value of vs (mean of the two middle values for
// an even count); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	return slices.Min(vs), slices.Max(vs)
}

// ratio is a/b, or 0 when the denominator is 0 (a metric that does not
// apply to the workload reads 0, never NaN: the output is JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
