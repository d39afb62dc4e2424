package evsim

import (
	"math"
	"sort"
	"time"
)

// sample accumulates duration observations: the latency distributions a
// round-trip run reports.
type sample struct {
	values []time.Duration
	sum    time.Duration
}

// add records one observation.
func (s *sample) add(d time.Duration) {
	s.values = append(s.values, d)
	s.sum += d
}

// mean returns the arithmetic mean (0 if empty).
func (s *sample) mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / time.Duration(len(s.values))
}

// max returns the largest observation (0 if empty).
func (s *sample) max() time.Duration {
	var m time.Duration
	for _, v := range s.values {
		if v > m {
			m = v
		}
	}
	return m
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) using the
// nearest-rank method.
func (s *sample) percentile(p float64) time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}
