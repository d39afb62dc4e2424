package evsim

import (
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestEmptySample(t *testing.T) {
	var s sample
	if s.mean() != 0 || s.max() != 0 || s.percentile(0) != 0 || s.percentile(50) != 0 {
		t.Fatal("empty sample not all-zero")
	}
}

func TestBasicStats(t *testing.T) {
	var s sample
	for _, v := range []int{1, 2, 3, 4, 5} {
		s.add(ms(v))
	}
	if len(s.values) != 5 || s.mean() != ms(3) || s.max() != ms(5) {
		t.Fatalf("stats: n=%d mean=%v max=%v", len(s.values), s.mean(), s.max())
	}
	if s.percentile(50) != ms(3) {
		t.Fatalf("p50 = %v", s.percentile(50))
	}
	if s.percentile(0) != ms(1) || s.percentile(100) != ms(5) {
		t.Fatal("extreme percentiles")
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	var s sample
	for _, v := range []int{9, 1, 5, 3, 7} {
		s.add(ms(v))
	}
	if s.percentile(50) != ms(5) {
		t.Fatalf("p50 = %v", s.percentile(50))
	}
	// percentile sorts a copy: the sample itself keeps insertion order.
	if s.values[0] != ms(9) || s.max() != ms(9) || s.percentile(0) != ms(1) {
		t.Fatal("sample changed by percentile")
	}
}

// Property: mean lies within [p0, max]; percentiles are monotone.
func TestQuickSampleInvariants(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var s sample
		for _, v := range vals {
			s.add(time.Duration(v) * time.Microsecond)
		}
		if s.mean() < s.percentile(0) || s.mean() > s.max() {
			return false
		}
		prev := time.Duration(-1)
		for _, p := range []float64{0, 25, 50, 75, 90, 99, 100} {
			v := s.percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
