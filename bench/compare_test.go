package main

import (
	"io"
	"math"
	"testing"
)

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if got := quartileSpread([]float64{5, 1, 4, 2, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13], n=4) == [10.25, 11.5, 12.75]
	if got, want := quartileSpread([]float64{10, 11, 12, 13}), 2.5/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	m := func(vs ...float64) metric { return newMetric("us", vs) }
	steady := m(100, 101, 99, 100, 100)
	for _, c := range []struct {
		name   string
		a, b   metric
		better string
		want   string
	}{
		{"within the bound", steady, m(104, 105, 103, 104, 104), "lower", "same"},
		{"slower by more than the bound", steady, m(120, 121, 119, 120, 120), "lower", "worse"},
		{"faster by more than the bound", steady, m(80, 81, 79, 80, 80), "lower", "better"},
		{"a rate that fell", steady, m(80, 81, 79, 80, 80), "higher", "worse"},
		{"too noisy to tell", m(100, 140, 70, 100, 120), m(110, 150, 75, 115, 90), "lower", "unresolved"},
		{"noisy but every window better", m(100, 140, 90, 100, 120), m(60, 80, 50, 70, 85), "lower", "better"},
	} {
		if got, _ := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// A gated workload or metric that a report lacks fails the comparison: a
// workload that crashed must not compare as clean.
func TestCompareMissingRowsFail(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	full := func() *report {
		r := &report{Workloads: map[string]*workloadReport{}}
		for _, w := range workloads {
			wr := &workloadReport{EndToEnd: map[string]metric{}}
			for _, d := range e2eMetrics {
				wr.EndToEnd[d.name] = newMetric(d.unit, []float64{100, 101, 99, 100, 100})
			}
			r.Workloads[w.name] = wr
		}
		return r
	}
	if n := compareRows(io.Discard, spec, full(), full()); n != 0 {
		t.Errorf("identical reports: %d failing rows, want 0", n)
	}
	b := full()
	delete(b.Workloads, "rt_sim_8b")
	if n := compareRows(io.Discard, spec, full(), b); n != 1 {
		t.Errorf("a gated workload missing: %d failing rows, want 1", n)
	}
	b = full()
	delete(b.Workloads["dial_churn"].EndToEnd, "op_p99_us")
	if n := compareRows(io.Discard, spec, full(), b); n != 1 {
		t.Errorf("a gated metric missing: %d failing rows, want 1", n)
	}
	b = full()
	delete(b.Workloads, "rt_udp_8b") // not in BENCHMARK.json
	if n := compareRows(io.Discard, spec, full(), b); n != 0 {
		t.Errorf("a workload BENCHMARK.json does not list missing: %d failing rows, want 0", n)
	}
}

func TestOracle(t *testing.T) {
	p := newPattern(7, 1024)
	f := &failCounts{}
	c := checker{p: p, f: f, conn: 3}
	buf := p.newBuf()
	send := func(conn, seq uint32) (uint32, bool) {
		p.stamp(buf, conn, seq)
		return c.check(buf)
	}
	for seq := uint32(0); seq < 3; seq++ {
		if _, ok := send(3, seq); !ok {
			t.Fatalf("message %d in order was refused", seq)
		}
	}
	if _, ok := send(3, 1); ok || f.dup.Load() != 1 {
		t.Errorf("a repeated message passed (dup = %d)", f.dup.Load())
	}
	if _, ok := send(3, 5); ok || f.lost.Load() != 2 {
		t.Errorf("a gap of two passed (lost = %d)", f.lost.Load())
	}
	if _, ok := send(4, 6); ok || f.corrupt.Load() != 1 {
		t.Errorf("another connection's message passed (corrupt = %d)", f.corrupt.Load())
	}
	p.stamp(buf, 3, 6)
	buf[500] ^= 1
	if _, ok := c.check(buf); ok || f.corrupt.Load() != 2 {
		t.Errorf("a flipped body bit passed (corrupt = %d)", f.corrupt.Load())
	}
	if f.total() != 5 {
		t.Errorf("total failures = %d, want 5", f.total())
	}
}
